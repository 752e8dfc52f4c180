"""Campaign executors: one serial, one parallel, both supervised.

Both executors expose one generator, ``map(campaign, requests)``,
yielding ``(index, payload)`` pairs **in completion order** — the
driver journals completions as they land and merges by index at the
end, so the merged result is identical whichever executor ran.  Both
run under a :class:`SupervisionPolicy`; the default policy is one
attempt, no deadline, no abort budget.  Every campaign goes through
the same failure handling at every worker count:

* **Deadlines** — :class:`ParallelExecutor` enforces a per-run
  wall-clock budget *in the parent*: a worker past its deadline is
  killed, a replacement is spawned, and the in-flight request is
  requeued (or quarantined once its attempts are spent).
* **Dead-worker recovery** — a worker that exits mid-run (OOM kill,
  ``exit(137)``, segfault) is detected through its process sentinel,
  the failure is attributed to exactly the request it was running, and
  the pool is rebuilt by respawning that slot.  A worker whose parent
  dies exits instead of waiting for work forever.
* **Bounded deterministic retry** — each failed or timed-out request is
  retried up to :attr:`SupervisionPolicy.max_attempts` with
  seed-derived exponential backoff (never wall-clock-seeded); every
  failed attempt is reported through the event sink, which the campaign
  driver journals as a ``run-attempt`` record.
* **Quarantine** — a request that exhausts its attempts flows through
  the campaign's ``error_payload`` hook, so a campaign with a violation
  vocabulary completes with a recorded ``scenario-error``; the default
  hook raises :class:`~repro.errors.ExecutionError` instead.
* **Abort budget** — :meth:`SupervisionPolicy.failures_exceeded` gives
  the driver its stop rule: too many quarantined runs and the campaign
  aborts cleanly with a ``campaign-abort`` journal record.

The parallel executor ships only JSON across the process boundary: the
campaign's ``(kind, spec)`` and each request's dict go out, payload
dicts come back.  Workers rebuild the campaign from its spec
(:func:`repro.exec.campaign.build_campaign`) and construct every
scenario on their side — no engine, event queue, or RNG is ever
pickled (lint rule ``DET106``).

Determinism contract: supervision changes *when and where* a request
executes, never *what it produces*.  A retried request re-runs from its
own seed and yields the identical payload, so the merged report stays
bit-exact with an uninterrupted serial run.  The one wall clock in the
exec core lives here, in :class:`DeadlineClock`, and nothing read from
it may enter a payload — lint rule ``DET107`` holds the rest of
``repro.exec`` to that.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from multiprocessing import Pipe, Process, connection, parent_process
from typing import (Callable, Dict, Iterator, List, Optional, Protocol,
                    Tuple)

from ..errors import ConfigurationError, ExecutionError
from .campaign import Campaign, RunRequest, build_campaign
from .errinfo import exception_payload

#: Yield type of ``Executor.map``: (request index, result payload).
Completion = Tuple[int, Dict[str, object]]

#: Attempt-outcome vocabulary, journaled in ``run-attempt`` records.
ATTEMPT_TIMEOUT = "timeout"
ATTEMPT_WORKER_DEATH = "worker-death"
ATTEMPT_ERROR = "error"
ATTEMPT_GARBAGE = "garbage-result"

#: Receives one JSON-clean record per failed attempt (the campaign
#: driver journals them as ``run-attempt`` records).
EventSink = Callable[[Dict[str, object]], None]

#: Mixed into backoff-jitter seeds so the jitter stream never collides
#: with the ``seed_for(campaign_seed, index)`` scenario streams.
_BACKOFF_STREAM = 0x5EEDBACC

#: Workers that die before ever accepting work, in a row, before the
#: supervisor concludes the pool itself is broken and gives up.
_MAX_IDLE_DEATHS = 3


class DeadlineClock:
    """The one sanctioned wall-clock source in the exec core.

    Deadlines and backoff pacing are parent-process scheduling
    concerns, so they legitimately read the host's monotonic clock —
    but nothing read here may ever enter a run payload or a journal
    record.  Lint rule ``DET107`` flags wall-clock reads anywhere else
    under ``repro.exec``.
    """

    def now_s(self) -> float:
        """Monotonic seconds; comparable only against itself."""
        return time.monotonic()  # repro: noqa[DET103]


@dataclass(frozen=True)
class SupervisionPolicy:
    """How much failure a campaign absorbs before giving up.

    ``max_failures`` reads as an absolute count when ``>= 1`` and as a
    fraction of the campaign grid when ``< 1``; ``None`` disables the
    abort budget.  Backoff is exponential with seed-derived jitter —
    deterministic given the request seed and attempt number, never
    wall-clock-seeded.
    """

    #: Wall-clock seconds one run may take before its worker is killed
    #: (``None`` disables deadlines; enforceable only with process
    #: isolation, i.e. the parallel executor).
    run_timeout_s: Optional[float] = None
    #: Total tries per request (1 = no retry).
    max_attempts: int = 1
    #: Abort budget: quarantined-run count (``>= 1``) or grid fraction
    #: (``< 1``); ``None`` = never abort.
    max_failures: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 2.0
    jitter_frac: float = 0.1

    def __post_init__(self) -> None:
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise ConfigurationError("run timeout must be positive")
        if self.max_attempts < 1:
            raise ConfigurationError("max attempts must be >= 1")
        if self.max_failures is not None and self.max_failures < 0:
            raise ConfigurationError("max failures must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff durations must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ConfigurationError("jitter fraction must be in [0, 1)")

    def backoff_s(self, seed: int, attempt: int) -> float:
        """Delay before re-dispatching ``attempt + 1`` of a request.

        Exponential in the attempt number, capped, with jitter drawn
        from an RNG seeded by the *request seed* and attempt — two
        campaigns with the same spec back off identically on any host.
        """
        base = min(self.backoff_base_s
                   * self.backoff_multiplier ** (attempt - 1),
                   self.backoff_cap_s)
        if self.jitter_frac == 0.0 or base == 0.0:
            return base
        rng = random.Random(_BACKOFF_STREAM ^ (seed * 1000003 + attempt))
        return base * (1.0 + self.jitter_frac * (2.0 * rng.random() - 1.0))

    def allowed_failures(self, total_runs: int) -> Optional[int]:
        """The quarantine budget for a grid of ``total_runs`` requests."""
        if self.max_failures is None:
            return None
        if self.max_failures < 1:
            return int(self.max_failures * total_runs)
        return int(self.max_failures)

    def failures_exceeded(self, quarantined: int, total_runs: int) -> bool:
        """Whether ``quarantined`` runs blow the abort budget."""
        allowed = self.allowed_failures(total_runs)
        return allowed is not None and quarantined > allowed


def attempt_record(request: RunRequest, attempt: int, outcome: str,
                   detail: str, requeued: bool) -> Dict[str, object]:
    """The JSON-clean ``run-attempt`` record for one failed attempt."""
    return {"kind": "run-attempt", "index": request.index,
            "seed": request.seed, "attempt": attempt, "outcome": outcome,
            "detail": detail, "requeued": requeued}


def _quarantine_error(outcome: str, detail: str, attempts: int) -> str:
    """The error string handed to ``error_payload`` on quarantine.

    Built only from the configured attempt budget and the failure
    description — never from measured durations — so serial and
    parallel supervision quarantine a given request with bit-identical
    payloads.
    """
    noun = "attempt" if attempts == 1 else "attempts"
    return f"{detail} ({outcome} after {attempts} {noun})"


# --- attempt context ---------------------------------------------------

#: Attempt number of the request currently executing in this process
#: (1 outside supervision).  Read by the fault-injection harness so a
#: scheduled fault can target "attempt 1 only" and let the retry land.
_CURRENT_ATTEMPT = 1


def current_attempt() -> int:
    """Attempt number of the run executing in this process (1-based)."""
    return _CURRENT_ATTEMPT


def _set_current_attempt(attempt: int) -> None:
    global _CURRENT_ATTEMPT
    _CURRENT_ATTEMPT = attempt


# --- executors ---------------------------------------------------------


class Executor(Protocol):
    """How a campaign's pending requests get executed."""

    #: Worker count (1 for the serial executor); reports/benches record it.
    workers: int
    #: The failure handling every request runs under.
    policy: SupervisionPolicy

    def set_event_sink(self, sink: EventSink) -> None:
        """Route failed-attempt records to ``sink`` (driver journaling)."""

    def map(self, campaign: Campaign,
            requests: List[RunRequest]) -> Iterator[Completion]:
        """Yield ``(index, payload)`` per request, in completion order."""


class _SupervisedExecutor:
    """The policy and event sink both executors share."""

    workers = 1

    def __init__(self, policy: Optional[SupervisionPolicy] = None) -> None:
        self.policy = policy if policy is not None else SupervisionPolicy()
        self._sink: Optional[EventSink] = None

    def set_event_sink(self, sink: EventSink) -> None:
        """Route failed-attempt records to ``sink`` (driver journaling)."""
        self._sink = sink

    def _emit(self, record: Dict[str, object]) -> None:
        if self._sink is not None:
            self._sink(record)


class SerialExecutor(_SupervisedExecutor):
    """In-process, in-order execution with bounded retry and quarantine.

    Deadlines need process isolation — a hung run cannot preempt
    itself — so ``run_timeout_s`` is not enforced here; retry,
    quarantine, and the driver's abort budget are.  Retries re-run
    immediately (backoff pacing protects a pool's capacity, of which a
    serial loop has none).  ``KeyboardInterrupt`` propagates, so an
    interrupted campaign leaves a resumable journal behind.
    """

    def map(self, campaign: Campaign,
            requests: List[RunRequest]) -> Iterator[Completion]:
        """Run each request in order, retrying failures in place."""
        for request in requests:
            yield self._run_supervised(campaign, request)

    def _run_supervised(self, campaign: Campaign,
                        request: RunRequest) -> Completion:
        attempt = 0
        try:
            while True:
                attempt += 1
                _set_current_attempt(attempt)
                try:
                    payload = campaign.run_request(request)
                # Crash isolation boundary: the failure becomes attempt
                # data (and ultimately a quarantine payload), never a
                # swallowed error.  Quarantining inside the ``except``
                # keeps the original exception as ``__context__`` of
                # anything ``error_payload`` raises.
                except Exception as exc:  # repro: noqa[EXC402]
                    quarantined = self._failed(
                        campaign, request, attempt, ATTEMPT_ERROR,
                        f"{type(exc).__name__}: {exc}",
                        exception_payload(exc))
                else:
                    if isinstance(payload, dict):
                        return request.index, payload
                    quarantined = self._failed(
                        campaign, request, attempt, ATTEMPT_GARBAGE,
                        f"run returned {type(payload).__name__}, "
                        f"not a payload dict", None)
                if quarantined is not None:
                    return quarantined
        finally:
            _set_current_attempt(1)

    def _failed(self, campaign: Campaign, request: RunRequest,
                attempt: int, outcome: str, detail: str,
                details: Optional[Dict[str, object]]
                ) -> Optional[Completion]:
        """Record a failed attempt; the quarantine once none are left."""
        attempts = self.policy.max_attempts
        self._emit(attempt_record(request, attempt, outcome, detail,
                                  requeued=attempt < attempts))
        if attempt < attempts:
            return None
        return request.index, campaign.error_payload(
            request, _quarantine_error(outcome, detail, attempts),
            details=details)


def _supervised_worker_main(kind: str, spec: Dict[str, object],
                            conn: "connection.Connection") -> None:
    """Worker loop: recv ``(request_dict, attempt)``, send the result.

    Replies ``("ok", payload)`` or ``("error", description)``; a
    ``None`` message, a closed pipe, or the parent's exit is the
    shutdown signal.  The parent's exit must be watched for directly:
    a forked worker inherits this pipe's parent end, and later siblings
    hold copies of it too, so a SIGKILLed parent never shows up as EOF
    here.  The campaign is rebuilt from its JSON spec (lint rule
    ``DET106``).
    """
    parent = parent_process()
    watched: List[object] = [conn]
    if parent is not None:
        watched.append(parent.sentinel)
    try:
        campaign = build_campaign(kind, spec)
        while True:
            ready = connection.wait(watched)
            if parent is not None and parent.sentinel in ready:
                return  # the parent is gone: nobody will read a result
            try:
                item = conn.recv()
            except (EOFError, OSError):
                return
            if item is None:
                return
            request_dict, attempt = item
            request = RunRequest.from_dict(request_dict)
            _set_current_attempt(attempt)
            try:
                reply: Tuple[str, object] = (
                    "ok", campaign.run_request(request))
            # Crash isolation boundary: the failure travels back as
            # data for the supervisor to attribute and retry.
            except Exception as exc:  # repro: noqa[EXC402]
                reply = ("error",
                         {"message": f"{type(exc).__name__}: {exc}",
                          "exception": exception_payload(exc)})
            finally:
                _set_current_attempt(1)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return
    except KeyboardInterrupt:
        return


class _Flight:
    """One dispatchable attempt of one request."""

    __slots__ = ("request", "attempt", "eligible_at_s")

    def __init__(self, request: RunRequest, attempt: int,
                 eligible_at_s: float) -> None:
        self.request = request
        self.attempt = attempt
        self.eligible_at_s = eligible_at_s


class _WorkerSlot:
    """One supervised worker process and what it is running."""

    __slots__ = ("process", "conn", "current", "deadline_s")

    def __init__(self, process: Process,
                 conn: "connection.Connection") -> None:
        self.process = process
        self.conn = conn
        self.current: Optional[_Flight] = None
        self.deadline_s: Optional[float] = None


def _spawn_worker(kind: str, spec: Dict[str, object]) -> _WorkerSlot:
    """Start one worker process wired to a fresh duplex pipe."""
    parent_conn, child_conn = Pipe()
    process = Process(target=_supervised_worker_main,
                      args=(kind, spec, child_conn), daemon=True)
    process.start()
    child_conn.close()
    return _WorkerSlot(process, parent_conn)


def _destroy_slot(slot: _WorkerSlot) -> None:
    """Stop a worker hard (terminate, then kill) and reap it."""
    process = slot.process
    if process.is_alive():
        process.terminate()
        process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
    process.join(timeout=1.0)
    try:
        slot.conn.close()
    except OSError:
        pass


def _take_eligible(queue: List[_Flight], now_s: float) -> Optional[_Flight]:
    """Pop the first flight whose backoff delay has elapsed."""
    for position, flight in enumerate(queue):
        if flight.eligible_at_s <= now_s:
            return queue.pop(position)
    return None


class ParallelExecutor(_SupervisedExecutor):
    """Process-pool fan-out with deadlines, retry, and pool rebuild.

    Built directly on ``multiprocessing`` (one duplex pipe per worker)
    rather than ``concurrent.futures``: supervision needs to know
    *which* request each worker is running so a death or deadline can
    be attributed to exactly one in-flight request, and needs to kill a
    hung worker outright — neither of which the pooled futures API
    exposes.  Every run's behaviour depends only on its request (seed
    ``seed_for(campaign_seed, index)``), and merge-by-index in the
    driver erases every scheduling difference, so results remain
    bit-exact with serial execution.
    """

    def __init__(self, workers: int,
                 policy: Optional[SupervisionPolicy] = None,
                 clock: Optional[DeadlineClock] = None) -> None:
        if workers < 2:
            raise ConfigurationError(
                "ParallelExecutor needs at least 2 workers "
                "(use SerialExecutor for 1)")
        super().__init__(policy)
        self.workers = workers
        self._clock = clock if clock is not None else DeadlineClock()
        self._idle_deaths = 0

    def map(self, campaign: Campaign,
            requests: List[RunRequest]) -> Iterator[Completion]:
        """Fan out with supervision; yield completions as they land."""
        if not requests:
            return
        kind = campaign.kind
        spec = campaign.spec()
        # Round-trip the spec through the registry eagerly: a campaign
        # that cannot be rebuilt from JSON must fail before any worker
        # starts, not midway through the pool.
        build_campaign(kind, spec)
        queue = [_Flight(request, 1, 0.0) for request in requests]
        remaining = len(requests)
        slots = [_spawn_worker(kind, spec)
                 for _ in range(min(self.workers, len(requests)))]
        self._idle_deaths = 0
        try:
            while remaining > 0:
                done: List[Completion] = []
                self._dispatch_ready(campaign, slots, queue, done,
                                     kind, spec)
                if not done:
                    self._pump_events(campaign, slots, queue, done,
                                      kind, spec)
                for completion in done:
                    remaining -= 1
                    yield completion
        finally:
            for slot in slots:
                _destroy_slot(slot)

    # -- scheduling -----------------------------------------------------

    def _dispatch_ready(self, campaign: Campaign,
                        slots: List[_WorkerSlot], queue: List[_Flight],
                        done: List[Completion], kind: str,
                        spec: Dict[str, object]) -> None:
        """Hand eligible queued flights to idle workers."""
        for position, slot in enumerate(list(slots)):
            if slot.current is not None:
                continue
            now_s = self._clock.now_s()
            flight = _take_eligible(queue, now_s)
            if flight is None:
                return
            try:
                slot.conn.send((flight.request.to_dict(), flight.attempt))
            except (BrokenPipeError, OSError):
                # The worker vanished before accepting work: charge the
                # attempt (a request that reliably kills its worker must
                # still exhaust its budget) and rebuild the slot.
                slots[position] = _spawn_worker(kind, spec)
                _destroy_slot(slot)
                self._fail(campaign, flight, ATTEMPT_WORKER_DEATH,
                           "worker unavailable at dispatch", queue, done)
                continue
            slot.current = flight
            if self.policy.run_timeout_s is not None:
                slot.deadline_s = now_s + self.policy.run_timeout_s

    def _wait_timeout(self, slots: List[_WorkerSlot],
                      queue: List[_Flight]) -> Optional[float]:
        """How long the event wait may block before scheduling work."""
        now_s = self._clock.now_s()
        wake_at: List[float] = [
            slot.deadline_s for slot in slots
            if slot.current is not None and slot.deadline_s is not None]
        if any(slot.current is None for slot in slots):
            wake_at.extend(flight.eligible_at_s for flight in queue)
        if wake_at:
            return max(0.0, min(wake_at) - now_s)
        if any(slot.current is not None for slot in slots):
            return None  # block until a result or a death
        return 0.05  # defensive: never spin, never block forever

    def _pump_events(self, campaign: Campaign, slots: List[_WorkerSlot],
                     queue: List[_Flight], done: List[Completion],
                     kind: str, spec: Dict[str, object]) -> None:
        """Wait once; absorb results, deaths, and expired deadlines."""
        waitables: List[object] = [slot.conn for slot in slots]
        waitables.extend(slot.process.sentinel for slot in slots)
        ready = connection.wait(waitables,
                                self._wait_timeout(slots, queue))
        for position, slot in enumerate(list(slots)):
            if slot.conn in ready:
                self._on_message(campaign, slots, position, queue, done,
                                 kind, spec)
        for position, slot in enumerate(list(slots)):
            if slot in slots and slot.process.sentinel in ready:
                self._on_death(campaign, slots, position, queue, done,
                               kind, spec)
        now_s = self._clock.now_s()
        for position, slot in enumerate(list(slots)):
            if slot in slots and slot.current is not None \
                    and slot.deadline_s is not None \
                    and now_s >= slot.deadline_s:
                self._on_deadline(campaign, slots, position, queue, done,
                                  kind, spec)

    # -- event handling -------------------------------------------------

    def _on_message(self, campaign: Campaign, slots: List[_WorkerSlot],
                    position: int, queue: List[_Flight],
                    done: List[Completion], kind: str,
                    spec: Dict[str, object]) -> None:
        """A worker's pipe is readable: a result or a torn connection."""
        slot = slots[position]
        flight = slot.current
        try:
            message = slot.conn.recv()
        except (EOFError, OSError):
            # A torn pipe is a dying worker: report it as its sentinel
            # would, so the quarantine detail does not depend on which
            # of the two the wait saw first.
            self._on_death(campaign, slots, position, queue, done, kind,
                           spec)
            return
        slot.current = None
        slot.deadline_s = None
        if flight is None:
            return  # unsolicited chatter from an idle worker; ignore
        if (isinstance(message, tuple) and len(message) == 2
                and message[0] == "ok" and isinstance(message[1], dict)):
            self._idle_deaths = 0
            done.append((flight.request.index, message[1]))
        elif isinstance(message, tuple) and len(message) == 2 \
                and message[0] == "ok":
            self._fail(campaign, flight, ATTEMPT_GARBAGE,
                       f"run returned {type(message[1]).__name__}, "
                       f"not a payload dict", queue, done)
        elif isinstance(message, tuple) and len(message) == 2 \
                and message[0] == "error":
            if isinstance(message[1], dict):
                detail = str(message[1].get("message", ""))
                details = message[1].get("exception")
            else:
                detail, details = str(message[1]), None
            self._fail(campaign, flight, ATTEMPT_ERROR, detail,
                       queue, done, details=details)
        else:
            self._fail(campaign, flight, ATTEMPT_GARBAGE,
                       "worker sent an unrecognised message", queue, done)

    def _on_death(self, campaign: Campaign, slots: List[_WorkerSlot],
                  position: int, queue: List[_Flight],
                  done: List[Completion], kind: str,
                  spec: Dict[str, object]) -> None:
        """A worker process exited: attribute, rebuild, requeue."""
        slot = slots[position]
        flight = slot.current
        slot.process.join(timeout=1.0)  # reap it: exitcode is then known
        exitcode = slot.process.exitcode
        slots[position] = _spawn_worker(kind, spec)
        _destroy_slot(slot)
        if flight is None:
            self._idle_death()
            return
        self._fail(campaign, flight, ATTEMPT_WORKER_DEATH,
                   f"worker exited with code {exitcode}", queue, done)

    def _on_deadline(self, campaign: Campaign, slots: List[_WorkerSlot],
                     position: int, queue: List[_Flight],
                     done: List[Completion], kind: str,
                     spec: Dict[str, object]) -> None:
        """A run blew its wall-clock budget: kill, rebuild, requeue."""
        slot = slots[position]
        flight = slot.current
        slots[position] = _spawn_worker(kind, spec)
        _destroy_slot(slot)
        assert flight is not None
        self._fail(campaign, flight, ATTEMPT_TIMEOUT,
                   f"exceeded the {self.policy.run_timeout_s:g}s "
                   f"wall-clock deadline", queue, done)

    def _fail(self, campaign: Campaign, flight: _Flight, outcome: str,
              detail: str, queue: List[_Flight],
              done: List[Completion],
              details: Optional[Dict[str, object]] = None) -> None:
        """Record a failed attempt; requeue with backoff or quarantine.

        ``details`` is the structured exception payload the worker
        captured at the raise site (ERROR outcomes only); it travels
        into the quarantine payload, never into attempt records.
        """
        policy = self.policy
        requeued = flight.attempt < policy.max_attempts
        self._emit(attempt_record(flight.request, flight.attempt, outcome,
                                  detail, requeued))
        if requeued:
            delay_s = policy.backoff_s(flight.request.seed, flight.attempt)
            queue.append(_Flight(flight.request, flight.attempt + 1,
                                 self._clock.now_s() + delay_s))
        else:
            done.append((flight.request.index, campaign.error_payload(
                flight.request,
                _quarantine_error(outcome, detail, flight.attempt),
                details=details)))

    def _idle_death(self) -> None:
        """A worker died before accepting work; bound the respawn loop."""
        self._idle_deaths += 1
        if self._idle_deaths > _MAX_IDLE_DEATHS:
            raise ExecutionError(
                f"supervised pool workers died {self._idle_deaths} times "
                f"before accepting any work; giving up (is the campaign "
                f"spec rebuildable worker-side?)")


def make_executor(workers: int,
                  policy: Optional[SupervisionPolicy] = None) -> Executor:
    """The executor for a ``--workers N`` request (1 means serial).

    ``policy`` defaults to ``SupervisionPolicy()``: one attempt, no
    deadline, no abort budget.
    """
    if workers < 1:
        raise ConfigurationError("worker count must be >= 1")
    if workers == 1:
        return SerialExecutor(policy)
    return ParallelExecutor(workers, policy)
