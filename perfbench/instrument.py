"""Timing wrappers installed around the program's public calls.

Nothing under ``src/`` knows it is being measured: every wrapper here
replaces a public function or method at run time, in the benchmark's
own process, and calls straight through to the original.

Two levels:

* **light** (every pass): the campaign entry (``run_campaign``, whose
  first call marks the end of set-up and whose result is digested),
  one wrapper per simulation run (its wall and CPU time), and constructor
  hooks that register each ``SimulationRunner`` and
  ``MigrationExecutor`` so a run's deterministic counts (events,
  packets, deliveries, drops, PCIe crossings, migration attempts) can
  be read off them when the run ends.
* **traced** (``--trace 1``): additionally a span around each layer
  boundary listed in :data:`LAYER_SPANS`.  Spans nest through a stack;
  a layer's self time is its span minus its child spans, aggregated by
  name as the spans close.

Plain passes also time a fixed calibration kernel between runs, in
the process running them, so that ``bench.calibrated`` can express run
times at a reference host speed.

Runs executed in forked pool workers flush their records to one JSONL
file per worker process after every run, because pool workers exit
without running exit hooks.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Counts read off the simulation objects a run created.
RUN_COUNTS = ("events", "packets", "delivered", "dropped",
              "pcie_crossings", "migration_attempts",
              "migration_succeeded")


#: The calibration kernel's time on an unloaded 2-core x86-64 host
#: (Python 3.11): the speed that calibrated times are expressed at.
REFERENCE_KERNEL_S = 0.0025


def calibration_kernel(clock: Callable[[], float] = time.perf_counter,
                       iterations: int = 40_000) -> float:
    """Seconds, by ``clock``, a fixed pure-Python loop takes: the host's
    speed now.

    It is the benchmark's own code and allocates no containers, so no
    change to the program (nor its garbage-collector settings) moves
    it; only the host does.
    """
    start = clock()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return clock() - start


def uses_cpu_time(workers: int) -> bool:
    """Whether runs and their probes are timed in CPU rather than wall
    time.

    In a worker pool the runs wait for a CPU at random: two workers and
    their journaling parent share two cores.  CPU time leaves those
    waits out (``wall_s`` keeps them); a serial pass has none, and wall
    time there also sees the host stealing its CPU.
    """
    return workers > 1


def probe_interval(workers: int) -> float:
    """Seconds between probes: after every run in a serial pass; in a
    worker pool, whose runs are short, at most every 50 ms per worker
    (about 5% of its time)."""
    return 0.0 if workers == 1 else 0.05


class SetupReached(BaseException):
    """Raised at the first campaign entry of a set-up-only pass.

    A ``BaseException`` so no crash-isolation boundary in the program
    (they catch ``Exception``) can swallow it.
    """


def payload_digest(payloads) -> str:
    """SHA-256 over the canonical JSON of a campaign's merged payloads."""
    text = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Recorder:
    """Per-process store of run records, counts and span aggregates."""

    def __init__(self, traced: bool, setup_only: bool, worker_dir: str,
                 setup_probes: Optional[List[float]] = None,
                 probe_every_s: Optional[float] = None,
                 probe_clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.traced = traced
        #: Probes bracketing set-up (the first taken before the imports);
        #: None when set-up is not calibrated.
        self.setup_probes = setup_probes
        #: Minimum seconds between host-speed probes; None: no probes.
        self.probe_every_s = probe_every_s
        self.probe_clock = probe_clock
        self.setup_only = setup_only
        self.worker_dir = worker_dir
        self.main_pid = os.getpid()
        self.t_setup: Optional[float] = None
        self.campaign: Optional[Dict[str, object]] = None
        #: Self time charged in worker processes, by layer (main only).
        self.worker_self_s: Dict[str, float] = defaultdict(float)
        self._after_fork()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        """A forked worker must not re-report the parent's records,
        which it inherited with the address space."""
        self._last_probe = float("-inf")
        self._reset()

    def _reset(self) -> None:
        """Forget the records already reported."""
        #: ``[pid, start, end, cpu_seconds]`` per simulation run.
        self.runs: List[list] = []
        self.counts: Dict[str, int] = dict.fromkeys(RUN_COUNTS, 0)
        #: Packets drained from traffic generators (traced passes).
        self.traffic_packets = 0
        #: ``[pid, time, seconds]`` per calibration-kernel probe: one
        #: before a process's first run, then after a run whenever
        #: ``probe_every_s`` has passed since the last.
        self.probes: List[list] = []
        #: Per layer: summed self time (s) and outermost call count.
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Open spans: [name, start, time covered by child spans].
        self._stack: List[list] = []
        self._run_depth = 0
        self._runners: list = []
        self._executors: list = []

    # -- spans ---------------------------------------------------------

    def inside(self, name: str) -> bool:
        """Whether a span of layer ``name`` is open."""
        return any(frame[0] == name for frame in self._stack)

    def open(self, name: str) -> None:
        """Start a span; calls count only the outermost of a layer."""
        if not self.inside(name):
            self.calls[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self) -> None:
        """End the innermost span and charge its self time."""
        end = time.perf_counter()
        name, start, child_s = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration

    # -- runs ------------------------------------------------------------

    def begin_run(self) -> tuple:
        """Mark a simulation run's start (build -> collect)."""
        self._run_depth += 1
        if self.probe_every_s is not None and \
                self._last_probe == float("-inf"):
            self.probe()
        if self.traced:
            self.open("exec.run")
        return time.perf_counter(), time.process_time()

    def end_run(self, start: tuple) -> None:
        """Close a run: its times and the counts its objects hold."""
        cpu_s = time.process_time() - start[1]
        end = time.perf_counter()
        if self.traced:
            self.close()
        self._run_depth -= 1
        if self._run_depth:
            return
        self.runs.append([os.getpid(), start[0], end, cpu_s])
        self.fold_counts()
        if self.probe_every_s is not None and \
                time.perf_counter() - self._last_probe >= self.probe_every_s:
            self.probe()
        if os.getpid() != self.main_pid:
            self.flush_worker()

    def probe(self) -> None:
        """Time the calibration kernel now, between runs."""
        self._last_probe = time.perf_counter()
        self.probes.append([os.getpid(), self._last_probe,
                            calibration_kernel(self.probe_clock)])

    def fold_counts(self) -> None:
        """Add the counts of every object registered since the last fold."""
        counts = self.counts
        for runner in self._runners:
            counts["events"] += runner.engine.events_processed
            counts["packets"] += runner.network.injected
            counts["delivered"] += len(runner.network.delivered)
            counts["dropped"] += len(runner.network.dropped)
            counts["pcie_crossings"] += runner.server.pcie.stats.crossings
        for executor in self._executors:
            counts["migration_attempts"] += len(executor.records)
            counts["migration_succeeded"] += len(executor.successes)
        self._runners.clear()
        self._executors.clear()

    def flush_worker(self) -> None:
        """Append this worker's records since the last flush to its file."""
        record = {"runs": self.runs, "probes": self.probes,
                  "counts": self.counts,
                  "traffic_packets": self.traffic_packets,
                  "self_s": dict(self.self_s), "calls": dict(self.calls)}
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self._reset()

    def merge_workers(self) -> None:
        """Fold every worker file into this (main) recorder."""
        for entry in sorted(os.listdir(self.worker_dir)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.worker_dir, entry)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    self.runs.extend(record["runs"])
                    self.probes.extend(record["probes"])
                    for key, value in record["counts"].items():
                        self.counts[key] += value
                    self.traffic_packets += record["traffic_packets"]
                    for key, value in record["self_s"].items():
                        self.worker_self_s[key] += value
                    for key, value in record["calls"].items():
                        self.calls[key] += value


# -- wrapper factories ----------------------------------------------------

def _span(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close()
    return wrapper


def _packets_span(recorder: Recorder, fn: Callable) -> Callable:
    """Drain ``TrafficGenerator.packets()`` inside a ``traffic.gen`` span."""
    @functools.wraps(fn)
    def wrapper(self):
        if recorder.inside("traffic.gen"):
            return fn(self)  # a subclass delegating to super().packets()
        recorder.open("traffic.gen")
        try:
            packets = list(fn(self))
        finally:
            recorder.close()
        recorder.traffic_packets += len(packets)
        return packets
    return wrapper


def _run(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = recorder.begin_run()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end_run(start)
    return wrapper


def _registering_init(recorder: Recorder, registry: str,
                      fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        getattr(recorder, registry).append(self)
    return wrapper


def _campaign_entry(recorder: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(campaign, *args, **kwargs):
        if recorder.t_setup is None:
            recorder.t_setup = time.perf_counter()
            if recorder.setup_probes:
                recorder.setup_probes.append(calibration_kernel())
            if recorder.setup_only:
                raise SetupReached()
        if recorder.traced:
            recorder.open("exec.campaign")
        try:
            outcome = fn(campaign, *args, **kwargs)
        finally:
            if recorder.traced:
                recorder.close()
        payloads = outcome.payloads
        recorder.campaign = {
            "kind": campaign.kind,
            "digest": payload_digest(payloads),
            "payloads": payloads,
        }
        return outcome
    return wrapper


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` in every loaded ``repro`` module namespace.

    Needed for functions that callers imported by name
    (``from ..exec import run_campaign``): patching only the defining
    module would leave those references pointing at the original.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _patch_method(cls, name: str, factory: Callable) -> None:
    setattr(cls, name, factory(cls.__dict__[name]))


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def install(recorder: Recorder, workload: str) -> None:
    """Wrap the program's public calls for ``workload``.

    Must run after the workload's modules are imported (the CLI imports
    some subcommand modules lazily; the pass imports them up front).
    """
    from repro.exec import driver
    from repro.migration.executor import MigrationExecutor
    from repro.sim.runner import SimulationRunner

    _replace_everywhere(driver.run_campaign,
                        _campaign_entry(recorder, driver.run_campaign))
    _patch_method(SimulationRunner, "__init__", functools.partial(
        _registering_init, recorder, "_runners"))
    _patch_method(MigrationExecutor, "__init__", functools.partial(
        _registering_init, recorder, "_executors"))

    if workload == "figure2":
        from repro.harness import experiment
        _replace_everywhere(experiment.run_experiment,
                            _run(recorder, experiment.run_experiment))
    else:
        from repro.chaos.runner import ChaosCampaign
        _patch_method(ChaosCampaign, "run_request",
                      functools.partial(_run, recorder))

    if recorder.traced:
        _install_spans(recorder)


def _install_spans(recorder: Recorder) -> None:
    """The layer-boundary spans of a traced pass (see LAYER_SPANS)."""
    from repro.checkpoint.journal import JournalWriter
    from repro.chaos import invariants as chaos_invariants
    from repro.chaos.runner import ChaosRunner, ChaosScenario
    from repro.core.operator import HardenedController
    from repro.core.planner import MigrationController
    from repro.harness.experiment import ExperimentScenario
    from repro.migration.executor import MigrationExecutor
    from repro.resilience.controller import ResilientController
    from repro.sim.engine import Engine
    from repro.sim.network import ChainNetwork
    from repro.traffic.generators import TrafficGenerator

    def span(name):
        return functools.partial(_span, recorder, name)

    # Scenario build: one per simulation run.
    _patch_method(ChaosRunner, "build_scenario", span("harness.build"))
    _patch_method(ExperimentScenario, "__init__", span("harness.build"))
    # Arrival generation and injection (the prepare step).
    for cls in _subclasses(TrafficGenerator):
        if "packets" in cls.__dict__:
            _patch_method(cls, "packets",
                          functools.partial(_packets_span, recorder))
    _patch_method(ChainNetwork, "inject_batch", span("sim.network.inject"))
    # Scheduler drain; everything below runs inside it as events.
    _patch_method(Engine, "run", span("sim.engine.run"))
    for cls in (MigrationController, HardenedController,
                ResilientController):
        _patch_method(cls, "on_tick", span("controller.tick"))
    _patch_method(MigrationExecutor, "apply", span("migration.apply"))
    # Collect and the end-state checks.
    for cls in (ChaosScenario, ExperimentScenario):
        _patch_method(cls, "collect", span("sim.runner.collect"))
    for fn in (chaos_invariants.check_invariants,
               chaos_invariants.check_resilience_invariants):
        _replace_everywhere(fn, _span(recorder, "chaos.invariants", fn))
    _patch_method(JournalWriter, "append", span("checkpoint.journal.append"))


#: Every span name a traced pass can record, with the public calls it
#: wraps; ``startup`` and ``import`` are measured around the pass's own
#: imports, not by a wrapper.
LAYER_SPANS = {
    "startup": "interpreter start until the pass script runs",
    "import": "importing repro and the workload's modules",
    "exec.campaign": "repro.exec.driver.run_campaign",
    "exec.run": "one simulation run (ChaosCampaign.run_request, "
                "harness.experiment.run_experiment)",
    "harness.build": "ChaosRunner.build_scenario, ExperimentScenario()",
    "traffic.gen": "draining TrafficGenerator.packets()",
    "sim.network.inject": "ChainNetwork.inject_batch",
    "sim.engine.run": "Engine.run",
    "controller.tick": "on_tick of MigrationController, "
                       "HardenedController, ResilientController",
    "migration.apply": "MigrationExecutor.apply",
    "sim.runner.collect": "collect() of the chaos and experiment "
                          "scenarios",
    "chaos.invariants": "chaos.invariants.check_invariants, "
                        "check_resilience_invariants",
    "checkpoint.journal.append": "JournalWriter.append",
}
