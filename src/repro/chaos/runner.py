"""Chaos runner: N randomized scenarios, zero tolerated violations.

Each scenario is a :class:`~repro.chaos.scenario.SoakCase` drawn from
its run seed — a random traffic spike plus a seeded
:class:`~repro.chaos.schedule.ChaosSchedule` of crashes, brownouts,
PCIe flaps, and telemetry dropouts — wired by the same
:meth:`~repro.chaos.scenario.FaultScenario.wire` the soak fuzzer uses:
the Figure 1 chain under the fault-tolerant
:class:`HardenedController` (stale-telemetry suppression, per-action
timeouts, retry/rollback, and a probabilistic mid-transfer
migration-failure hook).  It runs to full drain and is checked against
the :mod:`~repro.chaos.invariants`.  ``python -m repro chaos`` drives
it from the command line.

With ``ChaosConfig(resilient=True)`` the scenario puts a
:class:`~repro.resilience.ResilientController` in charge instead and
additionally checks the resilience invariants; the schedule may then
also draw permanent SmartNIC deaths (``max_device_kills``) and
sustained overload windows (``max_overload_windows``, realised by
overriding the traffic profile).

Determinism: scenario ``i`` depends only on ``seed + i``, so any
violating run replays exactly from its reported seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..exec import (Campaign, FaultInjectedCampaign, FaultPlan, RunRequest,
                    SupervisionPolicy, make_executor, register_campaign,
                    run_campaign, seed_for)
from ..harness.scenarios import figure1
from ..migration.executor import OUTCOME_SUCCEEDED
from ..units import gbps
from .invariants import (Violation, check_invariants,
                         check_resilience_invariants)
from .scenario import FaultScenario, SoakCase, run_guarded, worker_failure
from .schedule import ChaosConfig, ChaosSchedule

#: Packet size used by chaos scenarios (larger than the paper's 256 B
#: sweep point to keep the event count per scenario moderate).
_PACKET_BYTES = 512


@dataclass
class ChaosRunResult:
    """Everything one randomized scenario produced."""

    seed: int
    schedule: ChaosSchedule
    violations: List[Violation]
    injected: int
    delivered: int
    dropped: int
    fault_losses: int
    migrations: int
    attempts: int
    plans_aborted: int
    stale_ticks: int
    #: Resilience accounting (zero when the run is not resilient).
    shed: int = 0
    protected_shed: int = 0
    recoveries: int = 0
    abandoned: int = 0

    @property
    def ok(self) -> bool:
        """Whether the scenario upheld every invariant."""
        return not self.violations

    @classmethod
    def failed(cls, seed: int, schedule: ChaosSchedule,
               violation: Violation) -> "ChaosRunResult":
        """A zeroed result for a scenario that never finished."""
        return cls(seed=seed, schedule=schedule, violations=[violation],
                   injected=0, delivered=0, dropped=0, fault_losses=0,
                   migrations=0, attempts=0, plans_aborted=0,
                   stale_ticks=0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form for journal records.

        Every field round-trips bit-exact (ints, and floats via JSON's
        repr-based serialization), so a report merged from replayed
        records renders identically to the uninterrupted one.
        """
        return {
            "seed": self.seed,
            "schedule": self.schedule.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "injected": self.injected,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "fault_losses": self.fault_losses,
            "migrations": self.migrations,
            "attempts": self.attempts,
            "plans_aborted": self.plans_aborted,
            "stale_ticks": self.stale_ticks,
            "shed": self.shed,
            "protected_shed": self.protected_shed,
            "recoveries": self.recoveries,
            "abandoned": self.abandoned,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosRunResult":
        """Inverse of :meth:`to_dict` (journal replay)."""
        return cls(
            seed=int(data["seed"]),
            schedule=ChaosSchedule.from_dict(data["schedule"]),
            violations=[Violation.from_dict(v)
                        for v in data["violations"]],
            injected=int(data["injected"]),
            delivered=int(data["delivered"]),
            dropped=int(data["dropped"]),
            fault_losses=int(data["fault_losses"]),
            migrations=int(data["migrations"]),
            attempts=int(data["attempts"]),
            plans_aborted=int(data["plans_aborted"]),
            stale_ticks=int(data["stale_ticks"]),
            shed=int(data["shed"]),
            protected_shed=int(data["protected_shed"]),
            recoveries=int(data["recoveries"]),
            abandoned=int(data["abandoned"]))


@dataclass
class ChaosReport:
    """Aggregated outcome of a chaos campaign."""

    results: List[ChaosRunResult] = field(default_factory=list)

    @property
    def runs(self) -> int:
        """Number of scenarios in the campaign."""
        return len(self.results)

    @property
    def total_violations(self) -> int:
        """Invariant violations summed over every scenario."""
        return sum(len(r.violations) for r in self.results)

    @property
    def ok(self) -> bool:
        """Whether every scenario upheld every invariant."""
        return self.total_violations == 0

    def render(self) -> str:
        """A per-run summary plus any violations, for the CLI."""
        lines = [f"{'seed':>6} {'faults':>6} {'inj':>7} {'dlv':>7} "
                 f"{'drop':>6} {'shed':>6} {'migr':>5} {'att':>4} "
                 f"{'abrt':>4} {'stale':>5} {'recov':>5}  status"]
        for r in self.results:
            status = "ok" if r.ok else f"{len(r.violations)} VIOLATIONS"
            lines.append(
                f"{r.seed:>6} {len(r.schedule.faults):>6} {r.injected:>7} "
                f"{r.delivered:>7} {r.dropped:>6} {r.shed:>6} "
                f"{r.migrations:>5} {r.attempts:>4} {r.plans_aborted:>4} "
                f"{r.stale_ticks:>5} {r.recoveries:>5}  {status}")
        for r in self.results:
            for violation in r.violations:
                lines.append(f"seed {r.seed}: {violation}")
        verdict = ("all invariants held" if self.ok
                   else f"{self.total_violations} invariant violations")
        lines.append(f"{self.runs} chaos scenarios: {verdict}")
        return "\n".join(lines)


@dataclass
class ChaosScenario(FaultScenario):
    """One wired chaos run: a :class:`SoakCase` drawn from the run seed,
    plus the schedule its report shows."""

    schedule: ChaosSchedule

    def collect(self) -> ChaosRunResult:
        """Aggregate the drained end state and check every invariant."""
        if self.result is None:
            raise ConfigurationError("collect() before run()")
        sim = self.sim
        server = sim.server
        hardened = self.hardened
        resilient = self.resilient
        violations = check_invariants(sim.network, server,
                                      hardened.executor)
        if resilient is not None:
            violations.extend(check_resilience_invariants(
                resilient,
                resilient.config.degradation.max_shed_fraction))
        records = hardened.executor.records if hardened.executor else []
        outcomes = hardened.executor.outcomes if hardened.executor else []
        return ChaosRunResult(
            seed=self.case.seed,
            schedule=self.schedule,
            violations=violations,
            injected=self.result.injected,
            delivered=len(sim.network.delivered),
            dropped=len(sim.network.dropped),
            fault_losses=self.injector.total_lost,
            migrations=len([r for r in records
                            if r.outcome == OUTCOME_SUCCEEDED]),
            attempts=len(records),
            plans_aborted=len([o for o in outcomes if not o.succeeded]),
            stale_ticks=hardened.stale_ticks,
            shed=resilient.shedder.shed_packets if resilient else 0,
            protected_shed=resilient.shedder.protected_shed_packets()
            if resilient else 0,
            recoveries=len(resilient.recoveries) if resilient else 0,
            abandoned=resilient.abandoned_packets if resilient else 0)


class ChaosRunner:
    """Drives ``runs`` randomized scenarios and collects violations.

    With ``journal_path`` set, campaign progress is logged to a
    write-ahead journal (append-only JSONL, fsync'd per record): a
    ``campaign-start`` fingerprint, one ``run-result`` per completed
    scenario, a ``campaign-progress`` digest every ``checkpoint_every``
    executed runs, and a ``campaign-end`` marker.  ``resume_from``
    replays the completed runs out of such a journal — each is restored
    bit-exact from its record instead of re-simulated — and the campaign
    continues from the first run the journal does not cover.
    """

    def __init__(self, runs: int = 20, seed: int = 7,
                 config: Optional[ChaosConfig] = None,
                 journal_path: Optional[str] = None,
                 resume_from: Optional[str] = None,
                 checkpoint_every: int = 5,
                 workers: int = 1,
                 supervision: Optional[SupervisionPolicy] = None,
                 worker_faults: Optional[FaultPlan] = None) -> None:
        if runs < 1:
            raise ConfigurationError("need at least one chaos run")
        if checkpoint_every < 1:
            raise ConfigurationError("checkpoint interval must be >= 1")
        if workers < 1:
            raise ConfigurationError("worker count must be >= 1")
        self.runs = runs
        self.seed = seed
        self.config = config or ChaosConfig()
        #: Journal to append to; defaults to the resume source so an
        #: interrupted campaign keeps extending the same history.
        self.journal_path = journal_path or resume_from
        self.resume_from = resume_from
        self.checkpoint_every = checkpoint_every
        self.workers = workers
        #: Supervision (deadlines/retry/abort budget); None = defaults.
        self.supervision = supervision
        #: Scheduled worker-level faults (hang/die/garbage/error), for
        #: exercising the supervisor; None = no sabotage.
        self.worker_faults = worker_faults
        #: Runs restored from the journal by the last :meth:`run` call.
        self.replayed_runs = 0

    def run(self) -> ChaosReport:
        """Run every scenario; never raises on violations (report them).

        Delegates the loop, journal middleware, and merge to
        :func:`repro.exec.run_campaign`; this runner only knows how to
        execute one scenario and how to shape the report.
        """
        campaign: Campaign = ChaosCampaign(self)
        if self.worker_faults is not None and self.worker_faults.faults:
            campaign = FaultInjectedCampaign(campaign, self.worker_faults)
        outcome = run_campaign(
            campaign,
            executor=make_executor(self.workers, self.supervision),
            journal_path=self.journal_path, resume_from=self.resume_from,
            checkpoint_every=self.checkpoint_every)
        self.replayed_runs = outcome.replayed
        return ChaosReport(results=[ChaosRunResult.from_dict(payload)
                                    for payload in outcome.payloads])

    def run_one(self, run_seed: int) -> ChaosRunResult:
        """One fully seeded scenario: traffic, faults, control, checks.

        A scenario that raises is recorded as a ``scenario-error``
        violation (:func:`~repro.chaos.scenario.run_guarded`) instead of
        aborting the campaign.
        """
        schedule = self.schedule_for(run_seed)
        return run_guarded(
            lambda: self.build_scenario(run_seed, schedule),
            lambda violation: ChaosRunResult.failed(run_seed, schedule,
                                                    violation))

    def schedule_for(self, run_seed: int) -> ChaosSchedule:
        """The seeded fault schedule of run ``run_seed``."""
        return ChaosSchedule.generate(
            [nf.name for nf in figure1().chain], self.config,
            seed=run_seed)

    def build_scenario(self, run_seed: int,
                       schedule: Optional[ChaosSchedule] = None
                       ) -> ChaosScenario:
        """Wire one seeded scenario, faults applied but not yet run.

        The run is a :class:`SoakCase`: its spike rates are drawn from
        ``random.Random(run_seed)``, its faults are the seeded schedule,
        and the rest comes from the config.
        """
        if schedule is None:
            schedule = self.schedule_for(run_seed)
        rng = random.Random(run_seed)
        case = SoakCase(
            seed=run_seed, duration_s=self.config.duration_s,
            packet_bytes=_PACKET_BYTES,
            base_bps=gbps(rng.uniform(1.0, 1.4)),
            peak_bps=gbps(rng.uniform(1.6, 2.1)),
            resilient=self.config.resilient,
            migration_failure_rate=self.config.migration_failure_rate,
            faults=tuple(schedule.faults))
        return ChaosScenario.wire(case, schedule=schedule)


@register_campaign
class ChaosCampaign(Campaign):
    """The chaos campaign grid: ``runs`` seeded scenarios, one config.

    Payloads are :meth:`ChaosRunResult.to_dict` records — exactly what
    the journal has always stored, so pre-existing chaos journals keep
    resuming.  Workers rebuild the campaign (and its runner) from the
    ``runs``/``seed``/``config`` spec alone.
    """

    kind = "chaos"
    description = ("seeded fault schedules against the hardened (or "
                   "resilient) controller with invariant checks")

    def __init__(self, runner: ChaosRunner) -> None:
        self.runner = runner

    def fingerprint(self) -> Dict[str, object]:
        """Campaign identity: runs, base seed, and the full config."""
        return {"runs": self.runner.runs, "seed": self.runner.seed,
                "config": self.runner.config.to_dict()}

    def spec(self) -> Dict[str, object]:
        """Everything a worker needs to rebuild this campaign."""
        return self.fingerprint()

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "ChaosCampaign":
        """Rebuild from :meth:`spec` (worker-side construction)."""
        return cls(ChaosRunner(
            runs=int(spec["runs"]), seed=int(spec["seed"]),
            config=ChaosConfig.from_dict(spec["config"])))

    def requests(self) -> List[RunRequest]:
        """Scenario ``i`` runs at ``seed_for(seed, i)`` — ``seed + i``."""
        return [RunRequest(index=index,
                           seed=seed_for(self.runner.seed, index))
                for index in range(self.runner.runs)]

    def run_request(self, request: RunRequest) -> Dict[str, object]:
        """One scenario; crashes inside become scenario-error results."""
        return self.runner.run_one(request.seed).to_dict()

    def error_payload(self, request: RunRequest, error: str,
                      details: Optional[Dict[str, object]] = None
                      ) -> Dict[str, object]:
        """Crash isolation: a dead worker's run is itself a violation."""
        return ChaosRunResult.failed(
            request.seed, self.runner.schedule_for(request.seed),
            worker_failure(error, details)).to_dict()

    def end_record(self, payloads: List[Dict[str, object]]
                   ) -> Dict[str, object]:
        """Campaign totals, matching the established journal schema."""
        return {"runs": self.runner.runs,
                "violations": sum(len(payload["violations"])
                                  for payload in payloads)}
