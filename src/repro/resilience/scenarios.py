"""Canned resilience scenarios: the acceptance stories, runnable anywhere.

Two stories the paper cannot tell:

* **device-kill** — the Figure 1 chain rides a traffic spike when the
  SmartNIC dies outright mid-spike.  The health tracker declares the
  device failed, the recovery planner evacuates every NIC NF onto the
  CPU through the fault-tolerant executor, and the degradation ladder
  sheds whatever the survivor cannot carry until the spike passes.
* **overload** — offered load exceeds what *any* placement of the
  chain can sustain (no SmartNIC failure needed).  Push-aside alone
  cannot help; the ladder sheds exactly the low-priority class and the
  PAM loop then finds a feasible placement for the admitted load.

Both are seeded and fully deterministic — same seed, same packets shed,
same recovery timeline — which is what lets the CLI, the tests, and
``bench_resilience`` share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..chain.nf import DeviceKind
from ..checkpoint import (CheckpointManager, SimulationSnapshot,
                          SnapshotRegistry, resume_simulation,
                          simulation_registry)
from ..errors import ConfigurationError
from ..harness.scenarios import figure1
from ..sim.faults import FaultInjector
from ..sim.runner import SimulationResult, SimulationRunner, TickContext
from ..telemetry.recorder import TimeSeriesRecorder
from ..telemetry.resilience import (ResilienceStats,
                                    record_resilience_series,
                                    snapshot_resilience)
from ..traffic.packet import FixedSize
from ..traffic.patterns import ProfiledArrivals, constant, spike
from ..units import gbps
from .controller import (MONITOR_PERIOD_S, ResilienceConfig,
                         ResilientController, build_hardened_controller)

_PACKET_BYTES = 512

#: Offered load no placement the planner can navigate to carries (the
#: best border-move split sustains 2.0 Gbps; see
#: recovery.reachable_capacity_bps).
INFEASIBLE_LOAD_BPS = gbps(2.2)


@dataclass
class ResilienceScenarioResult:
    """One scenario run, with everything the CLI/bench/tests report."""

    name: str
    seed: int
    result: SimulationResult
    stats: ResilienceStats
    controller: ResilientController
    recorder: TimeSeriesRecorder
    #: Snapshot files written during the run (checkpointing enabled).
    checkpoints: List[str] = field(default_factory=list)

    @property
    def time_to_recover_s(self) -> Optional[float]:
        """Detection-to-terminal latency of the first recovery, if any."""
        for recovery in self.stats.recoveries:
            if recovery.time_to_recover_s is not None:
                return recovery.time_to_recover_s
        return None


class _RecordingController:
    """Tick adapter: run the resilient loop, then sample its series."""

    def __init__(self, inner: ResilientController,
                 recorder: TimeSeriesRecorder) -> None:
        self.inner = inner
        self.recorder = recorder

    @property
    def migrations(self):
        """Completed migrations (forwarded for SimulationResult)."""
        return self.inner.migrations

    def on_tick(self, context: TickContext) -> None:
        """Delegate, then record the post-decision ladder state."""
        self.inner.on_tick(context)
        record_resilience_series(self.recorder, context.now_s, self.inner)


def build_resilient_controller(
        config: ResilienceConfig = ResilienceConfig()) -> ResilientController:
    """The scenarios' hardened-PAM-plus-resilience control plane."""
    return ResilientController(
        build_hardened_controller(migration_budget=16), config)


class ResilienceScenario:
    """One wired resilience scenario (:class:`repro.exec.Scenario`).

    Building wires the Figure 1 chain, the recording resilient
    controller, the optional device-kill injector, and the optional
    snapshot machinery; ``prepare``/``run``/``collect`` are the three
    protocol phases the execution core drives.
    """

    def __init__(self, name: str, seed: int, generator: ProfiledArrivals,
                 controller: ResilientController,
                 kill_device: Optional[DeviceKind] = None,
                 kill_at_s: float = 0.0,
                 checkpoint_every: int = 0,
                 checkpoint_dir: Optional[str] = None,
                 resume_snapshot: Optional[str] = None) -> None:
        self.name = name
        self.seed = seed
        self.generator = generator
        self.controller = controller
        self.recorder = TimeSeriesRecorder()
        scenario = figure1()
        server = scenario.build_server()
        self.sim = SimulationRunner(
            server, generator,
            _RecordingController(controller, self.recorder),
            monitor_period_s=MONITOR_PERIOD_S)
        self.injector: Optional[FaultInjector] = None
        if kill_device is not None:
            self.injector = FaultInjector(self.sim.network,
                                          self.sim.engine, seed=seed)
            self.injector.kill_device(kill_device, kill_at_s)
        self._resume_snapshot = resume_snapshot
        registry: Optional[SnapshotRegistry] = None
        if checkpoint_every > 0 or resume_snapshot is not None:
            # Register the resilient controller itself, not the
            # recording wrapper: the series is rebuilt by replay.
            registry = simulation_registry(self.sim, controller=controller,
                                           injector=self.injector)
        self._registry = registry
        self._manager: Optional[CheckpointManager] = None
        if checkpoint_every > 0:
            if checkpoint_dir is None:
                raise ConfigurationError(
                    "checkpoint_every needs a checkpoint_dir to write to")
            self._manager = CheckpointManager(
                self.sim, registry, checkpoint_dir,
                every=checkpoint_every,
                meta={"scenario": name, "seed": seed,
                      "duration_s": generator.duration_s})
        self.result: Optional[SimulationResult] = None

    def prepare(self) -> None:
        """Build the seeded event population (or fast-forward to a
        snapshot's capture point when resuming)."""
        if self._resume_snapshot is not None:
            resume_simulation(
                SimulationSnapshot.load(self._resume_snapshot),
                self.sim, self._registry)
            self._resume_snapshot = None
            return
        self.sim.prepare()

    def run(self) -> SimulationResult:
        """Run the workload, then drain the engine to exhaustion.

        The drain lets recovery continuation pulses, retry backoffs,
        and queued packets settle before the end state is inspected.
        """
        self.prepare()
        self.result = self.sim.run()
        self.sim.engine.run()
        return self.result

    def collect(self) -> ResilienceScenarioResult:
        """Freeze the run's accounting for the CLI/bench/tests."""
        if self.result is None:
            raise ConfigurationError("collect() before run()")
        manager = self._manager
        return ResilienceScenarioResult(
            name=self.name, seed=self.seed, result=self.result,
            stats=snapshot_resilience(self.controller),
            controller=self.controller, recorder=self.recorder,
            checkpoints=list(manager.written) if manager is not None
            else [])


def _run(name: str, seed: int, generator: ProfiledArrivals,
         controller: ResilientController,
         kill_device: Optional[DeviceKind] = None,
         kill_at_s: float = 0.0,
         checkpoint_every: int = 0,
         checkpoint_dir: Optional[str] = None,
         resume_snapshot: Optional[str] = None
         ) -> ResilienceScenarioResult:
    scenario = ResilienceScenario(
        name, seed, generator, controller,
        kill_device=kill_device, kill_at_s=kill_at_s,
        checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir,
        resume_snapshot=resume_snapshot)
    scenario.prepare()
    scenario.run()
    return scenario.collect()


def run_device_kill(seed: int = 7, duration_s: float = 0.08,
                    config: ResilienceConfig = ResilienceConfig(),
                    checkpoint_every: int = 0,
                    checkpoint_dir: Optional[str] = None,
                    resume_snapshot: Optional[str] = None
                    ) -> ResilienceScenarioResult:
    """Kill the SmartNIC mid-spike; recover onto the CPU."""
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    profile = spike(base_bps=gbps(1.0), peak_bps=gbps(1.8),
                    start_s=0.2 * duration_s, duration_s=0.4 * duration_s)
    generator = ProfiledArrivals(profile, FixedSize(_PACKET_BYTES),
                                 duration_s=duration_s, seed=seed,
                                 jitter=False)
    return _run("device-kill", seed, generator,
                build_resilient_controller(config),
                kill_device=DeviceKind.SMARTNIC,
                kill_at_s=0.3 * duration_s,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=checkpoint_dir,
                resume_snapshot=resume_snapshot)


def run_overload_shed(seed: int = 7, duration_s: float = 0.06,
                      offered_bps: float = INFEASIBLE_LOAD_BPS,
                      config: ResilienceConfig = ResilienceConfig(),
                      checkpoint_every: int = 0,
                      checkpoint_dir: Optional[str] = None,
                      resume_snapshot: Optional[str] = None
                      ) -> ResilienceScenarioResult:
    """Sustained load beyond every placement; shed low priority only."""
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    generator = ProfiledArrivals(constant(offered_bps),
                                 FixedSize(_PACKET_BYTES),
                                 duration_s=duration_s, seed=seed,
                                 jitter=False)
    return _run("overload", seed, generator,
                build_resilient_controller(config),
                checkpoint_every=checkpoint_every,
                checkpoint_dir=checkpoint_dir,
                resume_snapshot=resume_snapshot)


SCENARIOS = {
    "device-kill": run_device_kill,
    "overload": run_overload_shed,
}


def run_scenario(name: str, seed: int = 7,
                 duration_s: Optional[float] = None,
                 config: Optional[ResilienceConfig] = None,
                 checkpoint_every: int = 0,
                 checkpoint_dir: Optional[str] = None,
                 resume_snapshot: Optional[str] = None
                 ) -> ResilienceScenarioResult:
    """Dispatch one named scenario (the CLI entry point)."""
    try:
        runner = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigurationError(
            f"unknown resilience scenario {name!r} (known: {known})") \
            from None
    kwargs = {"seed": seed, "checkpoint_every": checkpoint_every,
              "checkpoint_dir": checkpoint_dir,
              "resume_snapshot": resume_snapshot}
    if duration_s is not None:
        kwargs["duration_s"] = duration_s
    if config is not None:
        kwargs["config"] = config
    return runner(**kwargs)


def resume_scenario(path: str) -> ResilienceScenarioResult:
    """Resume a canned scenario from one of its snapshot files.

    The snapshot's meta block records which scenario, seed, and
    duration produced it, so the path is all a fresh process needs:
    the identical seeded scenario is rebuilt, fast-forwarded to the
    capture point, verified against the snapshot, and run to the end.
    """
    snapshot = SimulationSnapshot.load(path)
    meta = snapshot.meta
    name = str(meta.get("scenario", ""))
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"snapshot {path} does not name a known scenario "
            f"(meta: {meta})")
    return run_scenario(name, seed=int(meta["seed"]),
                        duration_s=float(meta["duration_s"]),
                        resume_snapshot=path)
