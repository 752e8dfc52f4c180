"""One wiring path for every fault scenario: a case in, a scenario out.

A :class:`SoakCase` is a fully explicit fault scenario — run duration,
packet size, spike shape, policy, migration failure rate, and the fault
list itself — and JSON round-trips bit-exact.  The chaos campaign draws
one per run seed (:meth:`repro.chaos.runner.ChaosRunner.build_scenario`),
the soak fuzzer draws one per fuzz seed
(:func:`repro.soak.fuzzer.generate_case`), and the shrinker edits one;
all of them wire it through :meth:`FaultScenario.wire`: the Figure 1
chain, the seeded spike (overridden inside overload windows), the
hardened controller (optionally wrapped by the resilient one), and the
fault injector.  :class:`FaultScenario` carries the shared
``prepare``/``run`` phases; each campaign kind subclasses it with its
own ``collect`` view.

:func:`run_guarded` is the one place a crashing scenario becomes a
``scenario-error`` violation instead of a campaign abort.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple, Type, TypeVar

from ..core.operator import HardenedController
from ..errors import ConfigurationError
from ..exec.errinfo import exception_payload
from ..harness.scenarios import figure1
from ..migration.executor import ProbabilisticFailure
from ..resilience.controller import (MONITOR_PERIOD_S, ResilienceConfig,
                                     ResilientController,
                                     build_hardened_controller)
from ..sim.faults import FaultInjector
from ..sim.runner import SimulationResult, SimulationRunner
from ..traffic.generators import numpy as _np
from ..traffic.packet import FixedSize
from ..traffic.patterns import ProfiledArrivals, RateProfile, spike
from .invariants import Violation
from .schedule import ChaosFault, apply_faults

#: Planted bug classes (see :class:`PlantedBug`).
BUG_CONSERVATION = "conservation"
BUG_PROTECTED_SHED = "protected-shed"
_BUGS = (BUG_CONSERVATION, BUG_PROTECTED_SHED)

#: Fault kinds a planted bug may use as its trigger.
_TRIGGER_KINDS = ("crash", "brownout", "pcie-flap", "telemetry-dropout",
                  "device-kill", "overload")


@dataclass(frozen=True)
class PlantedBug:
    """A deliberate corruption for pipeline tests (never the default).

    ``bug`` names the corruption the scenario applies
    (:data:`BUG_CONSERVATION` un-records one delivered packet;
    :data:`BUG_PROTECTED_SHED` bumps a protected class's shed
    counter); ``trigger_kind`` names the fault kind whose presence
    arms it — the corruption fires iff the case schedule contains at
    least one fault of that kind, which is exactly what makes the
    shrunk reproducer 1-minimal.
    """

    bug: str
    trigger_kind: str = "crash"

    def __post_init__(self) -> None:
        if self.bug not in _BUGS:
            raise ConfigurationError(
                f"unknown planted bug {self.bug!r} "
                f"(known: {', '.join(_BUGS)})")
        if self.trigger_kind not in _TRIGGER_KINDS:
            raise ConfigurationError(
                f"unknown trigger kind {self.trigger_kind!r} "
                f"(known: {', '.join(_TRIGGER_KINDS)})")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (case round-trip)."""
        return {"bug": self.bug, "trigger_kind": self.trigger_kind}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PlantedBug":
        """Inverse of :meth:`to_dict`."""
        return cls(bug=str(data["bug"]),
                   trigger_kind=str(data["trigger_kind"]))


@dataclass(frozen=True)
class SoakCase:
    """One fully drawn scenario — everything needed to replay it.

    The case embeds its entire fault list rather than a seed to
    regenerate it from: the shrinker edits that list directly and the
    edited case still replays bit-exact.
    """

    seed: int
    duration_s: float
    packet_bytes: int
    base_bps: float
    peak_bps: float
    spike_start_frac: float = 0.2
    spike_frac: float = 0.4
    resilient: bool = False
    migration_failure_rate: float = 0.3
    faults: Tuple[ChaosFault, ...] = ()
    planted: Optional[PlantedBug] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (journal payloads and reproducers)."""
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "packet_bytes": self.packet_bytes,
            "base_bps": self.base_bps,
            "peak_bps": self.peak_bps,
            "spike_start_frac": self.spike_start_frac,
            "spike_frac": self.spike_frac,
            "resilient": self.resilient,
            "migration_failure_rate": self.migration_failure_rate,
            "faults": [fault.as_dict() for fault in self.faults],
            "planted": self.planted.to_dict() if self.planted else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SoakCase":
        """Inverse of :meth:`to_dict` (reproducer replay)."""
        planted = data.get("planted")
        return cls(
            seed=int(data["seed"]),
            duration_s=float(data["duration_s"]),
            packet_bytes=int(data["packet_bytes"]),
            base_bps=float(data["base_bps"]),
            peak_bps=float(data["peak_bps"]),
            spike_start_frac=float(data["spike_start_frac"]),
            spike_frac=float(data["spike_frac"]),
            resilient=bool(data["resilient"]),
            migration_failure_rate=float(data["migration_failure_rate"]),
            faults=tuple(ChaosFault.from_dict(fault)
                         for fault in data["faults"]),
            planted=PlantedBug.from_dict(planted) if planted else None)

    def with_faults(self, faults) -> "SoakCase":
        """The same case with a different (time-sorted) fault list."""
        ordered = tuple(sorted(faults, key=lambda f: f.at_s))
        return replace(self, faults=ordered)


def case_profile(case: SoakCase) -> RateProfile:
    """The case's spike, overridden inside any overload windows."""
    base = spike(base_bps=case.base_bps, peak_bps=case.peak_bps,
                 start_s=case.spike_start_frac * case.duration_s,
                 duration_s=case.spike_frac * case.duration_s)
    overloads = [fault for fault in case.faults
                 if fault.kind == "overload"]
    if not overloads:
        return base

    def profile(t_s: float) -> float:
        rate = base(t_s)
        for window in overloads:
            if window.at_s <= t_s < window.at_s + window.duration_s:
                rate = max(rate, window.magnitude)
        return rate

    base_rates = getattr(base, "rates", None)
    if base_rates is not None and _np is not None:

        def rates(t_s: "_np.ndarray") -> "_np.ndarray":
            """Vectorised overlay, element-identical to ``profile``."""
            rate = base_rates(t_s)
            for window in overloads:
                _np.maximum(rate, window.magnitude, out=rate,
                            where=((t_s >= window.at_s)
                                   & (t_s < window.at_s + window.duration_s)))
            return rate

        profile.rates = rates
    return profile


_S = TypeVar("_S", bound="FaultScenario")


@dataclass
class FaultScenario:
    """One wired case: faults applied, not yet run.

    Implements the :class:`repro.exec.Scenario` protocol's
    ``prepare``/``run``; subclasses supply ``collect``.  Exposed so
    checkpoint tests and the crash-resume check can build the
    *identical* seeded scenario a campaign would run, snapshot it
    mid-flight, and resume it in a fresh process.
    """

    case: SoakCase
    sim: SimulationRunner
    hardened: HardenedController
    resilient: Optional[ResilientController]
    injector: FaultInjector
    #: Set by :meth:`run`; consumed by ``collect``.
    result: Optional[SimulationResult] = field(default=None, init=False)

    @classmethod
    def wire(cls: Type[_S], case: SoakCase, **extra: object) -> _S:
        """Wire ``case`` onto a fresh Figure 1 server; ``extra`` goes
        to the subclass's own fields."""
        generator = ProfiledArrivals(case_profile(case),
                                     FixedSize(case.packet_bytes),
                                     duration_s=case.duration_s,
                                     seed=case.seed, jitter=False)
        hardened = build_hardened_controller(
            failure_hook=ProbabilisticFailure(case.migration_failure_rate,
                                              seed=case.seed))
        resilient = (ResilientController(hardened, ResilienceConfig())
                     if case.resilient else None)
        sim = SimulationRunner(
            figure1().build_server(), generator,
            resilient if resilient is not None else hardened,
            monitor_period_s=MONITOR_PERIOD_S)
        injector = FaultInjector(sim.network, sim.engine, seed=case.seed)
        apply_faults(case.faults, injector)
        return cls(case=case, sim=sim, hardened=hardened,
                   resilient=resilient, injector=injector, **extra)

    def prepare(self) -> None:
        """Inject the seeded workload and arm the monitor (idempotent)."""
        self.sim.prepare()

    def run(self) -> SimulationResult:
        """Run the workload, then drain the engine to exhaustion.

        The drain matters: fault restores, retry backoffs, and packet
        events past the horizon must all land before the invariant
        checks inspect the end state.  After it, packets still stranded
        on a killed device go through the resilient controller's
        abandonment path.
        """
        self.result = self.sim.run()
        self.sim.engine.run()
        if self.resilient is not None:
            self.resilient.abandon_stranded(self.sim.engine.now_s)
        return self.result

    def collect(self) -> object:
        """The campaign kind's view of the drained end state."""
        raise NotImplementedError


_R = TypeVar("_R")


def run_guarded(build: Callable[[], FaultScenario],
                on_error: Callable[[Violation], _R]) -> _R:
    """Build → prepare → run → collect; a crash becomes a violation.

    A scenario that *raises* is itself a finding (``scenario-error``,
    with the structured exception payload attached) handed to
    ``on_error`` — a fault harness that crashes on the bug it was built
    to surface would be reporting exit-code luck, not invariants.
    """
    try:
        scenario = build()
        scenario.prepare()
        scenario.run()
        return scenario.collect()
    # A faithfully-reporting top-level boundary: the crash becomes a
    # recorded violation, never a swallowed one.
    except Exception as exc:  # repro: noqa[EXC402]
        return on_error(Violation(
            "scenario-error",
            f"scenario raised {type(exc).__name__}: {exc}",
            data=exception_payload(exc)))


def worker_failure(error: str,
                   details: Optional[Dict[str, object]] = None) -> Violation:
    """The ``scenario-error`` for a run whose worker never reported."""
    return Violation("scenario-error", f"worker failed: {error}",
                     data=details)


__all__ = [
    "BUG_CONSERVATION", "BUG_PROTECTED_SHED",
    "FaultScenario", "PlantedBug", "SoakCase",
    "case_profile", "run_guarded", "worker_failure",
]
