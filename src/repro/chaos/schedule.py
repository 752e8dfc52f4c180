"""Seeded chaos schedules: randomized fault compositions over a run.

A :class:`ChaosSchedule` is a deterministic function of (config, NF
names, seed): the same inputs always generate the same fault sequence,
so a chaos run that surfaces an invariant violation can be replayed
bit-identically from its seed alone — the property that makes chaos
testing a debugging tool rather than a flakiness generator.

Fault kinds composed (see :class:`repro.sim.faults.FaultInjector`):
NF crashes (including repeated crashes of the same NF), device
brownouts, PCIe link flaps, and telemetry dropouts.  Two resilience
kinds are off by default: permanent SmartNIC death (``device-kill``)
and sustained offered-load overload windows (``overload``, realised by
the scenario's traffic profile rather than the injector).
Migration failures are injected separately through the executor's
failure hook (:class:`repro.migration.executor.ProbabilisticFailure`)
because they strike migration *attempts*, not wall-clock times.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from ..chain.nf import DeviceKind
from ..errors import ConfigurationError
from ..sim.faults import FaultEvent, FaultInjector
from ..units import as_msec, usec


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs bounding what one randomized scenario may contain."""

    #: Simulated seconds per scenario.
    duration_s: float = 0.04
    #: Maximum faults drawn per kind (actual counts are seeded draws
    #: in ``[0, max]``; crashes may repeatedly hit the same NF).
    max_crashes: int = 3
    max_brownouts: int = 2
    max_pcie_flaps: int = 2
    max_telemetry_dropouts: int = 1
    #: Fault windows are drawn uniformly from this range.
    min_fault_duration_s: float = 0.002
    max_fault_duration_s: float = 0.008
    #: Brownout capacity scale is drawn from this range.
    brownout_scale_lo: float = 0.4
    brownout_scale_hi: float = 0.85
    #: PCIe flap extra latency is drawn from this range.
    flap_extra_lo_s: float = usec(20.0)
    flap_extra_hi_s: float = usec(200.0)
    #: Probability that any one migration attempt fails mid-transfer
    #: (fed to the executor's failure hook, not the schedule).
    migration_failure_rate: float = 0.3
    #: Resilience fault kinds, off by default.  They only consume RNG
    #: draws when enabled, so enabling them does not reshuffle the
    #: faults an existing seed produces with them off.
    max_device_kills: int = 0
    max_overload_windows: int = 0
    #: Peak rate an overload window forces (must exceed what any
    #: planner-reachable placement of the chain can carry).
    overload_peak_bps: float = 2.4e9
    #: Put a ResilientController (health FSM, evacuation, degradation
    #: ladder) in charge instead of the bare HardenedController, and
    #: check the resilience invariants too.
    resilient: bool = False

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        for count in (self.max_crashes, self.max_brownouts,
                      self.max_pcie_flaps, self.max_telemetry_dropouts,
                      self.max_device_kills, self.max_overload_windows):
            if count < 0:
                raise ConfigurationError("fault counts must be >= 0")
        if self.overload_peak_bps <= 0:
            raise ConfigurationError("overload peak must be positive")
        if not (0 < self.min_fault_duration_s <= self.max_fault_duration_s):
            raise ConfigurationError("invalid fault-duration range")
        if not (0.0 < self.brownout_scale_lo <=
                self.brownout_scale_hi < 1.0):
            raise ConfigurationError("brownout scales must be in (0, 1)")
        if not (0.0 < self.flap_extra_lo_s <= self.flap_extra_hi_s):
            raise ConfigurationError("invalid flap-latency range")
        if not (0.0 <= self.migration_failure_rate <= 1.0):
            raise ConfigurationError("failure rate must be in [0, 1]")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (journal fingerprinting and round-trip)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosConfig":
        """Inverse of :meth:`to_dict` (validates on construction)."""
        return cls(**data)


@dataclass(frozen=True)
class ChaosFault:
    """One scheduled fault."""

    kind: str  # crash | brownout | pcie-flap | telemetry-dropout
    #        | device-kill | overload
    at_s: float
    duration_s: float
    nf_name: Optional[str] = None
    device: Optional[DeviceKind] = None
    #: Brownout capacity scale or flap extra latency (seconds).
    magnitude: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form for reports."""
        out: Dict[str, object] = {
            "kind": self.kind, "at_s": self.at_s,
            "duration_s": self.duration_s}
        if self.nf_name is not None:
            out["nf"] = self.nf_name
        if self.device is not None:
            out["device"] = self.device.value
        if self.magnitude:
            out["magnitude"] = self.magnitude
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosFault":
        """Inverse of :meth:`as_dict` (journal round-trip)."""
        device = data.get("device")
        return cls(
            kind=str(data["kind"]),
            at_s=float(data["at_s"]),
            duration_s=float(data["duration_s"]),
            nf_name=data.get("nf"),
            device=DeviceKind(device) if device is not None else None,
            magnitude=float(data.get("magnitude", 0.0)))


@dataclass
class ChaosSchedule:
    """A seeded, time-ordered fault composition for one scenario."""

    seed: int
    config: ChaosConfig
    faults: List[ChaosFault] = field(default_factory=list)

    @classmethod
    def generate(cls, nf_names: Sequence[str],
                 config: ChaosConfig = ChaosConfig(),
                 seed: int = 0) -> "ChaosSchedule":
        """Draw a randomized fault composition, deterministic in ``seed``."""
        if not nf_names:
            raise ConfigurationError("need at least one NF to schedule faults")
        rng = random.Random(seed)
        duration = config.duration_s
        faults: List[ChaosFault] = []

        def window() -> tuple:
            # Start faults inside the run's middle so restores land
            # before the drain grace and startup isn't perturbed.
            length = rng.uniform(config.min_fault_duration_s,
                                 config.max_fault_duration_s)
            start = rng.uniform(0.1 * duration,
                                max(0.1 * duration, 0.85 * duration - length))
            return start, length

        for __ in range(rng.randint(0, config.max_crashes)):
            start, length = window()
            faults.append(ChaosFault(kind="crash", at_s=start,
                                     duration_s=length,
                                     nf_name=rng.choice(list(nf_names))))
        for __ in range(rng.randint(0, config.max_brownouts)):
            start, length = window()
            faults.append(ChaosFault(
                kind="brownout", at_s=start, duration_s=length,
                device=rng.choice([DeviceKind.SMARTNIC, DeviceKind.CPU]),
                magnitude=rng.uniform(config.brownout_scale_lo,
                                      config.brownout_scale_hi)))
        for __ in range(rng.randint(0, config.max_pcie_flaps)):
            start, length = window()
            faults.append(ChaosFault(
                kind="pcie-flap", at_s=start, duration_s=length,
                magnitude=rng.uniform(config.flap_extra_lo_s,
                                      config.flap_extra_hi_s)))
        for __ in range(rng.randint(0, config.max_telemetry_dropouts)):
            start, length = window()
            faults.append(ChaosFault(kind="telemetry-dropout", at_s=start,
                                     duration_s=length))
        # Resilience kinds draw only when enabled: a seed generates the
        # same composition as before this knob existed when max == 0.
        if config.max_device_kills:
            for __ in range(rng.randint(0, config.max_device_kills)):
                start, __length = window()
                # Permanent, and SmartNIC-only: the chain must survive
                # losing its accelerator (the CPU side also hosts the
                # egress endpoint, which is outside the failure model).
                faults.append(ChaosFault(
                    kind="device-kill", at_s=start, duration_s=0.0,
                    device=DeviceKind.SMARTNIC))
        if config.max_overload_windows:
            for __ in range(rng.randint(0, config.max_overload_windows)):
                start, length = window()
                faults.append(ChaosFault(
                    kind="overload", at_s=start, duration_s=length,
                    magnitude=config.overload_peak_bps))
        faults.sort(key=lambda f: f.at_s)
        return cls(seed=seed, config=config, faults=faults)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form for journal records."""
        return {
            "seed": self.seed,
            "config": self.config.to_dict(),
            "faults": [fault.as_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosSchedule":
        """Inverse of :meth:`to_dict` (journal round-trip)."""
        return cls(
            seed=int(data["seed"]),
            config=ChaosConfig.from_dict(data["config"]),
            faults=[ChaosFault.from_dict(fault)
                    for fault in data["faults"]])

    def describe(self) -> str:
        """One line per fault, for reports."""
        if not self.faults:
            return "(no faults drawn)"
        lines = []
        for fault in self.faults:
            target = fault.nf_name or \
                (fault.device.value if fault.device else "-")
            lines.append(f"{as_msec(fault.at_s):7.2f}ms  {fault.kind:<18} "
                         f"{target:<10} {as_msec(fault.duration_s):.2f}ms")
        return "\n".join(lines)


def apply_faults(faults: Sequence[ChaosFault],
                 injector: FaultInjector) -> List[FaultEvent]:
    """Install ``faults`` on ``injector``; overloads are skipped."""
    events = []
    for fault in faults:
        if fault.kind == "crash":
            events.append(injector.crash_nf(
                fault.nf_name, fault.at_s, fault.duration_s))
        elif fault.kind == "brownout":
            events.append(injector.brownout(
                fault.device, fault.at_s, fault.duration_s,
                fault.magnitude))
        elif fault.kind == "pcie-flap":
            events.append(injector.pcie_flap(
                fault.at_s, fault.duration_s, fault.magnitude))
        elif fault.kind == "telemetry-dropout":
            events.append(injector.telemetry_dropout(
                fault.at_s, fault.duration_s))
        elif fault.kind == "device-kill":
            events.append(injector.kill_device(fault.device, fault.at_s))
        elif fault.kind == "overload":
            # Realised by the runner's traffic profile, not the
            # injector: an overload is offered load, not a fault in
            # the data plane.
            continue
        else:  # pragma: no cover - generate() only emits the above
            raise ConfigurationError(f"unknown fault kind {fault.kind!r}")
    return events
