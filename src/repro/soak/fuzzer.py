"""The generative chaos fuzzer: seeded draws over the scenario space.

Where the chaos campaign varies only the fault schedule under one fixed
workload and config, the fuzzer draws **everything** a scenario is made
of from one seed: run duration, packet size, workload shape (spike base
and peak rates), planner policy (hardened vs resilient), migration
failure rate, and the fault schedule itself.  The drawn
:class:`~repro.chaos.scenario.SoakCase` (the same type a chaos run
builds) is fully explicit — the fault list is embedded, not
regenerated — and JSON round-trips bit-exact, which is what makes a
case the unit of currency for the shrinker and the reproducer format
(``docs/soak.md``).

``plant()`` deliberately corrupts a case for testing the pipeline: the
scenario applies a known end-state corruption (a conservation breach or
a protected-class shed) *iff* a fault of the planted trigger kind is
present, so the shrinker provably converges to the single trigger
event.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional, Tuple

from ..chain.nf import DeviceKind
from ..chaos.scenario import (BUG_CONSERVATION, BUG_PROTECTED_SHED,
                              PlantedBug, SoakCase)
from ..chaos.schedule import ChaosConfig, ChaosFault, ChaosSchedule
from ..errors import ConfigurationError
from ..harness.scenarios import figure1
from ..units import gbps

#: Shortest fault window the fuzzer (and the shrinker) will use.
MIN_FAULT_DURATION_S = 0.002


@dataclass(frozen=True)
class FuzzSpace:
    """Bounds of the fuzzer's draw — the campaign-level grammar.

    One ``FuzzSpace`` plus one seed fully determines a
    :class:`SoakCase`; the space is part of the campaign fingerprint so
    resumed journals are validated against the exact same draw.
    """

    #: Run duration range (simulated seconds).
    duration_lo_s: float = 0.008
    duration_hi_s: float = 0.024
    #: Candidate packet sizes (bytes).
    packet_sizes: Tuple[int, ...] = (256, 512, 1024)
    #: Spike workload: base and peak rate ranges (Gbit/s).
    base_gbps_lo: float = 1.0
    base_gbps_hi: float = 1.4
    peak_gbps_lo: float = 1.6
    peak_gbps_hi: float = 2.1
    #: Probability a drawn case runs the ResilientController stack.
    resilient_frac: float = 0.5
    #: Mid-transfer migration failure probability range.
    failure_rate_lo: float = 0.0
    failure_rate_hi: float = 0.5
    #: Per-kind fault caps (resilience kinds apply to resilient draws).
    max_crashes: int = 3
    max_brownouts: int = 2
    max_pcie_flaps: int = 2
    max_telemetry_dropouts: int = 1
    max_device_kills: int = 1
    max_overload_windows: int = 1

    def __post_init__(self) -> None:
        if not (0 < self.duration_lo_s <= self.duration_hi_s):
            raise ConfigurationError("invalid soak duration range")
        if not self.packet_sizes or \
                any(size <= 0 for size in self.packet_sizes):
            raise ConfigurationError("packet sizes must be positive")
        if not (0.0 < self.base_gbps_lo <= self.base_gbps_hi):
            raise ConfigurationError("invalid base-rate range")
        if not (0.0 < self.peak_gbps_lo <= self.peak_gbps_hi):
            raise ConfigurationError("invalid peak-rate range")
        if not (0.0 <= self.resilient_frac <= 1.0):
            raise ConfigurationError("resilient fraction must be in [0, 1]")
        if not (0.0 <= self.failure_rate_lo <= self.failure_rate_hi <= 1.0):
            raise ConfigurationError("invalid failure-rate range")
        for count in (self.max_crashes, self.max_brownouts,
                      self.max_pcie_flaps, self.max_telemetry_dropouts,
                      self.max_device_kills, self.max_overload_windows):
            if count < 0:
                raise ConfigurationError("fault caps must be >= 0")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (campaign fingerprint)."""
        out = asdict(self)
        out["packet_sizes"] = list(self.packet_sizes)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzSpace":
        """Inverse of :meth:`to_dict` (validates on construction)."""
        fields = dict(data)
        fields["packet_sizes"] = tuple(int(size)
                                       for size in fields["packet_sizes"])
        return cls(**fields)


def default_space(duration_cap_s: Optional[float] = None) -> FuzzSpace:
    """The stock space, optionally capped to short runs.

    Both the CLI and the crash-resume check build their space through
    this helper so a subprocess-written journal fingerprint always
    matches an in-process resume.
    """
    space = FuzzSpace()
    if duration_cap_s is None:
        return space
    if duration_cap_s <= 0:
        raise ConfigurationError("duration cap must be positive")
    return replace(space,
                   duration_lo_s=min(space.duration_lo_s, duration_cap_s),
                   duration_hi_s=duration_cap_s)


def _chain_nf_names():
    return [nf.name for nf in figure1().chain]


def generate_case(space: FuzzSpace, seed: int) -> SoakCase:
    """Draw one case — a pure function of ``(space, seed)``.

    Workload and policy knobs are drawn first from ``Random(seed)`` in
    a fixed order; the fault schedule is then drawn by
    :meth:`ChaosSchedule.generate` from its own ``Random(seed)``, so a
    case's faults match what a chaos campaign at the same seed and
    equivalent config would produce.
    """
    rng = random.Random(seed)
    duration_s = rng.uniform(space.duration_lo_s, space.duration_hi_s)
    packet_bytes = rng.choice(list(space.packet_sizes))
    base_bps = gbps(rng.uniform(space.base_gbps_lo, space.base_gbps_hi))
    peak_bps = gbps(rng.uniform(space.peak_gbps_lo, space.peak_gbps_hi))
    resilient = rng.random() < space.resilient_frac
    failure_rate = rng.uniform(space.failure_rate_lo,
                               space.failure_rate_hi)
    config = ChaosConfig(
        duration_s=duration_s,
        max_crashes=space.max_crashes,
        max_brownouts=space.max_brownouts,
        max_pcie_flaps=space.max_pcie_flaps,
        max_telemetry_dropouts=space.max_telemetry_dropouts,
        migration_failure_rate=failure_rate,
        max_device_kills=space.max_device_kills if resilient else 0,
        max_overload_windows=(space.max_overload_windows
                              if resilient else 0),
        resilient=resilient)
    schedule = ChaosSchedule.generate(_chain_nf_names(), config,
                                      seed=seed)
    return SoakCase(
        seed=seed,
        duration_s=duration_s,
        packet_bytes=packet_bytes,
        base_bps=base_bps,
        peak_bps=peak_bps,
        resilient=resilient,
        migration_failure_rate=failure_rate,
        faults=tuple(schedule.faults))


def _trigger_fault(kind: str, case: SoakCase) -> ChaosFault:
    """A mid-run fault of ``kind``, used to arm a planted bug."""
    at_s = 0.4 * case.duration_s
    duration_s = min(MIN_FAULT_DURATION_S, 0.25 * case.duration_s)
    if kind == "crash":
        return ChaosFault(kind="crash", at_s=at_s, duration_s=duration_s,
                          nf_name=_chain_nf_names()[0])
    if kind == "brownout":
        return ChaosFault(kind="brownout", at_s=at_s,
                          duration_s=duration_s,
                          device=DeviceKind.SMARTNIC, magnitude=0.6)
    if kind == "pcie-flap":
        return ChaosFault(kind="pcie-flap", at_s=at_s,
                          duration_s=duration_s, magnitude=100e-6)
    if kind == "telemetry-dropout":
        return ChaosFault(kind="telemetry-dropout", at_s=at_s,
                          duration_s=duration_s)
    if kind == "device-kill":
        # SmartNIC-only, matching the failure model in
        # ChaosSchedule.generate.
        return ChaosFault(kind="device-kill", at_s=at_s, duration_s=0.0,
                          device=DeviceKind.SMARTNIC)
    if kind == "overload":
        return ChaosFault(kind="overload", at_s=at_s,
                          duration_s=0.3 * case.duration_s,
                          magnitude=ChaosConfig().overload_peak_bps)
    raise ConfigurationError(f"unknown trigger kind {kind!r}")


def plant(case: SoakCase, bug: PlantedBug) -> SoakCase:
    """Arm ``bug`` in ``case``: ensure a trigger fault, mark the case.

    A protected-shed bug needs a shedder, so the case is forced
    resilient.  If the drawn schedule already contains a fault of the
    trigger kind nothing is added; otherwise one deterministic trigger
    fault lands mid-run.
    """
    faults = case.faults
    if not any(fault.kind == bug.trigger_kind for fault in faults):
        faults = faults + (_trigger_fault(bug.trigger_kind, case),)
    resilient = case.resilient or bug.bug == BUG_PROTECTED_SHED
    armed = replace(case, resilient=resilient, planted=bug)
    return armed.with_faults(faults)


def parse_plant(text: str) -> Tuple[int, PlantedBug]:
    """Parse the CLI's ``INDEX:BUG[:TRIGGER]`` plant directive."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigurationError(
            f"invalid plant directive {text!r} "
            "(expected INDEX:BUG[:TRIGGER])")
    try:
        index = int(parts[0])
    except ValueError:
        raise ConfigurationError(
            f"invalid plant index {parts[0]!r} (expected an integer)")
    if index < 0:
        raise ConfigurationError("plant index must be >= 0")
    trigger = parts[2] if len(parts) == 3 else "crash"
    return index, PlantedBug(bug=parts[1], trigger_kind=trigger)


__all__ = [
    "BUG_CONSERVATION", "BUG_PROTECTED_SHED", "MIN_FAULT_DURATION_S",
    "FuzzSpace", "PlantedBug", "SoakCase",
    "default_space", "generate_case", "parse_plant", "plant",
]
