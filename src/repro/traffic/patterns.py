"""Offered-load time profiles.

Where :mod:`repro.traffic.generators` produces individual packets, this
module describes *macroscopic* load-vs-time shapes for the planner-level
experiments: a spike that overloads the SmartNIC (the paper's trigger
scenario), a diurnal curve, and a sawtooth for repeated
overload/recovery cycles.  A profile maps time to target rate; the
:class:`ProfiledArrivals` generator renders any profile into packets.
"""

from __future__ import annotations

import math
import random
from itertools import repeat
from typing import Callable, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from ..units import bits
from .flows import FlowTable
from .generators import _BATCH_PACKETS, _numpy_stream, TrafficGenerator
from .generators import numpy as _np
from .packet import FixedSize, Packet, SizeDistribution

RateProfile = Callable[[float], float]


def spike(base_bps: float, peak_bps: float, start_s: float,
          duration_s: float) -> RateProfile:
    """A rectangular load spike: ``base`` except ``peak`` during the window.

    This is the canonical overload trigger: the chain runs happily at
    ``base`` until the spike pushes the SmartNIC past capacity and the
    operator's monitor fires.
    """
    if base_bps <= 0 or peak_bps < base_bps:
        raise ConfigurationError("need 0 < base <= peak")
    if duration_s <= 0:
        raise ConfigurationError("spike duration must be positive")

    def profile(t_s: float) -> float:
        return peak_bps if start_s <= t_s < start_s + duration_s else base_bps

    if _np is not None:
        end_s = start_s + duration_s

        def rates(t_s: "_np.ndarray") -> "_np.ndarray":
            """Vectorised ``profile`` over an array of times.

            Element-for-element identical to the scalar closure (same
            comparisons, same constant rates), which lets the batched
            arrival renderer validate a whole chunk of timestamps in
            one call — see ``ProfiledArrivals._packets_profiled_batched``.
            """
            return _np.where((t_s >= start_s) & (t_s < end_s),
                             peak_bps, base_bps)

        profile.rates = rates
    return profile


def diurnal(low_bps: float, high_bps: float, period_s: float) -> RateProfile:
    """A sinusoidal day/night load curve with the given period."""
    if low_bps <= 0 or high_bps < low_bps:
        raise ConfigurationError("need 0 < low <= high")
    if period_s <= 0:
        raise ConfigurationError("period must be positive")
    mid = (low_bps + high_bps) / 2.0
    amp = (high_bps - low_bps) / 2.0

    def profile(t_s: float) -> float:
        return mid + amp * math.sin(2 * math.pi * t_s / period_s)

    return profile


def sawtooth(low_bps: float, high_bps: float, period_s: float) -> RateProfile:
    """Load ramps low->high each period then resets (repeated overloads)."""
    if low_bps <= 0 or high_bps < low_bps:
        raise ConfigurationError("need 0 < low <= high")
    if period_s <= 0:
        raise ConfigurationError("period must be positive")

    def profile(t_s: float) -> float:
        frac = (t_s % period_s) / period_s
        return low_bps + frac * (high_bps - low_bps)

    return profile


def constant(rate_bps: float) -> RateProfile:
    """A flat profile (useful to compose with the same machinery)."""
    if rate_bps <= 0:
        raise ConfigurationError("rate must be positive")
    profile = lambda t_s: rate_bps
    if _np is not None:
        profile.rates = lambda t_s: _np.full(len(t_s), rate_bps)
    return profile


class ProfiledArrivals(TrafficGenerator):
    """Packets whose instantaneous rate follows a :data:`RateProfile`."""

    def __init__(self, profile: RateProfile, size_dist: SizeDistribution,
                 duration_s: float, seed: int = 1,
                 jitter: bool = True,
                 flow_table: Optional[FlowTable] = None) -> None:
        super().__init__(size_dist, duration_s, seed, flow_table)
        self.profile = profile
        self.jitter = jitter

    def _interarrival(self, rng: random.Random, now_s: float,
                      frame_bytes: int) -> float:
        rate = self.profile(now_s)
        if rate <= 0:
            raise ConfigurationError(f"profile returned non-positive rate at t={now_s}")
        mean_gap = bits(frame_bytes) / rate
        if not self.jitter:
            return mean_gap
        return rng.expovariate(1.0 / mean_gap)

    def packets(self) -> Iterator[Packet]:
        """Generate the stream; jitter-free profiles use a tight loop.

        With ``jitter=False`` the gap is pure arithmetic on the profile
        (the only random draw per packet is the flow pick), and the
        soak campaigns inject millions of packets through exactly this
        case — so it runs with everything in locals and no generic
        ``_interarrival`` dispatch.  The arithmetic matches the base
        loop expression for expression.
        """
        if self.jitter:
            return super().packets()
        if (_np is not None and isinstance(self.size_dist, FixedSize)
                and getattr(self.profile, "rates", None) is not None):
            return self._packets_profiled_batched()
        return self._packets_deterministic()

    def _packets_profiled_batched(self) -> Iterator[Packet]:
        """Chunked :meth:`_packets_deterministic` for vectorisable profiles.

        Each chunk assumes the rate seen at its first packet and builds
        timestamps as one exact running sum (``cumsum`` adds left to
        right, matching the scalar ``now += gap`` accumulation bit for
        bit).  The profile's vectorised ``rates`` then validates the
        chunk: a timestamp is exact as long as every *earlier* one
        still saw the chunk rate, so the prefix up to and including the
        first differing index is kept and the next chunk restarts from
        there at the new rate.  Flow picks draw one MT19937 batch per
        chunk, one uniform per emitted packet, exactly as the scalar
        loop consumes them.
        """
        size = self.size_dist.size_bytes
        size_bits = size * 8.0
        duration = self.duration_s
        profile = self.profile
        rates = profile.rates
        flow_table = self.flow_table
        stream = _numpy_stream(random.Random(self.seed))
        now = 0.0
        seq = 0
        while True:
            rate = profile(now)
            if rate <= 0:
                raise ConfigurationError(
                    f"profile returned non-positive rate at t={now}")
            gap = size_bits / rate
            gaps = _np.full(_BATCH_PACKETS, gap)
            gaps[0] = now + gap
            times = _np.cumsum(gaps)
            differs = _np.nonzero(rates(times) != rate)[0]
            valid = int(differs[0]) + 1 if differs.size else _BATCH_PACKETS
            n = int(_np.searchsorted(times[:valid], duration, side="left"))
            if n:
                flows = flow_table.pick_flows(stream.random_sample(n))
                yield from map(Packet, range(seq, seq + n), repeat(size),
                               times[:n].tolist(), flows.tolist())
                seq += n
            if n < valid:
                # A timestamp inside the exact prefix reached the
                # horizon: the scalar loop would stop right there.
                return
            now = float(times[valid - 1])

    def _packets_deterministic(self) -> Iterator[Packet]:
        rng = random.Random(self.seed)
        sample = self.size_dist.sample
        profile = self.profile
        duration = self.duration_s
        pick = self.flow_table.pick_flow
        now = 0.0
        seq = 0
        while True:
            size = sample(rng)
            rate = profile(now)
            if rate <= 0:
                raise ConfigurationError(
                    f"profile returned non-positive rate at t={now}")
            now += (size * 8.0) / rate
            if now >= duration:
                return
            yield Packet(seq=seq, size_bytes=size, arrival_s=now,
                         flow_id=pick(rng))
            seq += 1

    def mean_rate_bps(self) -> float:
        """Numerical average of the profile over the horizon."""
        # Numerical average over the horizon; 1000 samples is plenty for
        # the smooth profiles above.
        samples = 1000
        total = sum(self.profile(self.duration_s * i / samples)
                    for i in range(samples))
        return total / samples
