"""Offered-load time profiles."""

import pytest

from repro.errors import ConfigurationError
from repro.traffic.packet import FixedSize
from repro.traffic.patterns import (ProfiledArrivals, constant, diurnal,
                                    sawtooth, spike)
from repro.units import bits, gbps, mbps


class TestSpike:
    def test_base_outside_window(self):
        profile = spike(mbps(500), gbps(2.0), start_s=0.01, duration_s=0.005)
        assert profile(0.0) == mbps(500)
        assert profile(0.02) == mbps(500)

    def test_peak_inside_window(self):
        profile = spike(mbps(500), gbps(2.0), start_s=0.01, duration_s=0.005)
        assert profile(0.012) == gbps(2.0)

    def test_window_is_half_open(self):
        profile = spike(mbps(500), gbps(2.0), start_s=0.01, duration_s=0.005)
        assert profile(0.01) == gbps(2.0)
        assert profile(0.015) == mbps(500)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            spike(gbps(2.0), gbps(1.0), 0.0, 1.0)  # peak < base
        with pytest.raises(ConfigurationError):
            spike(mbps(1), mbps(2), 0.0, 0.0)  # empty window


class TestDiurnal:
    def test_oscillates_between_bounds(self):
        profile = diurnal(mbps(500), gbps(2.0), period_s=1.0)
        values = [profile(t / 100) for t in range(100)]
        assert min(values) == pytest.approx(mbps(500), rel=0.01)
        assert max(values) == pytest.approx(gbps(2.0), rel=0.01)

    def test_periodicity(self):
        profile = diurnal(mbps(500), gbps(2.0), period_s=0.5)
        assert profile(0.1) == pytest.approx(profile(0.6))


class TestSawtooth:
    def test_ramps_and_resets(self):
        profile = sawtooth(mbps(500), gbps(2.0), period_s=1.0)
        assert profile(0.0) == mbps(500)
        assert profile(0.999) == pytest.approx(gbps(2.0), rel=0.01)
        assert profile(1.0) == mbps(500)  # reset

    def test_monotone_within_period(self):
        profile = sawtooth(mbps(500), gbps(2.0), period_s=1.0)
        values = [profile(t / 10) for t in range(10)]
        assert values == sorted(values)


class TestConstant:
    def test_flat(self):
        profile = constant(gbps(1.0))
        assert profile(0.0) == profile(123.0) == gbps(1.0)

    def test_validated(self):
        with pytest.raises(ConfigurationError):
            constant(0.0)


class TestProfiledArrivals:
    def test_spike_generates_denser_arrivals(self):
        profile = spike(mbps(500), gbps(5.0), start_s=0.005, duration_s=0.005)
        gen = ProfiledArrivals(profile, FixedSize(256), duration_s=0.01,
                               seed=3, jitter=False)
        packets = list(gen.packets())
        before = sum(1 for p in packets if p.arrival_s < 0.005)
        during = sum(1 for p in packets if p.arrival_s >= 0.005)
        assert during > 3 * before

    def test_batched_stream_equals_scalar_loop(self):
        # The spike's rate changes mid-epoch, so chunks are cut at the
        # first timestamp that sees the new rate.
        profile = spike(gbps(1.0), gbps(4.0), start_s=0.002, duration_s=0.001)
        gen = ProfiledArrivals(profile, FixedSize(128), duration_s=0.008,
                               seed=9, jitter=False)
        batched = list(gen.packets())
        assert len(batched) > 2 * 4096
        assert batched == list(gen._packets_deterministic())

    def test_jitterless_profile_is_deterministic_cbr(self):
        gen = ProfiledArrivals(constant(gbps(1.0)), FixedSize(256),
                               duration_s=0.001, jitter=False)
        packets = list(gen.packets())
        gaps = {round(b.arrival_s - a.arrival_s, 12)
                for a, b in zip(packets, packets[1:])}
        assert len(gaps) == 1

    def test_mean_rate_of_constant_profile(self):
        gen = ProfiledArrivals(constant(gbps(1.0)), FixedSize(256),
                               duration_s=0.001)
        assert gen.mean_rate_bps() == pytest.approx(gbps(1.0))

    def test_mean_rate_of_spike_profile(self):
        profile = spike(gbps(1.0), gbps(3.0), start_s=0.0, duration_s=0.5)
        gen = ProfiledArrivals(profile, FixedSize(256), duration_s=1.0)
        assert gen.mean_rate_bps() == pytest.approx(gbps(2.0), rel=0.01)
