"""Arrival-process generators: rates, determinism, shapes."""

import pytest

from repro.errors import ConfigurationError
from repro.traffic.generators import (ConstantBitRate, OnOffBursts,
                                      PoissonArrivals, RampArrivals,
                                      TrafficGenerator, cbr_64_to_1500)
from repro.traffic.packet import FixedSize
from repro.units import bits, gbps, mbps


def realised_rate_bps(packets, duration_s):
    return sum(bits(p.size_bytes) for p in packets) / duration_s


class TestConstantBitRate:
    def test_interarrival_is_exact(self):
        gen = ConstantBitRate(gbps(1.0), FixedSize(256), duration_s=0.001)
        packets = list(gen.packets())
        gaps = {round(b.arrival_s - a.arrival_s, 12)
                for a, b in zip(packets, packets[1:])}
        assert len(gaps) == 1  # perfectly even spacing

    def test_realised_rate_matches_target(self):
        gen = ConstantBitRate(gbps(1.0), FixedSize(256), duration_s=0.002)
        packets = list(gen.packets())
        assert realised_rate_bps(packets, 0.002) == \
            pytest.approx(gbps(1.0), rel=0.01)

    def test_sequence_numbers_monotone(self):
        gen = ConstantBitRate(mbps(100), FixedSize(64), duration_s=0.001)
        seqs = [p.seq for p in gen.packets()]
        assert seqs == list(range(len(seqs)))

    def test_arrivals_within_horizon(self):
        gen = ConstantBitRate(mbps(100), FixedSize(64), duration_s=0.001)
        assert all(p.arrival_s < 0.001 for p in gen.packets())

    def test_deterministic_across_iterations(self):
        gen = ConstantBitRate(mbps(100), FixedSize(64), duration_s=0.001)
        first = [(p.seq, p.arrival_s) for p in gen.packets()]
        second = [(p.seq, p.arrival_s) for p in gen.packets()]
        assert first == second

    def test_rate_validated(self):
        with pytest.raises(ConfigurationError):
            ConstantBitRate(0.0, FixedSize(64), duration_s=0.001)

    def test_duration_validated(self):
        with pytest.raises(ConfigurationError):
            ConstantBitRate(mbps(1), FixedSize(64), duration_s=0.0)

    def test_convenience_constructor(self):
        gen = cbr_64_to_1500(gbps(1.0), 1500, duration_s=0.001)
        assert all(p.size_bytes == 1500 for p in gen.packets())

    def test_batched_stream_equals_scalar_loop(self):
        # ~9.7k packets: several vectorised epochs, checked field for
        # field against the base class's one-packet-at-a-time loop.
        gen = ConstantBitRate(gbps(1.0), FixedSize(64), duration_s=0.005,
                              seed=5)
        batched = list(gen.packets())
        assert len(batched) > 2 * 4096
        assert batched == list(TrafficGenerator.packets(gen))


class TestPoisson:
    def test_mean_rate_approximates_target(self):
        gen = PoissonArrivals(gbps(1.0), FixedSize(256), duration_s=0.01,
                              seed=5)
        packets = list(gen.packets())
        assert realised_rate_bps(packets, 0.01) == \
            pytest.approx(gbps(1.0), rel=0.1)

    def test_interarrivals_vary(self):
        gen = PoissonArrivals(gbps(1.0), FixedSize(256), duration_s=0.001,
                              seed=5)
        packets = list(gen.packets())
        gaps = {round(b.arrival_s - a.arrival_s, 12)
                for a, b in zip(packets, packets[1:])}
        assert len(gaps) > 10

    def test_seed_reproducibility(self):
        a = [p.arrival_s for p in PoissonArrivals(
            gbps(1.0), FixedSize(256), 0.001, seed=5).packets()]
        b = [p.arrival_s for p in PoissonArrivals(
            gbps(1.0), FixedSize(256), 0.001, seed=5).packets()]
        assert a == b


class TestOnOffBursts:
    def test_mean_rate_between_low_and_high(self):
        gen = OnOffBursts(low_bps=mbps(500), high_bps=gbps(2.0),
                          size_dist=FixedSize(256), duration_s=0.05,
                          mean_dwell_s=0.005, seed=2)
        packets = list(gen.packets())
        realised = realised_rate_bps(packets, 0.05)
        assert mbps(500) * 0.5 < realised < gbps(2.0)

    def test_repeated_iteration_resets_modulation(self):
        gen = OnOffBursts(low_bps=mbps(500), high_bps=gbps(2.0),
                          size_dist=FixedSize(256), duration_s=0.01,
                          seed=2)
        first = [p.arrival_s for p in gen.packets()]
        second = [p.arrival_s for p in gen.packets()]
        assert first == second

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            OnOffBursts(low_bps=gbps(2.0), high_bps=gbps(1.0),
                        size_dist=FixedSize(64), duration_s=0.01)


class TestRamp:
    def test_rate_at_endpoints(self):
        gen = RampArrivals(mbps(100), gbps(1.0), FixedSize(256),
                           duration_s=0.01)
        assert gen.rate_at(0.0) == mbps(100)
        assert gen.rate_at(0.01) == gbps(1.0)

    def test_rate_clamped_outside_horizon(self):
        gen = RampArrivals(mbps(100), gbps(1.0), FixedSize(256),
                           duration_s=0.01)
        assert gen.rate_at(-1.0) == mbps(100)
        assert gen.rate_at(99.0) == gbps(1.0)

    def test_arrivals_accelerate(self):
        gen = RampArrivals(mbps(100), gbps(1.0), FixedSize(256),
                           duration_s=0.01)
        packets = list(gen.packets())
        first_gap = packets[1].arrival_s - packets[0].arrival_s
        last_gap = packets[-1].arrival_s - packets[-2].arrival_s
        assert last_gap < first_gap

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            RampArrivals(gbps(1.0), gbps(1.0), FixedSize(64), 0.01)


class TestCountEstimate:
    def test_estimate_close_to_actual(self):
        gen = ConstantBitRate(gbps(1.0), FixedSize(256), duration_s=0.005)
        actual = len(list(gen.packets()))
        assert gen.count_estimate() == pytest.approx(actual, rel=0.02)
