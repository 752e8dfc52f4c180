"""Failure injection: crashes, loss, brownouts, flaps, dropouts."""

import pytest

from repro.chain.nf import DeviceKind
from repro.core.pam import select as pam_select
from repro.core.planner import MigrationController, PAMPolicy
from repro.errors import ConfigurationError
from repro.harness.scenarios import figure1
from repro.migration.executor import (OUTCOME_ABORTED, MigrationExecutor,
                                      RetryPolicy)
from repro.sim.engine import Engine
from repro.sim.faults import FaultInjector
from repro.sim.network import ChainNetwork
from repro.sim.runner import SimulationRunner
from repro.traffic.generators import ConstantBitRate
from repro.traffic.packet import FixedSize, Packet
from repro.units import gbps, usec


def live_network(offered=gbps(1.0)):
    server = figure1().build_server()
    server.refresh_demand(offered)
    engine = Engine()
    network = ChainNetwork(server, engine)
    return server, engine, network


def inject_cbr(network, count, gap_s=2e-6):
    for i in range(count):
        network.inject(Packet(seq=i, size_bytes=256, arrival_s=i * gap_s))


class TestCrash:
    def test_packets_dropped_during_downtime(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        inject_cbr(network, 500)
        event = injector.crash_nf("monitor", at_s=2e-4, downtime_s=3e-4)
        engine.run()
        network.check_conservation()
        assert event.packets_lost > 0
        assert len(network.dropped) == event.packets_lost
        assert all(p.dropped_at == "monitor" for p in network.dropped)

    def test_traffic_resumes_after_restart(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        inject_cbr(network, 500)
        injector.crash_nf("monitor", at_s=2e-4, downtime_s=2e-4)
        engine.run()
        # Packets arriving after the restart complete the chain.
        late_delivered = [p for p in network.delivered
                          if p.arrival_s > 4.5e-4]
        assert late_delivered
        assert not injector.is_failed("monitor")

    def test_queue_contents_lost_on_crash(self):
        # Saturate monitor so its queue is non-empty when the crash hits.
        __, engine, network = live_network(offered=gbps(3.0))
        network.server.refresh_demand(gbps(3.0))
        injector = FaultInjector(network, engine)
        inject_cbr(network, 1000, gap_s=6e-7)
        event = injector.crash_nf("monitor", at_s=3e-4, downtime_s=1e-4)
        engine.run()
        assert event.packets_lost > 0

    def test_unknown_nf_rejected(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        with pytest.raises(ConfigurationError):
            injector.crash_nf("ghost", at_s=0.0, downtime_s=1e-3)

    def test_invalid_downtime_rejected(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        with pytest.raises(ConfigurationError):
            injector.crash_nf("monitor", at_s=0.0, downtime_s=0.0)


class TestRepeatedCrash:
    def test_same_nf_crashes_and_restarts_twice(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        inject_cbr(network, 800)
        first = injector.crash_nf("monitor", at_s=2e-4, downtime_s=1e-4)
        second = injector.crash_nf("monitor", at_s=6e-4, downtime_s=1e-4)
        engine.run()
        network.check_conservation()
        assert first.packets_lost > 0
        assert second.packets_lost > 0
        assert not injector.is_failed("monitor")
        # Traffic flows again after the second restart.
        late = [p for p in network.delivered if p.arrival_s > 7.5e-4]
        assert late

    def test_crash_is_station_state_not_a_patched_accept(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        station = network.stations["monitor"]
        inject_cbr(network, 300)
        event = injector.crash_nf("monitor", at_s=2e-4, downtime_s=1e-4)
        probes = []
        engine.at(2.5e-4, lambda: probes.append(station.crash))
        engine.run()
        assert probes == [event]
        assert station.crash is None
        assert "accept" not in vars(station)

    def test_losses_attributed_to_the_right_window(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        inject_cbr(network, 800)
        first = injector.crash_nf("monitor", at_s=2e-4, downtime_s=1e-4)
        second = injector.crash_nf("monitor", at_s=6e-4, downtime_s=1e-4)
        engine.run()
        assert first.packets_lost + second.packets_lost == \
            len(network.dropped)
        # Packets delivered between the two outages prove the restart
        # in the middle actually worked.
        between = [p for p in network.delivered
                   if 3.5e-4 < p.arrival_s < 5.5e-4]
        assert between

    def test_overlapping_windows_extend_downtime(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        inject_cbr(network, 600)
        injector.crash_nf("monitor", at_s=2e-4, downtime_s=2e-4)
        # Overlaps the first window; holds the NF down until 7e-4.
        injector.crash_nf("monitor", at_s=3e-4, downtime_s=4e-4)
        probes = []
        engine.at(4.5e-4,
                  lambda: probes.append(injector.is_failed("monitor")),
                  control=True)
        engine.run()
        # Still down after the first window's restart time.
        assert probes == [True]
        assert not injector.is_failed("monitor")
        network.check_conservation()


class TestDeviceBrownout:
    def test_derate_applied_and_restored(self):
        server, engine, network = live_network()
        injector = FaultInjector(network, engine)
        inject_cbr(network, 500)
        injector.brownout(DeviceKind.SMARTNIC, at_s=2e-4, duration_s=3e-4,
                          capacity_scale=0.5)
        probes = []
        engine.at(3.5e-4, lambda: probes.append(server.nic.derate),
                  control=True)
        engine.run()
        assert probes == [0.5]
        assert server.nic.derate == 1.0
        network.check_conservation()

    def test_overlapping_brownouts_take_deepest_and_latest(self):
        server, engine, network = live_network()
        injector = FaultInjector(network, engine)
        inject_cbr(network, 800)
        injector.brownout(DeviceKind.SMARTNIC, at_s=2e-4, duration_s=2e-4,
                          capacity_scale=0.7)
        injector.brownout(DeviceKind.SMARTNIC, at_s=3e-4, duration_s=6e-4,
                          capacity_scale=0.5)
        probes = []
        engine.at(3.5e-4, lambda: probes.append(server.nic.derate),
                  control=True)
        # After the first window ends the deeper, longer one still holds.
        engine.at(5e-4, lambda: probes.append(server.nic.derate),
                  control=True)
        engine.run()
        assert probes == [0.5, 0.5]
        assert server.nic.derate == 1.0

    def test_deep_brownout_overloads_the_device(self):
        # At 1.0 Gbps the NIC digests the chain comfortably; derated to
        # 10% capacity for most of the run it cannot, and queues
        # overflow once the backlog exceeds the 1024-packet queue.
        server, engine, network = live_network()
        injector = FaultInjector(network, engine)
        inject_cbr(network, 3000)
        injector.brownout(DeviceKind.SMARTNIC, at_s=2e-4, duration_s=5e-3,
                          capacity_scale=0.1)
        engine.run()
        network.check_conservation()
        assert network.dropped

    def test_validation(self):
        server, engine, network = live_network()
        injector = FaultInjector(network, engine)
        with pytest.raises(ConfigurationError):
            injector.brownout(DeviceKind.CPU, at_s=0.0, duration_s=0.0,
                              capacity_scale=0.5)
        with pytest.raises(ConfigurationError):
            injector.brownout(DeviceKind.CPU, at_s=0.0, duration_s=1e-3,
                              capacity_scale=1.0)


class TestPcieFlap:
    def test_extra_latency_applied_and_cleared(self):
        server, engine, network = live_network()
        injector = FaultInjector(network, engine)
        inject_cbr(network, 300)
        injector.pcie_flap(at_s=1e-4, duration_s=2e-4,
                           extra_latency_s=usec(50.0))
        probes = []
        engine.at(2e-4,
                  lambda: probes.append(server.pcie.fault_extra_latency_s),
                  control=True)
        engine.run()
        assert probes == [usec(50.0)]
        assert server.pcie.fault_extra_latency_s == 0.0
        network.check_conservation()

    def test_overlapping_flaps_take_worst_spike(self):
        server, engine, network = live_network()
        injector = FaultInjector(network, engine)
        inject_cbr(network, 400)
        injector.pcie_flap(at_s=1e-4, duration_s=2e-4,
                           extra_latency_s=usec(50.0))
        injector.pcie_flap(at_s=2e-4, duration_s=4e-4,
                           extra_latency_s=usec(120.0))
        probes = []
        engine.at(2.5e-4,
                  lambda: probes.append(server.pcie.fault_extra_latency_s),
                  control=True)
        engine.run()
        assert probes == [usec(120.0)]
        assert server.pcie.fault_extra_latency_s == 0.0

    def test_flap_can_push_a_migration_past_its_timeout(self):
        # The documented interplay: a flap mid-migration inflates the
        # state-DMA time past the per-action deadline, forcing a
        # rollback instead of a slow success.
        server, engine, network = live_network(offered=gbps(1.8))
        executor = MigrationExecutor(server, network, engine,
                                     action_timeout_s=2e-4,
                                     retry=RetryPolicy(max_attempts=1))
        injector = FaultInjector(network, engine)
        inject_cbr(network, 300)
        injector.pcie_flap(at_s=5e-5, duration_s=5e-4,
                           extra_latency_s=3e-4)
        plan = pam_select(server.placement, gbps(1.8))
        outcomes = []
        engine.at(1e-4,
                  lambda: executor.apply(plan, gbps(1.8),
                                         on_outcome=outcomes.append),
                  control=True)
        engine.run()
        assert outcomes[0].status == OUTCOME_ABORTED
        assert outcomes[0].reason == "timeout"
        assert server.placement.device_of("logger").value == "smartnic"
        network.check_conservation()

    def test_validation(self):
        server, engine, network = live_network()
        injector = FaultInjector(network, engine)
        with pytest.raises(ConfigurationError):
            injector.pcie_flap(at_s=0.0, duration_s=0.0,
                               extra_latency_s=usec(10.0))
        with pytest.raises(ConfigurationError):
            injector.pcie_flap(at_s=0.0, duration_s=1e-3,
                               extra_latency_s=0.0)


class TestTelemetryDropout:
    def test_sample_freezes_then_recovers(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        inject_cbr(network, 800)
        injector.telemetry_dropout(at_s=2e-4, duration_s=4e-4)
        samples = []
        for probe_at in (3e-4, 5e-4, 8e-4):
            engine.at(probe_at,
                      lambda: samples.append(network.telemetry_sample()),
                      control=True)
        engine.run()
        # Both in-window probes see the identical frozen sample with a
        # stale timestamp; the post-window probe is live again.
        assert samples[0] == samples[1]
        assert samples[0][1] == pytest.approx(2e-4)
        assert samples[2][1] == pytest.approx(8e-4)
        assert samples[2][0] > samples[0][0]

    def test_validation(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        with pytest.raises(ConfigurationError):
            injector.telemetry_dropout(at_s=0.0, duration_s=0.0)


class TestRandomLoss:
    def test_loss_rate_approximates_probability(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine, seed=5)
        inject_cbr(network, 2000)
        injector.random_loss(0.1)
        engine.run()
        network.check_conservation()
        rate = len(network.dropped) / network.injected
        assert rate == pytest.approx(0.1, abs=0.03)

    def test_loss_is_seeded(self):
        losses = []
        for _ in range(2):
            __, engine, network = live_network()
            injector = FaultInjector(network, engine, seed=5)
            inject_cbr(network, 500)
            injector.random_loss(0.2)
            engine.run()
            losses.append(len(network.dropped))
        assert losses[0] == losses[1]

    def test_probability_bounds(self):
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        with pytest.raises(ConfigurationError):
            injector.random_loss(0.0)
        with pytest.raises(ConfigurationError):
            injector.random_loss(1.0)

    def test_double_install_rejected(self):
        # A second wrapper would silently compound the drop probability.
        __, engine, network = live_network()
        injector = FaultInjector(network, engine)
        injector.random_loss(0.1)
        with pytest.raises(ConfigurationError):
            injector.random_loss(0.1)


class TestFaultsDoNotConfuseThePlanner:
    def test_pam_still_fires_with_loss_upstream(self):
        # 10% ingress loss thins the measured load; at 1.8 Gbps offered
        # the surviving ~1.62 Gbps still overloads the NIC (knee 1.51),
        # so the controller must still migrate.
        server = figure1().build_server()
        generator = ConstantBitRate(gbps(1.8), FixedSize(256), 0.02)
        controller = MigrationController(PAMPolicy())
        runner = SimulationRunner(server, generator, controller,
                                  monitor_period_s=0.002)
        FaultInjector(runner.network, runner.engine, seed=7) \
            .random_loss(0.1)
        result = runner.run()
        assert result.migrated_nfs == ["logger"]
