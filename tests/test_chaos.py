"""Chaos subsystem: schedules, invariant checks, campaigns."""

import pytest

from repro.chain.nf import DeviceKind
from repro.chaos import (ChaosConfig, ChaosRunner, ChaosSchedule,
                         check_invariants)
from repro.chaos.schedule import ChaosFault, apply_faults
from repro.errors import ConfigurationError
from repro.harness.scenarios import figure1
from repro.sim.engine import Engine
from repro.sim.faults import FaultInjector
from repro.sim.network import ChainNetwork
from repro.traffic.packet import Packet
from repro.units import gbps

NAMES = ["load_balancer", "logger", "monitor", "firewall"]


def drained_network(offered=gbps(1.0), count=300):
    server = figure1().build_server()
    server.refresh_demand(offered)
    engine = Engine()
    network = ChainNetwork(server, engine)
    for i in range(count):
        network.inject(Packet(seq=i, size_bytes=256, arrival_s=i * 2e-6))
    return server, engine, network


class TestChaosConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(max_crashes=-1)
        with pytest.raises(ConfigurationError):
            ChaosConfig(min_fault_duration_s=0.01,
                        max_fault_duration_s=0.005)
        with pytest.raises(ConfigurationError):
            ChaosConfig(brownout_scale_lo=0.0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(migration_failure_rate=1.5)


class TestChaosSchedule:
    def test_deterministic_in_seed(self):
        a = ChaosSchedule.generate(NAMES, seed=5)
        b = ChaosSchedule.generate(NAMES, seed=5)
        assert [f.as_dict() for f in a.faults] == \
            [f.as_dict() for f in b.faults]

    def test_different_seeds_differ(self):
        fingerprints = {
            tuple(str(f.as_dict())
                  for f in ChaosSchedule.generate(NAMES, seed=s).faults)
            for s in range(10)}
        assert len(fingerprints) > 1

    def test_counts_and_windows_bounded(self):
        config = ChaosConfig()
        for seed in range(25):
            schedule = ChaosSchedule.generate(NAMES, config, seed=seed)
            by_kind = {}
            for fault in schedule.faults:
                by_kind[fault.kind] = by_kind.get(fault.kind, 0) + 1
                assert 0.0 < fault.at_s
                assert fault.at_s + fault.duration_s <= config.duration_s
                assert config.min_fault_duration_s <= fault.duration_s \
                    <= config.max_fault_duration_s
            assert by_kind.get("crash", 0) <= config.max_crashes
            assert by_kind.get("brownout", 0) <= config.max_brownouts
            assert by_kind.get("pcie-flap", 0) <= config.max_pcie_flaps
            assert by_kind.get("telemetry-dropout", 0) <= \
                config.max_telemetry_dropouts

    def test_apply_installs_every_fault(self):
        # Seed 7 draws a non-trivial composition (6 faults in the
        # shipped campaign); every one must land on the injector.
        schedule = ChaosSchedule.generate(NAMES, seed=7)
        assert schedule.faults
        __, engine, network = drained_network()
        injector = FaultInjector(network, engine)
        events = apply_faults(schedule.faults, injector)
        assert len(events) == len(schedule.faults)
        assert len(injector.events) == len(schedule.faults)

    def test_describe_lists_every_fault(self):
        schedule = ChaosSchedule.generate(NAMES, seed=7)
        assert len(schedule.describe().splitlines()) == len(schedule.faults)

    def test_empty_nf_list_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosSchedule.generate([], seed=0)


class TestInvariants:
    def test_clean_run_has_no_violations(self):
        server, engine, network = drained_network()
        engine.run()
        assert check_invariants(network, server) == []

    def test_paused_station_detected(self):
        server, engine, network = drained_network()
        engine.run()
        network.stations["monitor"].pause()
        violations = check_invariants(network, server)
        assert any(v.invariant == "station-resumed" for v in violations)

    def test_unreplayed_pause_buffer_detected(self):
        # Pausing before the run strands every packet in the pause
        # buffer: conservation must flag the undrained residue.
        server, engine, network = drained_network()
        network.stations["monitor"].pause()
        engine.run()
        violations = check_invariants(network, server)
        assert any(v.invariant == "packet-conservation"
                   for v in violations)

    def test_unrestored_brownout_detected(self):
        server, engine, network = drained_network()
        engine.run()
        server.nic.set_derate(0.5)
        violations = check_invariants(network, server)
        assert any(v.invariant == "faults-restored" for v in violations)

    def test_uncleared_flap_detected(self):
        server, engine, network = drained_network()
        engine.run()
        server.pcie.set_fault(1e-4)
        violations = check_invariants(network, server)
        assert any(v.invariant == "faults-restored" for v in violations)

    def test_stale_demand_detected(self):
        server, engine, network = drained_network()
        engine.run()
        # Pretend the last refresh used a different load than the one
        # the device demands were computed from.
        server.last_refresh_bps = gbps(1.5)
        violations = check_invariants(network, server)
        assert any(v.invariant == "demand-refreshed" for v in violations)


class TestResilienceKinds:
    def test_new_knob_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(max_device_kills=-1)
        with pytest.raises(ConfigurationError):
            ChaosConfig(max_overload_windows=-1)
        with pytest.raises(ConfigurationError):
            ChaosConfig(overload_peak_bps=0.0)

    def test_enabling_new_kinds_preserves_legacy_draws(self):
        # Seed compatibility: the resilience kinds draw from the RNG
        # only when enabled, so a pre-existing seed must produce the
        # exact same crashes/brownouts/flaps/dropouts either way.
        for seed in range(10):
            base = ChaosSchedule.generate(NAMES, seed=seed)
            extended = ChaosSchedule.generate(
                NAMES, ChaosConfig(max_device_kills=2,
                                   max_overload_windows=2,
                                   resilient=True), seed=seed)
            legacy = [f.as_dict() for f in extended.faults
                      if f.kind not in ("device-kill", "overload")]
            assert legacy == [f.as_dict() for f in base.faults]

    def test_generated_kill_counts_bounded_and_smartnic_only(self):
        config = ChaosConfig(max_device_kills=2, max_overload_windows=2)
        for seed in range(25):
            schedule = ChaosSchedule.generate(NAMES, config, seed=seed)
            kills = [f for f in schedule.faults if f.kind == "device-kill"]
            overloads = [f for f in schedule.faults if f.kind == "overload"]
            assert len(kills) <= config.max_device_kills
            assert len(overloads) <= config.max_overload_windows
            assert all(f.device is DeviceKind.SMARTNIC for f in kills)
            assert all(f.magnitude == config.overload_peak_bps
                       for f in overloads)

    def test_device_kill_fault_applies_to_the_injector(self):
        schedule = ChaosSchedule(seed=0, config=ChaosConfig(), faults=[
            ChaosFault(kind="device-kill", at_s=1e-4, duration_s=0.0,
                       device=DeviceKind.SMARTNIC)])
        __, engine, network = drained_network()
        injector = FaultInjector(network, engine)
        events = apply_faults(schedule.faults, injector)
        assert len(events) == 1
        engine.run()
        assert injector.is_device_dead(DeviceKind.SMARTNIC)

    def test_overload_fault_is_runner_realised(self):
        # Overload is offered load, not a data-plane fault: apply()
        # installs nothing, the runner's traffic profile carries it.
        schedule = ChaosSchedule(seed=0, config=ChaosConfig(), faults=[
            ChaosFault(kind="overload", at_s=0.01, duration_s=0.005,
                       magnitude=2.4e9)])
        __, engine, network = drained_network()
        injector = FaultInjector(network, engine)
        assert apply_faults(schedule.faults, injector) == []
        assert injector.events == []


class TestCampaign:
    def test_runner_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosRunner(runs=0)

    def test_campaign_is_deterministic(self):
        config = ChaosConfig(duration_s=0.02)
        first = ChaosRunner(runs=2, seed=41, config=config).run()
        second = ChaosRunner(runs=2, seed=41, config=config).run()
        assert first.ok and second.ok
        for a, b in zip(first.results, second.results):
            assert (a.injected, a.delivered, a.dropped, a.migrations,
                    a.attempts) == \
                (b.injected, b.delivered, b.dropped, b.migrations,
                 b.attempts)

    def test_acceptance_campaign_holds_all_invariants(self):
        # The PR's acceptance bar: >= 20 randomized scenarios, zero
        # invariant violations.  (Shorter scenarios than the CLI
        # default keep the suite's runtime in check; the CLI runs the
        # full-length campaign.)
        report = ChaosRunner(runs=20, seed=7,
                             config=ChaosConfig(duration_s=0.02)).run()
        assert report.runs == 20
        assert report.ok, report.render()
        # The campaign must actually exercise the fault machinery.
        assert sum(len(r.schedule.faults) for r in report.results) > 10
        assert sum(r.attempts for r in report.results) > 0
        rendered = report.render()
        assert "all invariants held" in rendered

    def test_resilient_campaign_holds_all_invariants(self):
        # With device kills and overload windows in the draw pool and
        # the ResilientController in charge, every scenario must still
        # end clean — recoveries terminal, protected classes untouched.
        config = ChaosConfig(duration_s=0.04, max_device_kills=1,
                             max_overload_windows=1, resilient=True)
        report = ChaosRunner(runs=5, seed=7, config=config).run()
        assert report.ok, report.render()
        # The campaign must actually exercise the new machinery.
        assert sum(r.recoveries for r in report.results) > 0
        assert sum(r.shed for r in report.results) > 0
        assert all(r.protected_shed == 0 for r in report.results)
        assert "shed" in report.render()

    def test_scenario_crash_is_recorded_as_violation(self, monkeypatch):
        # A chaos harness that dies on the bug it was built to surface
        # reports exit-code luck, not invariants: a raising scenario
        # must become a 'scenario-error' violation and the campaign
        # must carry on to the remaining seeds.
        runner = ChaosRunner(runs=2, seed=3,
                             config=ChaosConfig(duration_s=0.01))
        calls = []

        def explode(run_seed, schedule):
            calls.append(run_seed)
            if run_seed == 3:
                raise RuntimeError("boom")
            return original(run_seed, schedule)

        original = runner.build_scenario
        monkeypatch.setattr(runner, "build_scenario", explode)
        report = runner.run()
        assert calls == [3, 4]
        assert not report.ok
        first = report.results[0]
        assert [v.invariant for v in first.violations] == ["scenario-error"]
        assert "RuntimeError" in first.violations[0].detail
        assert report.results[1].ok
