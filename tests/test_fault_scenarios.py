"""One scenario builder: chaos runs and soak cases share their wiring."""

import pytest

from repro.chaos import ChaosConfig, ChaosRunner
from repro.chaos.scenario import SoakCase
from repro.soak import default_space, generate_case, run_case

_RESILIENT = ChaosConfig(resilient=True, max_device_kills=1,
                         max_overload_windows=1)

_COUNTERS = ("injected", "delivered", "dropped", "migrations",
             "recoveries")


class TestChaosRunIsASoakCase:
    @pytest.mark.parametrize("config", [ChaosConfig(), _RESILIENT],
                             ids=["hardened", "resilient"])
    # Under the resilient config seed 11 draws a device kill and seed 23
    # an overload window.
    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_soak_replay_of_the_chaos_case_matches(self, config, seed):
        runner = ChaosRunner(runs=1, seed=seed, config=config)
        case = runner.build_scenario(seed).case
        assert isinstance(case, SoakCase)
        assert case.planted is None
        chaos = runner.run_one(seed)
        soak = run_case(case)
        assert chaos.ok and not soak["violations"]
        assert {name: soak[name] for name in _COUNTERS} == \
            {name: getattr(chaos, name) for name in _COUNTERS}

    def test_case_carries_the_seeded_schedule(self):
        config = _RESILIENT
        runner = ChaosRunner(runs=1, seed=5, config=config)
        scenario = runner.build_scenario(5)
        assert scenario.case.faults == tuple(scenario.schedule.faults)
        assert scenario.case.duration_s == config.duration_s
        assert scenario.case.resilient
        assert scenario.case.migration_failure_rate == \
            config.migration_failure_rate


class TestStrandedOnADeadDevice:
    def test_device_kill_before_the_only_tick_is_abandoned(self):
        # The SmartNIC dies at 0.2 ms and logger's migration rolls back
        # into the dead queue; the 2 ms run's single monitor tick never
        # declares the failure, so the end-of-run abandonment must
        # account for the stranded packets.
        case = generate_case(default_space(0.002), 2001023370)
        assert any(fault.kind == "device-kill" for fault in case.faults)
        payload = run_case(case)
        assert payload["violations"] == []
        assert payload["injected"] == (payload["delivered"]
                                       + payload["dropped"]
                                       + payload["filtered"]
                                       + payload["shed"])
        assert payload["recoveries"] == 1
