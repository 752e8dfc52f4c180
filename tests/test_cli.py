"""Command-line interface."""

import pytest

from repro.cli import main


class TestTable1:
    def test_prints_capacities(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "monitor" in out
        assert "3.20" in out


class TestFigure1:
    def test_prints_comparison(self, capsys):
        assert main(["figure1", "--duration", "0.004"]) == 0
        out = capsys.readouterr().out
        assert "(c) PAM" in out
        assert "PAM vs naive latency" in out


class TestFigure2:
    def test_custom_sizes(self, capsys):
        assert main(["figure2", "--sizes", "64", "--duration",
                     "0.004"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out
        assert "Figure 2(b)" in out
        assert "64" in out


class TestPlan:
    def test_pam_plan(self, capsys):
        assert main(["plan", "--policy", "pam", "--load", "1.8"]) == 0
        out = capsys.readouterr().out
        assert "logger" in out
        assert "alleviates: True" in out

    def test_naive_plan(self, capsys):
        assert main(["plan", "--policy", "naive", "--load", "1.8"]) == 0
        assert "monitor" in capsys.readouterr().out

    def test_no_overload(self, capsys):
        assert main(["plan", "--load", "1.0"]) == 0
        assert "no migration needed" in capsys.readouterr().out

    def test_scaleout_exit_code(self, capsys):
        assert main(["plan", "--policy", "pam", "--load", "2.4"]) == 1
        assert "scale out" in capsys.readouterr().out


class TestSpike:
    def test_closed_loop_run(self, capsys):
        assert main(["spike", "--duration", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "migrated=['logger']" in out
        assert "dropped 0" in out


class TestErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["warp"])

    def test_unknown_policy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["plan", "--policy", "quantum"])


class TestRunConfig:
    CONFIG = {
        "name": "cli-test",
        "chain": [
            {"nf": "load_balancer", "device": "cpu"},
            {"nf": "logger", "device": "smartnic"},
            {"nf": "monitor", "device": "smartnic"},
            {"nf": "firewall", "device": "smartnic"},
        ],
        "egress": "cpu",
        "workload": {"kind": "cbr", "rate_gbps": 1.8,
                     "packet_bytes": 256, "duration_s": 0.006},
        "policy": "pam",
    }

    def test_runs_and_writes_record(self, tmp_path, capsys):
        import json
        from repro.harness.results import ResultRecord
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(self.CONFIG))
        out_path = tmp_path / "result.json"
        assert main(["run-config", str(config_path),
                     "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "migrated: logger" in out
        record = ResultRecord.load(out_path)
        assert record.migrated_nfs == ["logger"]

    def test_config_error_reported(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text("{}")
        assert main(["run-config", str(config_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestOptimise:
    def test_prints_optimal_placement(self, capsys):
        assert main(["optimise", "--load", "1.8"]) == 0
        out = capsys.readouterr().out
        assert "optimal placement" in out
        assert "predicted latency" in out

    def test_infeasible_load(self, capsys):
        assert main(["optimise", "--load", "8.0"]) == 1
        assert "scale out" in capsys.readouterr().out


class TestResilienceCommand:
    def test_device_kill_scenario_exits_clean(self, capsys):
        assert main(["resilience", "--scenario", "device-kill"]) == 0
        out = capsys.readouterr().out
        assert "recovery of smartnic: completed" in out
        assert "time-to-recover" in out
        assert "healthy -> suspect" in out
        assert "suspect -> failed" in out
        assert "verdict: ok" in out

    def test_overload_scenario_exits_clean(self, capsys):
        assert main(["resilience", "--scenario", "overload",
                     "--duration", "0.04"]) == 0
        out = capsys.readouterr().out
        assert "class low" in out
        assert "[protected]" in out
        assert "verdict: ok" in out

    def test_unknown_scenario_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["resilience", "--scenario", "meteor-strike"])


class TestChaosResilienceFlags:
    def test_resilient_campaign_exit_code(self, capsys):
        assert main(["chaos", "--runs", "2", "--seed", "7",
                     "--duration", "0.02", "--resilient",
                     "--device-kills", "1", "--overloads", "1"]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        assert "shed" in out

    def test_crashing_scenario_exits_nonzero(self, capsys, monkeypatch):
        # Satellite regression: a scenario crash must surface as a
        # violation (exit 1), never as a clean campaign or a traceback.
        from repro.chaos.runner import ChaosRunner

        def explode(self, run_seed, schedule):
            raise RuntimeError("boom")

        monkeypatch.setattr(ChaosRunner, "build_scenario", explode)
        assert main(["chaos", "--runs", "1", "--seed", "3",
                     "--duration", "0.01"]) == 1
        assert "scenario-error" in capsys.readouterr().out


class TestFigure2Chart:
    def test_chart_flag_appends_bars(self, capsys):
        assert main(["figure2", "--sizes", "64", "--duration", "0.004",
                     "--chart"]) == 0
        out = capsys.readouterr().out
        assert "64B pam" in out
        assert "█" in out


class TestCampaignsCommand:
    def test_list_kinds_names_every_registered_kind(self, capsys):
        assert main(["campaigns", "--list-kinds"]) == 0
        out = capsys.readouterr().out
        for kind in ("chaos", "reliability", "resilience", "size-sweep",
                     "soak", "suite", "fault-injected"):
            assert f"{kind}: " in out

    def test_default_action_lists_kinds(self, capsys):
        assert main(["campaigns"]) == 0
        assert "soak: " in capsys.readouterr().out


class TestCrashResumeCampaignFlag:
    def test_unknown_kind_exits_2_with_available_kinds(self, capsys):
        assert main(["crash-resume", "--campaign", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "chaos" in err and "reliability" in err and "soak" in err


class TestSoakCommand:
    def test_list_invariants(self, capsys):
        assert main(["soak", "--list-invariants"]) == 0
        out = capsys.readouterr().out
        assert "virtual-time-monotonic" in out
        assert "drained-end-state" in out

    def test_clean_fuzz_exits_zero(self, capsys):
        assert main(["soak", "--runs", "2", "--seed", "7",
                     "--duration", "0.008"]) == 0
        out = capsys.readouterr().out
        assert "2 soak cases: all invariants held" in out

    def test_planted_bug_shrinks_and_replays(self, tmp_path, capsys):
        reproducer = str(tmp_path / "repro.json")
        assert main(["soak", "--runs", "2", "--seed", "7",
                     "--duration", "0.008",
                     "--plant-bug", "1:conservation:crash",
                     "--reproducer", reproducer]) == 1
        out = capsys.readouterr().out
        assert "VIOLATIONS" in out
        assert "shrunk to 1 fault event(s)" in out
        assert f"reproducer written: {reproducer}" in out

        assert main(["soak", "--replay", reproducer]) == 0
        assert "bit-exact" in capsys.readouterr().out

    def test_no_shrink_skips_the_shrinker(self, capsys):
        assert main(["soak", "--runs", "2", "--seed", "7",
                     "--duration", "0.008", "--no-shrink",
                     "--plant-bug", "1:conservation"]) == 1
        out = capsys.readouterr().out
        assert "shrunk" not in out

    def test_bad_plant_spec_exits_2(self, capsys):
        assert main(["soak", "--runs", "2", "--plant-bug", "x:y"]) == 2
        assert "plant" in capsys.readouterr().err

    def test_missing_replay_file_exits_2(self, tmp_path, capsys):
        assert main(["soak", "--replay",
                     str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err
