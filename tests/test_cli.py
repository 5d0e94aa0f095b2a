import json
import shutil

import numpy as np
import pytest

from lqnet.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_complete_nash_efforts(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--treatment", "N5_LowCost", "--network", "complete"
        )
        assert code == 0
        payload = json.loads(out)
        assert np.allclose(payload["efforts"], 4.1667, atol=1e-3)
        assert payload["group_average"] == pytest.approx(32.72, abs=0.01)
        assert payload["capped"] is False

    def test_efficient_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--treatment", "N9_LowCost1", "--network", "complete",
            "--efficient",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["efforts"] == [20.0] * 9
        assert payload["capped"] is True

    def test_network_file(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"n": 5, "edges": [[1, 2]]}))
        code, out, _ = run_cli(
            capsys, "solve", "--treatment", "N5_LowCost", "--network", str(path)
        )
        assert code == 0
        assert len(json.loads(out)["efforts"]) == 5

    def test_unknown_treatment_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--treatment", "N7_X", "--network", "complete"
        )
        assert code == 1
        assert "unknown treatment" in err

    def test_byte_identical_repeat(self, capsys):
        _, first, _ = run_cli(
            capsys, "solve", "--treatment", "N9_HighCost", "--network", "star"
        )
        _, second, _ = run_cli(
            capsys, "solve", "--treatment", "N9_HighCost", "--network", "star"
        )
        assert first == second


class TestVerifyAndEnumerate:
    def test_verify_profile(self, capsys, tmp_path):
        profile = {"n": 5, "efforts": [2.5] * 5, "intents": []}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile))
        code, out, _ = run_cli(
            capsys, "verify", "--treatment", "N5_HighCost", "--profile", str(path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["is_nash"] is True
        assert payload["checked_deviations"] == 80

        code, out, _ = run_cli(
            capsys, "verify", "--treatment", "N5_LowCost", "--profile", str(path)
        )
        payload = json.loads(out)
        assert payload["is_nash"] is False
        assert payload["worst_deviation"]["agent"] >= 1  # 1-based output

    def test_enumerate_high_cost(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--treatment", "N5_HighCost")
        assert code == 0
        payload = json.loads(out)
        assert payload["supportable_labels"] == ["Complete", "Empty", "Star"]
        assert len(payload["candidates"]) == 34

    def test_enumerate_restricted_n9(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--treatment", "N9_LowCost2")
        payload = json.loads(out)
        assert payload["supportable_labels"] == ["Complete"]
        assert len(payload["candidates"]) == 3

    def test_all_graphs_rejected_for_n9(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate", "--treatment", "N9_HighCost", "--all-graphs"
        )
        assert code == 1
        assert "n <= 5" in err


class TestClassify:
    def test_star_file(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(
            json.dumps({"n": 5, "edges": [[1, 2], [1, 3], [1, 4], [1, 5]]})
        )
        code, out, _ = run_cli(capsys, "classify", "--network", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "Star"
        assert payload["nested_split"] is True
        assert payload["core"] == [1]
        assert payload["stats"]["link_count"] == 4


class TestSimulateAnalyze:
    POLICY = (
        "policy:\n"
        "  effort: {preset: N9_LowCost1, noise_sd: 0.5}\n"
        "  links: {kind: rank_top, k: 5}\n"
    )

    def test_pipeline(self, capsys, tmp_path):
        policy_path = tmp_path / "policy.yaml"
        policy_path.write_text(self.POLICY)
        out_dir = tmp_path / "runs"
        code, out, _ = run_cli(
            capsys, "simulate", "--treatment", "N9_LowCost1",
            "--policy", str(policy_path), "--periods", "30", "--reps", "4",
            "--seed", "11", "--out", str(out_dir),
        )
        assert code == 0
        written = json.loads(out)["written"]
        assert len(written) == 4

        code, out, _ = run_cli(
            capsys, "analyze", "--in", str(out_dir), "--treatment", "N9_LowCost1",
            "--window", "last10",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["window"] == [21, 30]
        assert 0 < payload["efficiency"]["relative_efficiency"] < 1
        assert payload["summary"]["overall_means"]["link_fraction"] < 1

        import csv

        with (out_dir / "summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "group"
        assert [r[0] for r in rows[1:]] == ["s11", "s12", "s13", "s14", "overall"]
        fraction_col = rows[0].index("link_fraction_mean")
        assert float(rows[-1][fraction_col]) == pytest.approx(
            payload["summary"]["overall_means"]["link_fraction"]
        )

    def test_analyze_twice_on_one_directory(self, capsys, tmp_path):
        policy_path = tmp_path / "policy.yaml"
        policy_path.write_text(self.POLICY)
        out_dir = tmp_path / "runs"
        run_cli(
            capsys, "simulate", "--treatment", "N9_LowCost1",
            "--policy", str(policy_path), "--periods", "10", "--reps", "2",
            "--seed", "3", "--out", str(out_dir),
        )
        analyze = ("analyze", "--in", str(out_dir), "--treatment", "N9_LowCost1")
        first = run_cli(capsys, *analyze)
        assert (out_dir / "summary.csv").exists()
        second = run_cli(capsys, *analyze)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

        # a real session CSV without its sidecar is still an error
        shutil.copy(out_dir / "s3.csv", out_dir / "s9.csv")
        code, out, err = run_cli(capsys, *analyze)
        assert code == 1
        assert "missing sidecar" in err

    def test_simulate_deterministic_across_dirs(self, capsys, tmp_path):
        policy_path = tmp_path / "policy.yaml"
        policy_path.write_text(self.POLICY)
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            run_cli(
                capsys, "simulate", "--treatment", "N9_LowCost1",
                "--policy", str(policy_path), "--periods", "10", "--reps", "2",
                "--seed", "3", "--out", str(out_dir),
            )
            outs.append(sorted(p.read_bytes() for p in out_dir.glob("*.csv")))
        assert outs[0] == outs[1]


class TestThresholds:
    def test_reports_cutoffs(self, capsys):
        code, out, _ = run_cli(
            capsys, "thresholds", "--treatment", "N9_HighCost", "--grid-points", "41"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa1"] == pytest.approx(1.953125, abs=1e-4)
        assert payload["kappa2"] == pytest.approx(5.46875, abs=1e-4)


    @pytest.mark.parametrize("points", ["0", "1", "-3"])
    def test_grid_points_below_two_is_usage_error(self, capsys, points):
        code, out, err = run_cli(
            capsys, "thresholds", "--treatment", "N5_HighCost", "--grid-points", points
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --grid-points must be at least 2, got {points}\n"


class TestUsageErrors:
    def test_no_arguments_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--nope"])
        assert exc.value.code == 2
