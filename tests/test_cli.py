import ast
import copy
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqnet
from lqnet.cli import main
from lqnet.files import network_to_obj
from lqnet.model import PARAM_KEYS, Network

from helpers import oracle_nested_split

try:
    import fcntl
except ImportError:  # not on every platform; only the closed-pipe test needs it
    fcntl = None

GOLDEN_RECORD = Path(__file__).parent / "golden" / "sessions_n5" / "records" / "s7.csv"
#: the environment of a child `python` that imports this checkout's lqnet
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(lqnet.__file__).parents[1])}


def file_hashes(directory):
    """Each file name in ``directory`` with the SHA-256 of its bytes."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


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

    def test_missing_profile_file_exit_one(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(
            capsys, "verify", "--treatment", "N5_HighCost", "--profile", str(missing)
        )
        assert code == 1
        assert out == ""
        assert err == f"error: profile file not found: {missing}\n"

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
        # the flag is gone: it never changed the candidate set
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--treatment", "N9_HighCost", "--all-graphs"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --all-graphs" in capsys.readouterr().err


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

    def test_named_star_beyond_nine_reports_core(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--network", "star", "--n", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["core"] == [1]
        assert payload["periphery"] == list(range(2, 13))

    def test_nested_split_field_matches_oracle(self, capsys, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "net.json"
        seen = set()
        for _ in range(200):
            n = int(rng.integers(2, 10))
            m = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
            net = Network(m | m.T)
            path.write_text(json.dumps(network_to_obj(net)))
            code, out, _ = run_cli(capsys, "classify", "--network", str(path))
            assert code == 0
            nested = json.loads(out)["nested_split"]
            assert nested == oracle_nested_split(net.adjacency), net.edges()
            seen.add(nested)
        assert seen == {True, False}

    def test_self_loop_edge_exit_one(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"n": 5, "edges": [[1, 2], [1, 1]]}))
        code, out, err = run_cli(capsys, "classify", "--network", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: edges: bad pair [1, 1] for n=5\n"

    def test_n_against_a_file_must_match(self, capsys, tmp_path):
        # as `solve` words a network of another group size
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3]]}))
        code, out, err = run_cli(capsys, "classify", "--network", str(path), "--n", "7")
        assert (code, out) == (1, "")
        assert err == "error: network has n=4, --n expects n=7\n"
        code, out, _ = run_cli(capsys, "classify", "--network", str(path), "--n", "4")
        assert code == 0 and json.loads(out)["stats"]["link_count"] == 2


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

    @pytest.mark.parametrize("flag", ["--periods", "--reps"])
    def test_zero_periods_or_reps_is_usage_error(self, capsys, tmp_path, flag):
        policy_path = tmp_path / "policy.yaml"
        policy_path.write_text(self.POLICY)
        counts = {"--periods": "10", "--reps": "2", flag: "0"}
        code, out, err = run_cli(
            capsys, "simulate", "--treatment", "N9_LowCost1", "--policy", str(policy_path),
            "--periods", counts["--periods"], "--reps", counts["--reps"],
            "--out", str(tmp_path / "runs"),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be at least 1, got 0\n"
        assert not (tmp_path / "runs").exists()

    def test_negative_seed_is_usage_error(self, capsys, tmp_path):
        policy_path = tmp_path / "policy.yaml"
        policy_path.write_text(self.POLICY)
        code, out, err = run_cli(
            capsys, "simulate", "--treatment", "N9_LowCost1", "--policy", str(policy_path),
            "--seed", "-1", "--out", str(tmp_path / "runs"),
        )
        assert code == 2
        assert out == ""
        assert err == "error: --seed must be non-negative, got -1\n"
        assert not (tmp_path / "runs").exists()

    def test_allocation_too_large_is_one_error_line(self, capsys, tmp_path):
        # 10^15 periods ask for more than a 128 TiB address space: the first array of the
        # batch fails to allocate before it touches memory; one replication, one generator
        policy_path = tmp_path / "policy.yaml"
        policy_path.write_text(self.POLICY)
        code, out, err = run_cli(
            capsys, "simulate", "--treatment", "N9_LowCost1", "--policy", str(policy_path),
            "--periods", "1000000000000000", "--reps", "1", "--seed", "1",
            "--out", str(tmp_path / "runs"),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "command,target,failed,message",
        [
            ("simulate", "file", "file", "record file: File exists"),
            ("analyze", "dir", "dir", "summary CSV: Is a directory"),
            ("analyze", "file/x.csv", "file", "summary CSV: File exists"),
        ],
        ids=["simulate-out-file", "analyze-csv-dir", "analyze-csv-under-file"],
    )
    def test_failed_write_is_one_error_line(self, capsys, tmp_path, command, target, failed,
                                            message):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        policy_path = tmp_path / "policy.yaml"
        policy_path.write_text(self.POLICY)
        argv = {
            "simulate": ["simulate", "--treatment", "N9_LowCost1", "--policy", str(policy_path),
                         "--periods", "2", "--out", str(tmp_path / target)],
            "analyze": ["analyze", "--in", str(GOLDEN_RECORD.parent), "--treatment",
                        "N5_HighCost", "--csv", str(tmp_path / target)],
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {tmp_path / failed}: cannot write {message}\n"

    @pytest.mark.parametrize("target", ["s7.csv", "s10.json", "../records/./s8.csv"])
    def test_analyze_refuses_a_csv_target_it_read(self, capsys, tmp_path, target):
        records = tmp_path / "records"
        shutil.copytree(GOLDEN_RECORD.parent, records)
        before = file_hashes(records)
        code, out, err = run_cli(capsys, "analyze", "--in", str(records), "--treatment",
                                 "N5_HighCost", "--csv", str(records / target))
        assert (code, out) == (1, "")
        assert err == (f"error: {records / target}: is a session record that analyze reads; "
                       "--csv would replace it\n")
        assert file_hashes(records) == before

    @pytest.mark.parametrize("removed, taken", [(None, "s7.csv"), ("s7.csv", "s7.json")])
    def test_simulate_refuses_to_replace_a_record(self, capsys, tmp_path, removed, taken):
        # seed 6, two replications: s6 is new, s7 is a golden record
        records = tmp_path / "records"
        shutil.copytree(GOLDEN_RECORD.parent, records)
        if removed:
            (records / removed).unlink()
        before = file_hashes(records)
        code, out, err = run_cli(
            capsys, "simulate", "--treatment", "N5_HighCost", "--policy",
            str(GOLDEN_RECORD.parents[1] / "policy.yaml"), "--periods", "12", "--reps", "2",
            "--seed", "6", "--out", str(records),
        )
        assert (code, out) == (1, "")
        assert err == f"error: {records / taken}: already exists; simulate does not replace a record\n"
        assert file_hashes(records) == before

    def test_analyze_refuses_records_whose_windows_differ(self, capsys, tmp_path):
        # last10 is periods 3-12 of the 12-period records and 1-5 of the 5-period one
        policy_path = tmp_path / "policy.yaml"
        policy_path.write_text(self.POLICY)
        out_dir = tmp_path / "runs"
        for periods, reps, seed in (("12", "2", "1"), ("5", "1", "7")):
            assert run_cli(capsys, "simulate", "--treatment", "N9_LowCost1", "--policy", str(policy_path),
                           "--periods", periods, "--reps", reps, "--seed", seed, "--out", str(out_dir))[0] == 0
        code, out, err = run_cli(capsys, "analyze", "--in", str(out_dir), "--treatment", "N9_LowCost1",
                                 "--window", "last10")
        assert (code, out) == (1, "")
        assert err == "error: session s7: window last10 covers periods 1-5, not 3-12 as in session s1\n"
        assert not (out_dir / "summary.csv").exists()

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


    @pytest.mark.parametrize(
        "policy,message",
        [
            ("effort: {b0: [1], b1: 1, b2: 0}\nlinks: {kind: best_response}",
             "policy.effort.b0: expected a number, got [1]"),
            ("effort: {preset: N5_LowCost}\nlinks: {kind: rank_top, k: [1]}",
             "policy.links.k: rank_top needs a non-negative integer cutoff k, got [1]"),
            ("effort: {preset: N5_LowCost}\n"
             "links: {kind: fixed_targets, targets: [[2], [9], [], [], []]}",
             "policy.links.targets[1]: expected IDs in 1..5, got [9]"),
            ("effort: {preset: N5_LowCost}\n"
             "links: {kind: fixed_targets, targets: [[2, 2], [], [], [], []]}",
             "policy.links.targets[0]: names an agent twice"),
            ("policy: {effort: [1, 2",
             "PATH: malformed file: line 2, column 1: expected ',' or ']', but got '<stream end>'"),
            ("effort: {preset: N5_LowCost}\nlinks: kind: best_response",
             "PATH: malformed file: line 2, column 12: mapping values are not allowed here"),
            ("effort: {preset: N5_LowCost}\nlinks: {kind: [1]}",
             "policy.links.kind: unknown link rule [1] (known: best_response, benefit_threshold, "
             "rank_top, logistic, fixed_targets)"),
        ],
        ids=["effort-list", "rank-k-list", "target-out-of-range", "repeated-target", "unclosed-flow",
             "nested-mapping", "kind-list"],
    )
    def test_bad_policy_field_is_one_error_line(self, capsys, tmp_path, policy, message):
        policy_path = tmp_path / "policy.yaml"
        policy_path.write_text(policy + "\n")
        code, out, err = run_cli(
            capsys, "simulate", "--treatment", "N5_LowCost", "--policy", str(policy_path),
            "--periods", "3", "--out", str(tmp_path / "runs"),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {message.replace('PATH', str(policy_path))}\n"

    def test_tab_indented_json_policy_simulates_as_its_yaml_twin(self, capsys, tmp_path):
        # PyYAML refuses a tab as indentation; a .json policy is read as JSON
        import yaml

        (tmp_path / "p1.yaml").write_text(self.POLICY)
        (tmp_path / "p2.json").write_text(json.dumps(yaml.safe_load(self.POLICY), indent="\t"))
        for name in ("p1.yaml", "p2.json"):
            code, _, err = run_cli(
                capsys, "simulate", "--treatment", "N9_LowCost1", "--policy", str(tmp_path / name),
                "--periods", "4", "--seed", "3", "--out", str(tmp_path / name.partition(".")[0]),
            )
            assert (code, err) == (0, "")
        assert (tmp_path / "p1" / "s3.csv").read_bytes() == (tmp_path / "p2" / "s3.csv").read_bytes()

    def test_malformed_json_policy_is_one_error_line(self, capsys, tmp_path):
        policy_path = tmp_path / "policy.json"
        policy_path.write_text('{"effort": {"preset": "N5_LowCost"},\n "links": }\n')
        code, out, err = run_cli(
            capsys, "simulate", "--treatment", "N5_LowCost", "--policy", str(policy_path),
            "--periods", "3", "--out", str(tmp_path / "runs"),
        )
        assert (code, out) == (1, "")
        assert err == f"error: {policy_path}: malformed file: line 2, column 11: Expecting value\n"

    @pytest.mark.filterwarnings("error")
    def test_saturated_logistic_runs_without_warnings(self, capsys, tmp_path):
        # partner_effort * effort overflows to inf; the link probability saturates
        policy_path = tmp_path / "policy.yaml"
        policy_path.write_text(
            "effort: {preset: N5_LowCost}\n"
            "links: {kind: logistic, coefficients: {intercept: 0, lagged_link: -1.0e+308,"
            " partner_effort: 1.0e+308, above_median: 0, below_median: 0}}\n"
        )
        code, _, err = run_cli(
            capsys, "simulate", "--treatment", "N5_LowCost", "--policy", str(policy_path),
            "--periods", "3", "--out", str(tmp_path / "runs"),
        )
        assert code == 0
        assert err == ""

    @pytest.mark.skipif(
        not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipe resizing is Linux-only"
    )
    def test_closed_pipe_exits_one_without_traceback(self):
        # a one-page pipe holds only part of the ~14 kB listing, so the program
        # is still writing when the reader closes its end after the first line
        read_fd, write_fd = os.pipe()
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen(
            [sys.executable, "-m", "lqnet.cli", "enumerate", "--treatment", "N5_LowCost"],
            stdout=write_fd, stderr=subprocess.PIPE, env=SRC_ENV,
        )
        os.close(write_fd)
        first = b""
        with os.fdopen(read_fd, "rb", buffering=0) as reader:
            while not first.endswith(b"\n"):
                byte = reader.read(1)
                if not byte:
                    break
                first += byte
        _, err = proc.communicate(timeout=120)
        assert first == b"{\n"
        assert proc.returncode == 1
        assert err == b""


class TestThresholds:
    def test_reports_cutoffs(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--treatment", "N9_HighCost")
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa1"] == pytest.approx(1.953125, abs=1e-8)
        assert payload["kappa2"] == pytest.approx(5.46875, abs=1e-8)

    def test_grid_points_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["thresholds", "--treatment", "N5_HighCost", "--grid-points", "41"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid-points 41" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_arguments_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("window", ["a:b", "1:x", "3"])
    def test_bad_window_names_the_accepted_forms(self, capsys, window):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--in", str(GOLDEN_RECORD.parent), "--treatment", "N5_HighCost",
                  "--window", window])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --window: bad window {window!r}; analysis window: 'full'" in err
        assert "_parse_window" not in err

    @pytest.mark.parametrize("window", ["5:2", "0:3"])
    def test_window_out_of_order_is_refused_by_the_flag(self, capsys, tmp_path, window):
        # the flag alone shows it: refused before any record is read
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--in", str(tmp_path / "missing"), "--treatment", "N5_HighCost",
                  "--window", window])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --window: bad window {window!r}; start must be at least 1 and at most end" in err

    def test_window_past_the_record_is_a_domain_error(self, capsys, tmp_path):
        # only the records tell how long they are
        code, out, err = run_cli(
            capsys, "analyze", "--in", str(GOLDEN_RECORD.parent), "--treatment", "N5_HighCost",
            "--window", "3:99", "--csv", str(tmp_path / "summary.csv"),
        )
        assert (code, out) == (1, "")
        assert err == "error: window (3, 99) invalid for a 12-period record\n"
        assert not (tmp_path / "summary.csv").exists()


def _network_argv(path):
    return ["classify", "--network", str(path)]


def _solve_argv(path):
    return ["solve", "--treatment", "N5_HighCost", "--network", str(path)]


def _profile_argv(path):
    return ["verify", "--treatment", "N5_HighCost", "--profile", str(path)]


def _policy_argv(path):
    return ["simulate", "--treatment", "N5_HighCost", "--policy", str(path),
            "--out", str(Path(path).parent / "out")]


DELETE = object()


def _sidecar_meta(**changes):
    """The golden record's sidecar with ``changes`` applied; `DELETE` removes a key."""
    meta = json.loads(GOLDEN_RECORD.with_suffix(".json").read_text())
    for key, value in changes.items():
        obj = meta["params"] if key.startswith("params.") else meta
        name = key.removeprefix("params.")
        if value is DELETE:
            del obj[name]
        else:
            obj[name] = value
    return meta


def _record_dir(root, sidecar_text):
    """A record directory holding the golden CSV and the given sidecar text."""
    rec = Path(root) / "rec"
    rec.mkdir()
    shutil.copy(GOLDEN_RECORD, rec / GOLDEN_RECORD.name)
    (rec / GOLDEN_RECORD.with_suffix(".json").name).write_text(sidecar_text)
    return rec


def _analyze_argv(rec):
    return ["analyze", "--in", str(rec), "--treatment", "N5_HighCost",
            "--csv", str(rec.parent / "summary.csv")]


def _record_csv_argv(csv_path):
    """`analyze` on the record directory holding ``csv_path``."""
    return _analyze_argv(Path(csv_path).parent)


def _run_quiet(argv):
    """Exit code and stderr of one CLI call; a traceback propagates."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestBadInputFiles:
    @pytest.mark.parametrize(
        "argv,content,fragment",
        [
            (_profile_argv, [], "profile: expected a mapping, got list"),
            (_profile_argv, {"n": 5, "intents": []}, "profile efforts must be a list"),
            (_profile_argv, {"n": 5, "efforts": [1, 2, "x", 4, 5]}, "profile efforts"),
            (_profile_argv, {"n": 5, "efforts": [1, 2, None, 4, 5]}, "profile efforts"),
            (_profile_argv, {"n": 5, "efforts": [1] * 5, "intents": [[1]]}, "intents: bad pair [1]"),
            (_network_argv, {"n": 5, "edges": [[1]]}, "edges: bad pair [1]"),
            (_solve_argv, {"n": 5, "edges": [[1]]}, "edges: bad pair [1]"),
            (_network_argv, {"n": 1, "edges": []}, "network.n: group size"),
            (_network_argv, {"n": "x", "edges": []}, "network.n: group size"),
            (_network_argv, {"n": 10**9, "edges": []}, "network.n: group size"),
            (_network_argv, {"n": 5, "edge": [[1, 2]]},
             "network.edge: unknown field (known: n, edges)"),
            (_solve_argv, {"n": 5, "edges": [], "label": "Empty"}, "network.label: unknown field"),
            (_profile_argv, {"n": 5, "efforts": [1] * 5, "intent": [[1, 2]]},
             "profile.intent: unknown field (known: n, efforts, intents)"),
            (_profile_argv, {"n": 4, "efforts": [1] * 4, "intents": []},
             "profile has n=4, params expect n=5"),
        ],
    )
    def test_bad_object_is_one_error_line(self, capsys, tmp_path, argv, content, fragment):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, *argv(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err

    @pytest.mark.parametrize(
        "argv,what",
        [
            (_solve_argv, "network file"),
            (_profile_argv, "profile file"),
            (_network_argv, "network file"),
            (_policy_argv, "file"),
        ],
        ids=["solve", "verify", "classify", "simulate"],
    )
    def test_directory_path_is_one_error_line(self, capsys, tmp_path, argv, what):
        code, out, err = run_cli(capsys, *argv(tmp_path))
        assert code == 1
        assert out == ""
        assert err == f"error: {tmp_path}: cannot read {what}: Is a directory\n"

    @pytest.mark.parametrize(
        "argv,what",
        [
            (_solve_argv, "network file"),
            (_profile_argv, "profile file"),
            (_network_argv, "network file"),
            (_policy_argv, "file"),
            (_record_csv_argv, "record file"),
        ],
        ids=["solve", "verify", "classify", "simulate", "analyze"],
    )
    def test_non_utf8_file_is_one_error_line(self, capsys, tmp_path, argv, what):
        if argv is _record_csv_argv:  # the golden record with a stray byte appended
            rec = _record_dir(tmp_path, GOLDEN_RECORD.with_suffix(".json").read_text())
            path = rec / GOLDEN_RECORD.name
            path.write_bytes(path.read_bytes() + b"\xff\n")
        else:
            path = tmp_path / "in.json"
            path.write_bytes(b"\xff{}")
        code, out, err = run_cli(capsys, *argv(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: cannot read {what}: not UTF-8 text\n"

    @pytest.mark.parametrize(
        "sidecar,fragment",
        [
            ('{"format_version": 1,', "s7.json: malformed JSON"),
            (json.dumps(_sidecar_meta(**{"params.effort_min": DELETE})), "s7.json: params.effort_min: required"),
            (json.dumps(_sidecar_meta(**{"params.beta": 0})), "s7.json: params.beta: must be positive"),
            (json.dumps(_sidecar_meta(periods="12")), "s7.json: periods: bad value"),
            (json.dumps([]), "s7.json: expected a mapping"),
        ],
        ids=["malformed", "no-effort-min", "beta-zero", "periods-text", "list"],
    )
    def test_bad_sidecar_is_one_error_line(self, capsys, tmp_path, sidecar, fragment):
        code, out, err = run_cli(capsys, *_analyze_argv(_record_dir(tmp_path, sidecar)))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err

    def test_oversized_record_field_is_one_error_line(self, capsys, tmp_path):
        # a 200,000-character quoted field appended to the third data row
        rec = _record_dir(tmp_path, GOLDEN_RECORD.with_suffix(".json").read_text())
        csv_path = rec / GOLDEN_RECORD.name
        lines = csv_path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].rstrip("\n") + ',"' + "x" * 200_000 + '"\n'
        csv_path.write_text("".join(lines))
        code, out, err = run_cli(capsys, *_analyze_argv(rec))
        assert code == 1
        assert out == ""
        assert err == "error: s7.csv row 4: expected 11 fields, got 12\n"
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "column,cell,message",
        [
            (6, "1000000.0", "payoff cells do not match the stored efforts and intents"),
            (3, "nan", "effort is not a finite number in [0.0, 20.0]"),
        ],
        ids=["payoff_total", "nan-effort"],
    )
    def test_edited_record_cell_is_one_error_line(self, capsys, tmp_path, column, cell, message):
        rec = _record_dir(tmp_path, GOLDEN_RECORD.with_suffix(".json").read_text())
        csv_path = rec / GOLDEN_RECORD.name
        lines = csv_path.read_text().splitlines(keepends=True)
        fields = lines[3].rstrip("\n").split(",")  # period 1 agent 3
        fields[column] = cell
        lines[3] = ",".join(fields) + "\n"
        csv_path.write_text("".join(lines))
        code, out, err = run_cli(capsys, *_analyze_argv(rec))
        assert code == 1
        assert out == ""
        assert err == f"error: {csv_path}: period 1 agent 3: {message}\n"

    @pytest.mark.parametrize(
        "treatment,message",
        [("N5_LowCost", "params.kappa is 3.9, but the treatment has 1.0"),
         # the first parameter that differs is named, here before n
         ("N9_HighCost", "params.lambda is 0.4, but the treatment has 0.25")],
        ids=["N5_LowCost", "N9_HighCost"],
    )
    def test_records_of_another_treatment_are_one_error_line(self, capsys, tmp_path, treatment, message):
        rec = _record_dir(tmp_path, GOLDEN_RECORD.with_suffix(".json").read_text())
        argv = _analyze_argv(rec)
        argv[argv.index("--treatment") + 1] = treatment
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {rec / GOLDEN_RECORD.name}: {message}\n"

    def test_record_relabelled_as_another_session_is_one_error_line(self, capsys, tmp_path):
        # a copy of s2 whose sidecar and rows say s1 would load as a second s1
        rec = tmp_path / "records"
        shutil.copytree(Path(__file__).parent / "golden" / "sessions_n9" / "records", rec)
        for path in (rec / "s2.csv", rec / "s2.json"):
            path.write_text(path.read_text().replace("s2", "s1"))
        code, out, err = run_cli(capsys, "analyze", "--in", str(rec), "--treatment", "N9_HighCost",
                                 "--csv", str(tmp_path / "summary.csv"))
        assert (code, out) == (1, "")
        assert err == f"error: {rec / 's2.csv'}: the sidecar's session_id 's1' does not name this file\n"

    def test_zero_period_record_is_one_error_line(self, capsys, tmp_path):
        rec = _record_dir(tmp_path, json.dumps(_sidecar_meta(periods=0)))
        csv_path = rec / GOLDEN_RECORD.name
        csv_path.write_text(csv_path.read_text().splitlines(keepends=True)[0])  # header only
        code, out, err = run_cli(capsys, *_analyze_argv(rec))
        assert code == 1
        assert err == f"error: {csv_path.with_suffix('.json')}: periods: bad value 0\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
PAIRS = st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=6)
#: network and profile objects: known keys with near-valid or arbitrary values
#: (n = 5 matches the treatment the solve and verify calls name)
INPUT_OBJECTS = JSON_VALUES | st.fixed_dictionaries(
    {},
    optional={
        "n": st.just(5) | st.integers(-1, 11) | JSON_VALUES,
        "edges": PAIRS | JSON_VALUES,
        "intents": PAIRS | JSON_VALUES,
        "efforts": st.lists(st.floats(-1.0, 25.0), min_size=5, max_size=5)
        | st.lists(st.floats(), max_size=6)
        | JSON_VALUES,
    },
)
SIDECAR_KEYS = ["format_version", "session_id", "seed", "periods", "params"] + [
    f"params.{k}" for k in PARAM_KEYS
]
#: sidecars: arbitrary JSON, or the golden sidecar with one field replaced or deleted
SIDECARS = JSON_VALUES.map(json.dumps) | st.builds(
    lambda key, value: json.dumps(_sidecar_meta(**{key: value})),
    st.sampled_from(SIDECAR_KEYS),
    st.just(DELETE) | JSON_VALUES | st.integers(-2, 13),
)


def _assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@settings(max_examples=150, deadline=None, derandomize=True)
@given(obj=INPUT_OBJECTS, argv=st.sampled_from([_network_argv, _solve_argv, _profile_argv]))
def test_random_network_and_profile_files_never_traceback(obj, argv):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "in.json"
        path.write_text(json.dumps(obj))
        _assert_clean_exit(*_run_quiet(argv(path)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sidecar=SIDECARS)
def test_random_record_sidecars_never_traceback(sidecar):
    with tempfile.TemporaryDirectory() as root:
        _assert_clean_exit(*_run_quiet(_analyze_argv(_record_dir(root, sidecar))))


#: five agents covering every link-rule kind, both explicit logistic forms, and
#: preset and explicit effort rules with and without noise
BASE_POLICY = {"policies": [
    {"effort": {"preset": "N5_HighCost", "noise_sd": 0.5, "initial": "uniform"},
     "links": {"kind": "fixed_targets", "targets": [[2, 3], [], [1], [], [4]]}},
    {"effort": {"b0": 0.1, "b1": 0.4, "b2": 0.01, "initial": 5.0},
     "links": {"kind": "rank_top", "k": 2}},
    {"effort": {"b0": 0.2, "b1": 0.5, "b2": 0.0, "noise_sd": 0.5},
     "links": {"kind": "logistic", "coefficients": {
         "intercept": -0.5, "lagged_link": 1.0, "partner_effort": 0.05,
         "above_median": 0.2, "below_median": -0.1}}},
    {"effort": {"preset": "N5_LowCost"},
     "links": {"kind": "logistic", "odds_ratios": {
         "intercept": 0.7, "lagged_link": 2.8, "partner_effort": 1.05}}},
    {"effort": {"preset": "N5_LowCost", "noise_sd": 1.0},
     "links": {"kind": "benefit_threshold"}},
]}


def _field_paths(obj, prefix=()):
    """The key or index path of every value inside a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    paths = []
    for key, value in items:
        paths += [prefix + (key,)] + _field_paths(value, prefix + (key,))
    return paths


def _policy_with(path, value):
    """`BASE_POLICY` with the field at ``path`` replaced by ``value``, or deleted."""
    doc = copy.deepcopy(BASE_POLICY)
    *parents, last = path
    obj = doc
    for key in parents:
        obj = obj[key]
    if value is DELETE:
        del obj[last]
    else:
        obj[last] = value
    return doc


#: policy files: arbitrary JSON, or `BASE_POLICY` with one field replaced or deleted
POLICIES = JSON_VALUES | st.builds(
    _policy_with,
    st.sampled_from(_field_paths(BASE_POLICY)),
    st.just(DELETE) | JSON_VALUES | st.integers(-2, 7),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=POLICIES)
def test_random_policy_files_never_traceback(doc):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "policy.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate", "--treatment", "N5_HighCost", "--policy", str(path),
                "--periods", "3", "--reps", "2", "--out", str(Path(root) / "out")]
        _assert_clean_exit(*_run_quiet(argv))


def test_cold_import_does_not_load_numpy_random():
    # NumPy imports `numpy.random` on first use, which costs a cold process a few ms
    # and about 6 MB; only `simulate` needs it
    code = "import sys, lqnet.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True, check=True
    ).stdout
    assert out == "False\n"


# ---------------------------------------------------------------------------
# the process entry: `python -m lqnet.cli` and the `lqnet` script run `cli.entry`
# ---------------------------------------------------------------------------

_GOLDEN = GOLDEN_RECORD.parents[2]

#: every subcommand, then one usage error and one domain error; `simulate`
#: writes the records that `analyze` reads, and both write to relative paths
#: so that a run's report is the same in any working directory
PROCESS_CALLS = [
    ["solve", "--treatment", "N5_HighCost", "--network", "star"],
    ["verify", "--treatment", "N5_HighCost", "--profile", str(_GOLDEN / "profiles" / "tied.json")],
    ["enumerate", "--treatment", "N5_HighCost"],
    ["classify", "--network", "star", "--n", "5"],
    ["thresholds", "--treatment", "N5_HighCost"],
    ["simulate", "--treatment", "N5_HighCost", "--policy", str(_GOLDEN / "sessions_n5" / "policy.yaml"),
     "--periods", "6", "--reps", "2", "--seed", "3", "--out", "out"],
    ["analyze", "--in", "out", "--treatment", "N5_HighCost", "--window", "2:5", "--csv", "summary.csv"],
    ["analyze", "--in", "out", "--treatment", "N5_HighCost", "--window", "5:2"],
    ["solve", "--treatment", "N7_X", "--network", "star"],
]


def _in_process(capsys, argv):
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code, *capsys.readouterr()


def test_process_entry_matches_main(capsys, tmp_path, monkeypatch):
    # `-X dev` reports a file left open at exit, and `-W error` makes any warning
    # fail the run: the entry's freeze must leave output and written files as `main` does
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    monkeypatch.chdir(warm)
    codes = []
    for argv in PROCESS_CALLS:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "lqnet.cli", *argv],
            cwd=cold, env=SRC_ENV, capture_output=True, text=True,
        )
        code, out, err = _in_process(capsys, argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv
        assert (code == 0) == (err == ""), argv
        codes.append(code)
    assert codes == [0] * 7 + [2, 1]
    assert (cold / "summary.csv").read_bytes() == (warm / "summary.csv").read_bytes()
    assert file_hashes(cold / "out") == file_hashes(warm / "out")
    assert len(file_hashes(cold / "out")) == 4


def test_process_entry_freezes_the_imports():
    # the objects alive at the entry are frozen, so the collections at exit skip them
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count(), len(gc.get_objects())))\n"
        "sys.argv = ['lqnet', 'classify', '--network', 'star', '--n', '3']\n"
        "runpy.run_module('lqnet.cli', run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    frozen, tracked = map(int, proc.stdout.splitlines()[-1].split())
    assert frozen > tracked  # most objects alive at exit were built by the imports


def test_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    code, _, _ = run_cli(capsys, "classify", "--network", "star", "--n", "3")
    assert code == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_script_entry_is_the_main_guard_entry():
    # an installed `lqnet` and `python -m lqnet.cli` run the same callable
    tomllib = pytest.importorskip("tomllib")
    cli_path = Path(lqnet.__file__).parent / "cli.py"
    guard, = (top for top in ast.parse(cli_path.read_text(encoding="utf-8")).body
              if isinstance(top, ast.If) and ast.unparse(top.test) == "__name__ == '__main__'")
    called, = (ast.unparse(node.func) for node in ast.walk(guard)
               if isinstance(node, ast.Call) and ast.unparse(node.func) != "sys.exit")
    with (Path(lqnet.__file__).parents[2] / "pyproject.toml").open("rb") as f:
        assert tomllib.load(f)["project"]["scripts"]["lqnet"] == f"lqnet.cli:{called}"
