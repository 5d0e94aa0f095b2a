"""Each output check of the benchmark accepts the program's output and
rejects a corrupted copy of it."""

import contextlib
import copy
import csv
import io
import json

import numpy as np
import pytest

import checks
import tracer
import workloads
from checks import CheckError
from lqnet import cli


def run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def thresholds_n9():
    return run_cli(["thresholds", "--treatment", "N9_HighCost"])


@pytest.fixture(scope="module")
def enumerate_n9():
    return run_cli(["enumerate", "--treatment", "N9_HighCost"])


@pytest.fixture
def session(tmp_path):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(workloads.policy_doc(5)))
    out = tmp_path / "records"
    doc = run_cli(["simulate", "--treatment", "N9_LowCost1", "--policy", str(policy),
                   "--periods", "6", "--reps", "3", "--seed", "5", "--out", str(out)])
    return doc, out


def test_thresholds_accepts_program_output(thresholds_n9):
    checks.check_thresholds(thresholds_n9, "N9_HighCost")


def test_thresholds_rejects_kappa2_moved(thresholds_n9):
    doc = copy.deepcopy(thresholds_n9)
    doc["kappa2"] += 1e-4
    with pytest.raises(CheckError, match="kappa2"):
        checks.check_thresholds(doc, "N9_HighCost")


def test_enumerate_accepts_program_output(enumerate_n9):
    supportable = checks.check_enumerate(enumerate_n9, "N9_HighCost")
    assert [c["label"] for c in supportable] == ["Empty", "Star", "Complete"]


def test_enumerate_rejects_witness_with_extra_link(enumerate_n9):
    doc = copy.deepcopy(enumerate_n9)
    star = next(c for c in doc["candidates"] if c["label"] == "Star")
    star["witness"]["intents"].append([2, 3])
    with pytest.raises(CheckError, match="does not realize"):
        checks.check_enumerate(doc, "N9_HighCost")
    # the same link also added to the candidate: the efforts no longer fit it
    star["edges"].append([2, 3])
    star["links"] += 1
    with pytest.raises(CheckError, match="Nash system"):
        checks.check_enumerate(doc, "N9_HighCost")


def test_deviation_search_finds_the_profitable_links():
    # empty network at kappa = 1: linking to k others pays (10 + k)^2 / 8 - k,
    # best at k = 4, against 12.5 for staying alone
    p = checks.TREATMENTS["N5_LowCost"][0]
    gain = checks.best_deviation_gain(p, np.full(5, 2.5), np.zeros((5, 5), dtype=bool))
    assert gain == pytest.approx(8.0, abs=1e-12)


def test_enumerate_rejects_dropped_label(enumerate_n9):
    doc = copy.deepcopy(enumerate_n9)
    doc["supportable_labels"].remove("Star")
    with pytest.raises(CheckError, match="published"):
        checks.check_enumerate(doc, "N9_HighCost")


@pytest.mark.parametrize("network", workloads.NAMED_NETWORKS)
@pytest.mark.parametrize("efficient", [False, True])
def test_solve_closed_forms(network, efficient):
    argv = ["solve", "--treatment", "N5_HighCost", "--network", network]
    doc = run_cli(argv + ["--efficient"] * efficient)
    checks.check_solve(doc, "N5_HighCost", network, efficient)
    doc["efforts"][-1] += 1e-4
    with pytest.raises(CheckError, match="effort"):
        checks.check_solve(doc, "N5_HighCost", network, efficient)


def test_verify_rejects_non_nash(enumerate_n9, tmp_path):
    witness = next(c["witness"] for c in enumerate_n9["candidates"] if c["label"] == "Empty")
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(witness))
    doc = run_cli(["verify", "--treatment", "N9_HighCost", "--profile", str(path)])
    checks.check_verify(doc, "N9_HighCost", witness)
    with pytest.raises(CheckError, match="deviation"):
        checks.check_verify(doc, "N9_LowCost1", witness)


def test_classify_rejects_wrong_core(tmp_path):
    net = {"n": 5, "edges": [[1, 3], [2, 3], [3, 4], [3, 5]]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    doc = run_cli(["classify", "--network", str(path)])
    checks.check_classify(doc, "Star", net, 3)
    with pytest.raises(CheckError, match="core"):
        checks.check_classify(doc, "Star", net, 1)


def test_records_reject_payoff_cell_moved(session):
    doc, out = session
    checks.check_records(out, doc, "N9_LowCost1", 6, 3, 5)
    path = out / "s6.csv"
    rows = list(csv.reader(path.open(newline="")))
    rows[7][6] = repr(float(rows[7][6]) + 1e-6)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(CheckError, match="payoff cell"):
        checks.check_records(out, doc, "N9_LowCost1", 6, 3, 5)


def test_records_reject_neighbor_ids_mismatch(session):
    doc, out = session
    path = out / "s5.csv"
    rows = list(csv.reader(path.open(newline="")))
    rows[1][5] = "" if rows[1][5] else "2"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(CheckError, match="neighbor_ids"):
        checks.check_records(out, doc, "N9_LowCost1", 6, 3, 5)


def test_analyze_rejects_moved_payoff(session, tmp_path):
    doc, out = session
    records = checks.check_records(out, doc, "N9_LowCost1", 6, 3, 5)
    summary = tmp_path / "summary.csv"
    report = run_cli(["analyze", "--in", str(out), "--treatment", "N9_LowCost1",
                      "--window", "full", "--csv", str(summary)])
    checks.check_analyze(report, records, "N9_LowCost1", summary)
    report["efficiency"]["avg_payoff"] += 1e-6
    with pytest.raises(CheckError, match="avg_payoff"):
        checks.check_analyze(report, records, "N9_LowCost1", summary)


@pytest.mark.parametrize("seed", range(6))
def test_policy_covers_every_rule(seed):
    policies = workloads.policy_doc(seed)["policies"]
    kinds = {p["links"]["kind"] for p in policies}
    assert kinds == {"benefit_threshold", "best_response", "rank_top", "logistic", "fixed_targets"}
    assert any("preset" in p["effort"] for p in policies)
    assert any("b0" in p["effort"] for p in policies)
    assert all(p["effort"]["noise_sd"] == 0.5 and p["effort"]["initial"] == "uniform"
               for p in policies)


def test_tracer_counts_and_restores():
    from lqnet import analysis, equilibria, verifier

    original = equilibria.nash_efforts
    rec = tracer.Tracer()
    rec.install()
    try:
        assert verifier.nash_efforts is equilibria.nash_efforts is analysis.nash_efforts
        assert equilibria.nash_efforts is not original
        run_cli(["solve", "--treatment", "N5_HighCost", "--network", "star"])
    finally:
        rec.uninstall()
    assert verifier.nash_efforts is original and analysis.nash_efforts is original
    m = rec.metrics()
    assert m["equilibria.nash_efforts.calls"] == 1
    assert m["equilibria.nash_efforts.distinct_networks"] == 1
    assert m["cli.main.calls"] == 1
    assert 0 <= m["equilibria.nash_efforts.self_s"] <= rec.inclusive_times()["cli.main"]
    assert set(m) == set(tracer.layer_metric_names())


def test_cold_times_are_scaled_by_the_calibration_around_them(monkeypatch, tmp_path):
    import run

    loops = iter([0.02, 0.04, 0.06])
    monkeypatch.setattr(run, "calibrate", lambda: next(loops))
    monkeypatch.setattr(run, "_spawn", lambda cmd, stem: (0, b"", 1.5, 1024))
    runner = run.ColdRunner(run.Ledger(), tmp_path)
    runner.time_setup()
    runner.time_setup()
    assert runner.raw_setup == [1.5, 1.5]
    ref = run.CALIBRATION_REF_S
    assert runner.setup == pytest.approx([1.5 * ref / 0.03, 1.5 * ref / 0.05])
    assert runner.ledger.attempted == 2 and runner.ledger.failed == 0
