"""CLI output pinned byte for byte.

Each ``golden/{thresholds,enumerate}_<treatment>.json`` holds the stdout of
``lqnet thresholds`` (default grid) or ``lqnet enumerate`` for one
treatment.  Witnesses, ``orientations_tried``, grid patterns and threshold
floats all show up here, so a change to search order or tie-breaking fails
this test.

Each ``golden/sessions_<set>/`` directory holds a per-agent ``policy.yaml``
that mixes every link-rule kind with preset and explicit effort rules, the
``records/`` a seeded ``lqnet simulate`` wrote from it, and, for the windows
``full``, ``last10`` and ``3:8``, the stdout of ``lqnet analyze`` on those
records (``analyze_<window>.json``) and its summary CSV
(``summary_<window>.csv``).

To regenerate after an intended change, from the repository root::

    PYTHONPATH=src python -m lqnet.cli thresholds --treatment T > tests/golden/thresholds_T.json
    PYTHONPATH=src python -m lqnet.cli enumerate --treatment T > tests/golden/enumerate_T.json

and, in ``tests/golden/sessions_<set>/``, with the treatment, replication
count and seed that ``SESSIONS`` below gives for the set::

    rm -rf records
    PYTHONPATH=../../../src python -m lqnet.cli simulate --treatment T \\
        --policy policy.yaml --periods 12 --reps R --seed S --out records
    PYTHONPATH=../../../src python -m lqnet.cli analyze --in records --treatment T \\
        --window full --csv summary_full.csv > analyze_full.json
    PYTHONPATH=../../../src python -m lqnet.cli analyze --in records --treatment T \\
        --window last10 --csv summary_last10.csv > analyze_last10.json
    PYTHONPATH=../../../src python -m lqnet.cli analyze --in records --treatment T \\
        --window 3:8 --csv summary_3-8.csv > analyze_3-8.json
"""

from pathlib import Path

import pytest

from lqnet.cli import main

GOLDEN = Path(__file__).parent / "golden"
TREATMENTS = ["N5_LowCost", "N5_HighCost", "N9_LowCost1", "N9_LowCost2", "N9_HighCost"]

#: session golden set -> (treatment, replications, seed); 12 periods each
SESSIONS = {
    "n5": ("N5_HighCost", 4, 7),
    "n9": ("N9_HighCost", 2, 1),
}
WINDOWS = ["full", "last10", "3:8"]


@pytest.mark.parametrize("treatment", TREATMENTS)
@pytest.mark.parametrize("command", ["thresholds", "enumerate"])
def test_stdout_matches_golden(capsys, command, treatment):
    assert main([command, "--treatment", treatment]) == 0
    expected = (GOLDEN / f"{command}_{treatment}.json").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_simulate_records_match_golden(capsys, tmp_path, name):
    treatment, reps, seed = SESSIONS[name]
    golden = GOLDEN / f"sessions_{name}"
    argv = [
        "simulate", "--treatment", treatment, "--policy", str(golden / "policy.yaml"),
        "--periods", "12", "--reps", str(reps), "--seed", str(seed),
        "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    expected = sorted(p.name for p in (golden / "records").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for file_name in expected:
        assert (tmp_path / file_name).read_bytes() == (golden / "records" / file_name).read_bytes()


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_analyze_matches_golden(capsys, tmp_path, monkeypatch, name, window):
    treatment = SESSIONS[name][0]
    golden = GOLDEN / f"sessions_{name}"
    tag = window.replace(":", "-")
    # a relative --csv keeps the path printed in stdout independent of tmp_path
    monkeypatch.chdir(tmp_path)
    argv = [
        "analyze", "--in", str(golden / "records"), "--treatment", treatment,
        "--window", window, "--csv", f"summary_{tag}.csv",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == (golden / f"analyze_{tag}.json").read_text()
    assert (tmp_path / f"summary_{tag}.csv").read_bytes() == (
        golden / f"summary_{tag}.csv"
    ).read_bytes()
