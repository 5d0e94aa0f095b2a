"""CLI stdout pinned byte for byte on every bundled treatment.

Each file in ``golden/`` holds the stdout of ``lqnet thresholds`` (default
grid) or ``lqnet enumerate`` for one treatment.  Witnesses,
``orientations_tried``, grid patterns and threshold floats all show up
here, so a change to search order or tie-breaking fails this test.  To
regenerate after an intended change, from the repository root::

    PYTHONPATH=src python -m lqnet.cli thresholds --treatment T > tests/golden/thresholds_T.json
    PYTHONPATH=src python -m lqnet.cli enumerate --treatment T > tests/golden/enumerate_T.json
"""

from pathlib import Path

import pytest

from lqnet.cli import main

GOLDEN = Path(__file__).parent / "golden"
TREATMENTS = ["N5_LowCost", "N5_HighCost", "N9_LowCost1", "N9_LowCost2", "N9_HighCost"]


@pytest.mark.parametrize("treatment", TREATMENTS)
@pytest.mark.parametrize("command", ["thresholds", "enumerate"])
def test_stdout_matches_golden(capsys, command, treatment):
    assert main([command, "--treatment", treatment]) == 0
    expected = (GOLDEN / f"{command}_{treatment}.json").read_text()
    assert capsys.readouterr().out == expected
