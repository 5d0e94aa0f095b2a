"""`tools/mutants.py`, the mutation-analysis script, on a fixed snippet and a short run."""

import ast
import hashlib
import importlib.util
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

# one site of each operator, plus an annotation and an f-string, which are left alone;
# "κ" puts a two-byte character before the sites on its line
SNIPPET = '''\
def f(x: float | None, y, z):
    ok = {"κ": (x < y) & ~z | (y >= 0.5)}
    return min(np.minimum(x, y), 2) if ok and not z else f"{x | y}"
'''


def test_every_operator_yields_source_that_parses():
    found = mutants.mutants(SNIPPET)
    # flips 2 + 2, drops 2 + 2 + 1 + 2 + 1, nudges 2, branches 2, swaps 2, unclip 1
    assert len(found) == 19
    assert {m.op for m in found} == {"flip", "drop", "nudge", "swap", "unclip", "branch"}
    for m in found:
        ast.parse(m.source)
        old, new = SNIPPET.splitlines(), m.source.splitlines()
        assert [k + 1 for k, (a, b) in enumerate(zip(old, new)) if a != b] == [m.line]
        assert f"({m.replacement})" in new[m.line - 1]
    assert {m.replacement for m in found if m.line == 2} >= {"x <= y", "~z", "x < y", "0.0", "500.0"}
    assert {m.replacement for m in found if m.line == 3} >= {"ok", "not z", "z", "x"}


def _tree_hashes():
    return {
        path: hashlib.sha256(path.read_bytes()).hexdigest()
        for name in mutants.TREE
        for path in sorted((ROOT / name).rglob("*") if (ROOT / name).is_dir() else [ROOT / name])
        if path.is_file() and "__pycache__" not in path.parts
    }


def test_run_mutates_a_copy_and_leaves_the_checkout_unchanged():
    rel = "src/lqnet/equilibria.py"
    digest = hashlib.sha256((ROOT / rel).read_bytes()).hexdigest()
    unchanged = (f"import hashlib, sys; "
                 f"sys.exit(hashlib.sha256(open({rel!r}, 'rb').read()).hexdigest() != {digest!r})")
    line = mutants.mutants((ROOT / rel).read_text())[0].line
    before = _tree_hashes()
    verdicts = list(mutants.survey("equilibria", [[sys.executable, "-c", unchanged]], lines={line}))
    assert _tree_hashes() == before
    assert verdicts and all(m.line == line for m, _ in verdicts)
    # every mutant reached the copy: the unmutated file passed the same check first
    assert {v for _, v in verdicts} == {"killed by exit 1"}


def test_a_run_past_its_limit_is_a_timeout(tmp_path):
    start = time.perf_counter()
    assert mutants._run([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, 0.2) == "timeout"
    assert time.perf_counter() - start < 5
