"""Mutation analysis of lqnet's modules: which of their lines can change unnoticed.

    python tools/mutants.py [--at LINE,...] MODULE [MODULE ...]

MODULE names ``src/lqnet/MODULE.py``.  Each mutation site there gives one
mutant, written into a temporary copy of the tree; the checkout is only read.
A mutant runs the module's own tests (``tests/test_MODULE.py``) and, if they
pass, the whole Tier-1 suite.  It is *killed* when a run fails (the first
failing test is named), *timed out* when a run takes more than three times the
unmutated run plus 10 s, and *survived* otherwise.  The operators:

* ``flip`` a comparison's boundary (``<`` and ``<=``, ``>`` and ``>=``), or negate it;
* ``drop`` one operand of ``and``, ``&`` or ``|``, or a ``not`` or ``~``;
* ``nudge`` a non-zero float constant to 0 or to 1000 times itself;
* ``swap`` ``min`` and ``max``, ``minimum`` and ``maximum``, ``argmin`` and ``argmax``;
* ``unclip`` a ``minimum``, ``maximum``, ``clip`` or ``nextafter`` call to its first argument;
* ``branch``: a conditional expression becomes one of its branches.

Annotations and f-strings are left alone.  Mutants are tested one per usable
CPU at a time.  Every mutant costs at least one test-file run and every
surviving one a full suite run; that is why the tool is not part of Tier-1,
and ``tests/test_mutants_tool.py`` checks only the tool.
"""

import argparse
import ast
import copy
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TREE = ("src", "tests", "lqbench", "tools", "pyproject.toml")
FLIPS = {ast.Lt: (ast.LtE, ast.GtE), ast.LtE: (ast.Lt, ast.Gt), ast.Gt: (ast.GtE, ast.LtE),
         ast.GtE: (ast.Gt, ast.Lt), ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,),
         ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,), ast.In: (ast.NotIn,), ast.NotIn: (ast.In,)}
SWAPS = {"min": "max", "max": "min", "minimum": "maximum", "maximum": "minimum",
         "argmin": "argmax", "argmax": "argmin"}
CLIPS = {"minimum", "maximum", "clip", "nextafter"}
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


class Mutant(NamedTuple):
    line: int
    col: int
    op: str
    replacement: str
    source: str


def _nodes(tree):
    """Every node of ``tree`` outside annotations and f-strings."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns") and not isinstance(node, ast.JoinedStr):
                stack.extend(v for v in (value if isinstance(value, list) else [value])
                             if isinstance(v, ast.AST))


def _variants(node):
    """(operator, replacement node) of each mutant of this one node."""
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            for new in FLIPS.get(type(op), ()):
                yield "flip", ast.Compare(node.left, [*node.ops[:k], new(), *node.ops[k + 1:]],
                                          node.comparators)
    elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
        for k in range(len(node.values)):
            rest = node.values[:k] + node.values[k + 1:]
            yield "drop", rest[0] if len(rest) == 1 else ast.BoolOp(ast.And(), rest)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
        yield from (("drop", node.left), ("drop", node.right))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.Invert)):
        yield "drop", node.operand
    elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
        yield from (("nudge", ast.Constant(0.0)), ("nudge", ast.Constant(node.value * 1000)))
    elif isinstance(node, ast.IfExp):
        yield from (("branch", node.body), ("branch", node.orelse))
    elif isinstance(node, ast.Call):
        field = "attr" if isinstance(node.func, ast.Attribute) else "id"
        name = getattr(node.func, field, None)
        if name in SWAPS:
            func = copy.copy(node.func)
            setattr(func, field, SWAPS[name])
            yield "swap", ast.Call(func, node.args, node.keywords)
        if name in CLIPS and node.args:
            yield "unclip", node.args[0]


def mutants(source: str) -> list[Mutant]:
    """Every mutant of ``source``, in source order; each replaces one node's text."""
    data = source.encode()  # AST column offsets count UTF-8 bytes
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    out = []
    for node in _nodes(ast.parse(source)):
        for op, new in _variants(node):
            text = ast.unparse(new)
            a = starts[node.lineno - 1] + node.col_offset
            b = starts[node.end_lineno - 1] + node.end_col_offset
            out.append(Mutant(node.lineno, node.col_offset, op, text,
                              (data[:a] + f"({text})".encode() + data[b:]).decode()))
    return sorted(out)


def _run(cmd, cwd: Path, timeout):
    """``passed``, ``timeout`` or ``killed by <first failure>``, for one command in ``cwd``."""
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the whole group: a test may have started children
        proc.communicate()
        return "timeout"
    if proc.returncode == 0:
        return "passed"
    failed = [line.split(" - ")[0] for line in out.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return f"killed by {failed[0] if failed else f'exit {proc.returncode}'}"


def survey(module: str, commands, jobs=1, lines=None):
    """Yield ``(mutant, verdict)`` for the mutants of ``src/lqnet/<module>.py`` (those on
    ``lines``, if given), each tested by ``commands`` in turn, ``jobs`` at a time."""
    rel = Path("src", "lqnet", f"{module}.py")
    source = (ROOT / rel).read_text()
    todo = [m for m in mutants(source) if lines is None or m.line in lines]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies = Queue()
        for k in range(jobs):
            for name in TREE:
                if (ROOT / name).is_dir():
                    shutil.copytree(ROOT / name, Path(tmp, str(k), name),
                                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
                elif (ROOT / name).exists():
                    shutil.copy2(ROOT / name, Path(tmp, str(k), name))
            copies.put(Path(tmp, str(k)))
        limits = []
        for cmd in commands:
            start = time.perf_counter()
            if (verdict := _run(cmd, copies.queue[0], None)) != "passed":
                raise RuntimeError(f"{module}: the unmutated tree fails {cmd[-1]}: {verdict}")
            limits.append(3 * (time.perf_counter() - start) + 10)

        def test(mutant):
            where = copies.get()
            try:
                (where / rel).write_text(mutant.source)
                for cmd, limit in zip(commands, limits):
                    if (verdict := _run(cmd, where, limit)) != "passed":
                        return mutant, verdict
                return mutant, "survived"
            finally:
                (where / rel).write_text(source)
                copies.put(where)

        with ThreadPoolExecutor(jobs) as pool:
            yield from pool.map(test, todo)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module names under src/lqnet")
    parser.add_argument("--at", help="only the mutants on these comma-separated lines")
    args = parser.parse_args(argv)
    lines = None if args.at is None else {int(k) for k in args.at.split(",")}
    jobs = len(os.sched_getaffinity(0))
    for module in args.modules:
        commands = [PYTEST + [f"tests/test_{module}.py"], PYTEST + ["--continue-on-collection-errors"]]
        counts = Counter()
        for m, verdict in survey(module, commands, jobs, lines):
            counts[verdict.split()[0]] += 1
            print(f"{module}.py:{m.line} {m.op} -> {m.replacement[:60]}  {verdict}", flush=True)
        print(f"{module}: {counts.total()} mutants, {counts['killed']} killed, "
              f"{counts['timeout']} timed out, {counts['survived']} survived", flush=True)


if __name__ == "__main__":
    main()
