"""What the benchmark harness needs from the package.

``lqbench/run.py --trace 1`` wraps the functions named in
``lqbench/tracer.py::FUNCTIONS`` and its environment probe calls
``kernels.backend_name``; deleting or renaming any of them breaks the
benchmark, not a test of the package.  The tracer is loaded from its file,
as it stands.  The harness times each command as a cold process, so what a
bare ``import lqnet.cli`` registers in ``sys.modules``, and which modules each
command then runs, is part of the contract too.
"""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lqnet
import lqnet.cli  # noqa: F401  (registers every module the tracer wraps)

TRACER = Path(__file__).resolve().parent.parent / "lqbench" / "tracer.py"
GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("lqbench_tracer", TRACER)
tracer_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_module)


def test_every_traced_and_probed_function_exists():
    missing = [
        f"{module}.{func}"
        for module, func in (*tracer_module.FUNCTIONS, ("kernels", "backend_name"))
        if not callable(getattr(importlib.import_module(f"lqnet.{module}"), func, None))
    ]
    assert missing == []


def test_tracer_installs_and_uninstalls():
    originals = {
        (module, func): getattr(importlib.import_module(f"lqnet.{module}"), func)
        for module, func in tracer_module.FUNCTIONS
    }
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for (module, func), original in originals.items():
        assert getattr(importlib.import_module(f"lqnet.{module}"), func) is original


def test_traced_read_record_counts_its_rows():
    # the tracer's hook reads ``T`` and ``n`` off the record `read_record` returns
    from lqnet import session_io

    golden = Path(__file__).parent / "golden" / "sessions_n9" / "records"
    csv_path = sorted(golden.glob("*.csv"))[0]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        record = session_io.read_record(csv_path)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["session_io.read_record.calls"] == 1
    assert metrics["session_io.read_record.rows"] == record.T * record.n == 12 * 9
    assert metrics["model.payoff_components.calls"] == 1


@pytest.mark.parametrize(
    "argv, br_path",
    [(["--network", "complete", "--efficient"], 1), (["--network", "star"], 0)],
    ids=["capped-efficient-complete", "interior-nash-star"],
)
def test_traced_solve_counts_the_br_path(capsys, argv, br_path):
    # the tracer's ``br_path`` hook reads `EffortSolution.iterations`, the held-set
    # changes: the planner's K9 under N9_HighCost (ratio 1) caps in one change
    from lqnet import cli

    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        code = cli.main(["solve", "--treatment", "N9_HighCost", *argv])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics()
    assert code == 0
    assert metrics["equilibria.nash_efforts.calls"] == metrics["kernels.br_iteration.calls"] == 1
    assert metrics["equilibria.nash_efforts.br_path"] == br_path


def test_traced_sessions_round_prints_what_an_untraced_one_prints(tmp_path, capsys):
    # ``--trace 1`` runs the sessions workload's simulate and analyze under the tracer
    from lqnet import cli

    policy = Path(__file__).parent / "golden" / "sessions_n9" / "policy.yaml"

    def run(name: str) -> list[str]:
        work = tmp_path / name
        outputs = []
        for argv in (
            ["simulate", "--treatment", "N9_LowCost1", "--policy", str(policy), "--periods", "6",
             "--reps", "3", "--seed", "2", "--out", str(work / "records")],
            ["analyze", "--in", str(work / "records"), "--treatment", "N9_LowCost1",
             "--csv", str(work / "summary.csv")],
        ):
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out.replace(str(work), "WORK"))
        return outputs

    untraced = run("untraced")
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        traced = run("traced")
    finally:
        tracer.uninstall()
    assert traced == untraced
    metrics = tracer.metrics()
    # the three replications step together: one call per period
    assert metrics["dynamics.step_links.calls"] == 6
    assert metrics["dynamics.step_effort.calls"] == 5
    assert metrics["session_io.write_record.calls"] == metrics["session_io.read_record.calls"] == 3


_ENV = dict(os.environ, PYTHONPATH=str(Path(lqnet.cli.__file__).resolve().parent.parent))
#: the lqnet modules whose source has run; a lazily registered one is another type
_RAN = "(k for k, m in sys.modules.items() if k.startswith('lqnet') and type(m) is types.ModuleType)"


def _fresh_modules(code: str, names: str = "sys.modules") -> set[str]:
    """The ``names`` (by default every name in ``sys.modules``) after running ``code``
    in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys, types; print(*{names}, file=sys.stderr)"],
        env=_ENV, capture_output=True, text=True, check=True,
    ).stderr
    return set(out.split())


@pytest.fixture(scope="module")
def cold_cli_modules():
    """Names in ``sys.modules`` after ``import lqnet.cli`` in a fresh interpreter."""
    return _fresh_modules("import lqnet.cli")


def test_cold_cli_import_loads_every_traced_module(cold_cli_modules):
    wanted = {f"lqnet.{module}" for module, _ in tracer_module.FUNCTIONS}
    assert sorted(wanted - cold_cli_modules) == []


def test_cold_cli_import_does_not_load_yaml(cold_cli_modules):
    assert "yaml" not in cold_cli_modules


@pytest.mark.parametrize("command", ["thresholds", "enumerate"])
def test_cold_support_command_does_not_load_numpy_ma(command):
    # `np.unique` imports `numpy.ma` on its first call, about 20 ms of a cold process
    modules = _fresh_modules(
        f"import lqnet.cli; lqnet.cli.main(['{command}', '--treatment', 'N5_HighCost'])"
    )
    assert "lqnet.verifier" in modules
    assert "numpy.ma" not in modules


def test_lazy_submodules_are_all_but_model_errors_and_cli():
    submodules = {info.name for info in pkgutil.iter_modules(lqnet.__path__)}
    assert sorted(lqnet._LAZY_SUBMODULES) == sorted(submodules - {"model", "errors", "cli"})


_ALWAYS = {"lqnet", "lqnet.cli", "lqnet.errors", "lqnet.model"}


@pytest.mark.parametrize(
    "argv,ran",
    [
        (None, set()),
        (["solve", "--treatment", "N5_HighCost", "--network", "star"], {"files", "equilibria", "kernels"}),
        (["verify", "--treatment", "N5_HighCost", "--profile", str(GOLDEN / "profiles" / "tied.json")],
         {"files", "verifier", "equilibria", "kernels"}),
        (["enumerate", "--treatment", "N5_HighCost"],
         {"files", "verifier", "equilibria", "kernels", "structure"}),
        (["classify", "--network", "star", "--n", "5"], {"files", "structure"}),
        (["simulate", "--treatment", "N9_HighCost", "--policy", str(GOLDEN / "sessions_n9" / "policy.yaml"),
          "--periods", "3", "--out", "{tmp}"], {"files", "session_io", "dynamics"}),
        (["analyze", "--in", str(GOLDEN / "sessions_n9" / "records"), "--treatment", "N9_HighCost",
          "--csv", "{tmp}/summary.csv"],
         {"files", "session_io", "analysis", "kernels", "structure"}),
        (["thresholds", "--treatment", "N5_HighCost"], {"verifier", "equilibria", "kernels", "structure"}),
    ],
    ids=["import", "solve", "verify", "enumerate", "classify", "simulate", "analyze", "thresholds"],
)
def test_each_command_runs_only_its_modules(tmp_path, argv, ran):
    code = "import lqnet.cli"
    if argv is not None:
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code += f"\nassert lqnet.cli.main({argv!r}) == 0"
    assert _fresh_modules(code, _RAN) == _ALWAYS | {f"lqnet.{name}" for name in ran}


def _imported_modules(path: Path) -> set[str]:
    """The modules a source file imports, package-relative ones by their own name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_records_do_not_import_the_simulator_and_only_it_reads_yaml():
    # a record reducer needs `session_io` alone; the policy reader lives with its rules
    paths = sorted(Path(lqnet.__file__).parent.glob("*.py"))
    imports = {path.name: _imported_modules(path) for path in paths}
    assert {"dynamics", "lqnet.dynamics"}.isdisjoint(imports["session_io.py"])
    assert [name for name, found in imports.items() if "yaml" in found] == ["dynamics.py"]


def test_simulator_record_type_is_the_record_modules():
    assert lqnet.dynamics.SessionRecord is lqnet.session_io.SessionRecord


def test_tracer_installs_on_a_bare_cli_import():
    # the tracer looks each module up in ``sys.modules`` and takes each function with
    # ``getattr``, which runs a lazily registered module; uninstalling leaves no wrapper
    code = f"""
import importlib.util, sys, types, lqnet.cli
assert type(sys.modules["lqnet.verifier"]) is not types.ModuleType
spec = importlib.util.spec_from_file_location("lqbench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
wrapper = tracer.Tracer()._wrap("probe", print).__code__
rec = tracer.Tracer()
rec.install()
unwrapped = [m + "." + f for m, f in tracer.FUNCTIONS
             if getattr(sys.modules["lqnet." + m], f).__code__ is not wrapper]
rec.uninstall()
left = [k + "." + a for k, m in sys.modules.items() if k.startswith("lqnet")
        for a, v in vars(m).items() if getattr(v, "__code__", None) is wrapper]
"""
    assert _fresh_modules(code, "[*unwrapped, *left]") == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["thresholds", "--treatment", "N5_HighCost"],
        ["solve", "--treatment", "N9_LowCost1", "--network", "star"],
        ["simulate", "--treatment", "N9_HighCost", "--policy", str(GOLDEN / "sessions_n9" / "policy.yaml"),
         "--periods", "3", "--out", "{tmp}"],
    ],
    ids=["thresholds", "solve", "simulate"],
)
def test_module_run_writes_nothing_to_stderr(tmp_path, argv):
    # the harness runs ``python -m lqnet.cli``; runpy warns if the package registers `cli`
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "lqnet.cli", *argv], env=_ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


#: the types whose ``__post_init__`` validates or normalises its fields; every
#: other record is a `typing.NamedTuple`, which a cold process builds in about
#: half the time
VALIDATED_DATACLASSES = {
    "model.GameParams",
    "model.IntentProfile",
    "model.Network",
    "model.EffortProfile",
    "model.StrategyProfile",
    "dynamics.EffortRule",
    "dynamics.LogisticCoefficients",
    "dynamics.LinkRule",
    "session_io.SessionRecord",
}


def test_only_validated_types_are_dataclasses():
    modules = [
        importlib.import_module(f"lqnet.{info.name}")
        for info in pkgutil.iter_modules(importlib.import_module("lqnet").__path__)
    ]
    found = {
        f"{module.__name__.removeprefix('lqnet.')}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and dataclasses.is_dataclass(obj)
    }
    assert found == VALIDATED_DATACLASSES
