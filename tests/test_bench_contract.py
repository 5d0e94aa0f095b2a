"""What the benchmark harness needs from the package.

``lqbench/run.py --trace 1`` wraps the functions named in
``lqbench/tracer.py::FUNCTIONS`` and its environment probe calls
``kernels.backend_name``; deleting or renaming any of them breaks the
benchmark, not a test of the package.  The tracer is loaded from its file,
as it stands.  The harness times each command as a cold process, so what a
bare ``import lqnet.cli`` loads is part of the contract too.
"""

import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lqnet.cli  # noqa: F401  (imports every module the tracer wraps)

_spec = importlib.util.spec_from_file_location(
    "lqbench_tracer", Path(__file__).resolve().parent.parent / "lqbench" / "tracer.py"
)
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


def _fresh_modules(code: str) -> set[str]:
    """Names in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    src = Path(lqnet.cli.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules, file=sys.stderr)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
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
    "dynamics.SessionRecord",
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
