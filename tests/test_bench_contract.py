"""What the benchmark harness needs from the package.

``lqbench/run.py --trace 1`` wraps the functions named in
``lqbench/tracer.py::FUNCTIONS`` and its environment probe calls
``kernels.backend_name``; deleting or renaming any of them breaks the
benchmark, not a test of the package.  The tracer is loaded from its file,
as it stands.  The harness times each command as a cold process, so what a
bare ``import lqnet.cli`` loads is part of the contract too.
"""

import importlib
import importlib.util
import os
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


@pytest.fixture(scope="module")
def cold_cli_modules():
    """Names in ``sys.modules`` after ``import lqnet.cli`` in a fresh interpreter."""
    src = Path(lqnet.cli.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", "import sys, lqnet.cli; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


def test_cold_cli_import_loads_every_traced_module(cold_cli_modules):
    wanted = {f"lqnet.{module}" for module, _ in tracer_module.FUNCTIONS}
    assert sorted(wanted - cold_cli_modules) == []


def test_cold_cli_import_does_not_load_yaml(cold_cli_modules):
    assert "yaml" not in cold_cli_modules
