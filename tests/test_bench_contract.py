"""What the benchmark harness needs from the package.

``lqbench/run.py --trace 1`` wraps the functions named in
``lqbench/tracer.py::FUNCTIONS`` and its environment probe calls
``kernels.backend_name``; deleting or renaming any of them breaks the
benchmark, not a test of the package.  The tracer is loaded from its file,
as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

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
