import numpy as np
import pytest

from lqnet.model import GameParams


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one PASS/FAIL line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        label = item.name.removeprefix("test_")
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[{label}] {status}")


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Compile the numba kernels once so timed tests see steady-state speed."""
    from lqnet import kernels

    params = GameParams(theta=10.0, beta=4.0, lam=0.4, kappa=1.0, n=2)
    efforts = np.array([2.5, 2.5])
    masks = np.zeros(2, dtype=np.int64)
    kernels.deviation_scan(
        efforts, masks, masks, params.theta, params.beta, params.lam,
        params.kappa, params.effort_min, params.effort_max,
    )
    kernels.br_iteration(
        np.zeros((2, 2), dtype=bool), efforts, params.theta, params.beta,
        params.lam, params.effort_min, params.effort_max,
    )
