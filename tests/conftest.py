import pytest


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one PASS/FAIL line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        label = item.name.removeprefix("test_")
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[{label}] {status}")
