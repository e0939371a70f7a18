import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from otocsim import dynamics

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# Collected call-phase reports for the acceptance checks, printed as a
# checklist at the end of the run (one line per check).
_acceptance_reports = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_reports.append(report)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_reports:
        return
    terminalreporter.section("acceptance checklist")
    for rep in _acceptance_reports:
        name = rep.nodeid.split("::")[-1]
        if hasattr(rep, "wasxfail"):
            status = "RED (expected, see notes)" if rep.skipped else "UNEXPECTED PASS"
        elif rep.passed:
            status = "PASS"
        else:
            status = "FAIL"
        terminalreporter.write_line(f"{name:<62s} {status}")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def no_eigensolver(monkeypatch):
    """Any call of dense eigh, of the tridiagonal solver or of the bidiagonal
    SVD (LAPACK dbdsqr) fails the test."""
    def solver(*args, **kwargs):
        raise AssertionError("an eigensolver ran")
    monkeypatch.setattr(np.linalg, "eigh", solver)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", solver)
    monkeypatch.setattr(dynamics, "_dbdsqr", solver)
