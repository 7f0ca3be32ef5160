"""Shared fixtures and the acceptance-line reporter.

Helpers that test modules import live in ksmv_helpers.py, a name no other
test directory uses, so this suite can run in one session with
perfbench/tests.  A terminal-summary hook prints the lines the acceptance
suite records there, so they are visible even under captured output.
"""

import pytest

from ksmv.grid import Grid1D, TimeMesh
from ksmv.kernel import KernelSpec

from ksmv_helpers import ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[num])


@pytest.fixture(scope="session")
def grid():
    return Grid1D(half_width=10.0, n=512)


@pytest.fixture(scope="session")
def fine_grid():
    return Grid1D(half_width=10.0, n=1024)


@pytest.fixture(scope="session")
def mesh():
    return TimeMesh(horizon=1.0, steps=200)


@pytest.fixture(scope="session")
def ks_spec():
    return KernelSpec(chi=1.0, lam=0.0)


@pytest.fixture(scope="session")
def ks_spec_decay():
    return KernelSpec(chi=1.0, lam=0.5)
