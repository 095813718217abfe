"""Shared fixtures and the acceptance-summary hook.

Acceptance tests register one line each through record_acceptance; the hook
prints them after the normal pytest summary so a plain `pytest` run shows
the full gate status at a glance.
"""

import numpy as np
import pytest

from diffenh.sde import SdeSchedule

_ACCEPTANCE: dict[int, tuple[str, bool, str]] = {}


@pytest.fixture
def record_acceptance():
    def _record(number: int, label: str, passed: bool, detail: str):
        _ACCEPTANCE[number] = (label, passed, detail)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE):
        label, passed, detail = _ACCEPTANCE[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number}: {verdict} - {label}: {detail}")


@pytest.fixture(scope="session")
def default_schedule():
    return SdeSchedule()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
