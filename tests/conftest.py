import re

import pytest

from qhetfed import harness

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion that ran."""
    outcomes: dict[int, bool] = {}
    for status, ok in (("passed", True), ("failed", False), ("error", False)):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                num = int(match.group(1))
                outcomes[num] = outcomes.get(num, True) and ok
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(outcomes):
        verdict = "PASS" if outcomes[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict}")


@pytest.fixture(autouse=True)
def _at_most_two_workers(monkeypatch):
    """An experiment run by a test starts at most two worker processes, on any machine."""
    usable = harness._usable_cpus
    monkeypatch.setattr(harness, "_usable_cpus", lambda: min(2, usable()))
