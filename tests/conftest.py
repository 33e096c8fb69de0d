import pytest

import _acceptance_report
from etsfore import data


@pytest.fixture(autouse=True)
def _no_stored_parse(monkeypatch):
    # each test starts with no file's parse stored, so none sees another's
    monkeypatch.setattr(data, "_PARSED", {})


def pytest_terminal_summary(terminalreporter):
    if _acceptance_report.lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_report.lines:
            terminalreporter.line(line)
