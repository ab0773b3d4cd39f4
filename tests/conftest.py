"""Shared fixtures: each verification suite runs at most once per session."""

import pytest

from scottish_lab import verify


class _Recording(dict):
    """A threshold dict that records the keys read from it."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.fixture(scope="session")
def suite_report():
    """suite_report(name) is the SuiteReport of that suite at seed 0 and the
    default thresholds.  Every suite reads one recording threshold dict, so
    suite_report.read holds the keys read by the suites run so far."""
    th = _Recording(verify.merged_thresholds(None))
    suites = dict(verify.SUITES)
    reports = {}

    def report(name):
        if name not in reports:
            reports[name] = verify.SuiteReport(name, suites[name](0, th))
        return reports[name]

    report.read = th.read
    return report
