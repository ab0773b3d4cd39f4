"""run_suites: the thresholds are merged once, every suite name is checked
before any suite runs, and every threshold is read by some suite."""

import pytest

from scottish_lab import verify
from scottish_lab.errors import InvalidParameter


class _Recording(dict):
    """A threshold dict that records the keys read from it."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_threshold_is_read():
    th = _Recording(verify.DEFAULT_THRESHOLDS)
    for suite in verify.SUITES.values():
        assert all(isinstance(c, verify.CaseResult) for c in suite(0, th))
    assert len(verify.DEFAULT_THRESHOLDS) == 35
    assert sorted(set(verify.DEFAULT_THRESHOLDS) - th.read) == []


def test_thresholds_merged_once_and_reports_named_by_key(monkeypatch):
    seen = []
    for key in ("kernel", "besov"):
        monkeypatch.setitem(verify.SUITES, key, lambda seed, th: seen.append((seed, th)) or [])
    reports = verify.run_suites(iter(["besov", "kernel"]), seed=3, thresholds={"besov.rel_tol": "0.5"})
    assert [r.suite for r in reports] == ["besov", "kernel"]
    assert seen[0][1] is seen[1][1] and seen[0][1]["besov.rel_tol"] == 0.5
    assert [s for s, _ in seen] == [3, 3]
    assert verify.run_suite("kernel").suite == "kernel"


def test_names_checked_before_any_suite_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SUITES, "besov", lambda seed, th: ran.append(seed) or [])
    with pytest.raises(InvalidParameter, match="unknown suite"):
        verify.run_suites(["besov", "nope"])
    with pytest.raises(InvalidParameter, match="unknown threshold"):
        verify.run_suites(["besov"], thresholds={"nope.key": 1})
    assert ran == []
