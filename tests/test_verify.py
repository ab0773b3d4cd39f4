"""run_suites: the thresholds are merged once, every suite name and every
override's domain is checked before any suite runs, and every threshold is
read by some suite."""

import re

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


def test_every_threshold_has_a_domain_holding_its_default():
    assert set(verify.THRESHOLD_DOMAINS) == set(verify.DEFAULT_THRESHOLDS)
    for key, (_, test) in verify.THRESHOLD_DOMAINS.items():
        assert test(verify.DEFAULT_THRESHOLDS[key]), key


@pytest.mark.parametrize(
    "key, value",
    [("kernel.partition_kmax", "-1"), ("kernel.partition_kmax", "-5"), ("inj.cases", "0"),
     ("w88.tail_factor", "0"), ("w8.nmax", "0"), ("w8.block_lo", "-1"),
     ("inj.match_min", "1.5"), ("besov.rel_tol", "nan"), ("w8.exp_lo", "inf"),
     # past the library's own caps
     ("mazur.flat_kmax", "21"), ("w8.nmax", "21"), ("w88.m_hi", "25"), ("w88.lkk_nmax", "25"),
     ("kernel.partition_kmax", str(1 << 25))],
)
def test_out_of_range_overrides_refused_before_any_suite_runs(key, value, monkeypatch):
    ran = []
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda seed, th: ran.append(seed) or [])
    with pytest.raises(InvalidParameter, match=re.escape(repr(key))):
        verify.run_suites(list(verify.SUITES), thresholds={key: value})
    assert ran == []


@pytest.mark.parametrize("value", [2.5, True])
def test_int_threshold_refuses_fractions_and_bools(value):
    with pytest.raises(InvalidParameter, match=re.escape("'besov.jmax'")):
        verify.merged_thresholds({"besov.jmax": value})


@pytest.mark.parametrize(
    "suite, overrides",
    [("kernel", {"kernel.partition_kmax": 0}),
     ("inj-oracle", {"inj.cases": 1}),
     ("witness88", {"w88.tail_factor": 5e-324, "w88.m_hi": 4, "w88.lkk_nmax": 2}),
     ("witness8", {"w8.nmax": 1, "w8.block_lo": 0, "w8.pairs": 1})],
)
def test_domain_edges_run_to_a_report(suite, overrides):
    assert verify.run_suite(suite, thresholds=overrides).cases
