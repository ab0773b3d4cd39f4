"""Shared fixtures: each verification suite runs at most once per session at
the defaults; small overrides and a CPU count steer the other suite runs."""

import os

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


@pytest.fixture(scope="session")
def small_suites():
    """Overrides at which every suite runs each of its code paths, and so makes
    every import it makes at the defaults, in a fraction of the time."""
    return {
        "kernel.nmax": 2, "kernel.w0_oversample": 2, "kernel.partition_kmax": 8, "besov.jmax": 1,
        "inj.cases": 2, "hankel.mmax": 2, "re.cases": 4, "w88.tail_nmax": 2, "w88.m_lo": 2, "w88.m_hi": 4,
        "w88.lkk_nmax": 2, "w8.nmax": 2, "w8.block_lo": 0, "w8.seeds": 1, "w8.pairs": 1, "dual.pairs": 1,
        "dual.rank1": 1, "mazur.seeds": 1, "mazur.flat_kmax": 1,
    }


@pytest.fixture
def pin_cpus(monkeypatch):
    """pin_cpus(n) makes run_suites see n usable CPUs: 1 runs the suites in
    process, 2 or more in forked workers."""

    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return pin
