"""run_suites: the thresholds are merged once, every suite name and every
override's range is checked before any suite runs, and every threshold is
read by some suite."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from scottish_lab import verify
from scottish_lab.core import DenseMatrix, check_size
from scottish_lab.dyadic import DEFAULT_OVERSAMPLE, grid_size
from scottish_lab.errors import DomainError, InvalidParameter
from scottish_lab.tensornorm import injective_norm_exact


def test_every_threshold_is_read(suite_report):
    for name in verify.SUITES:
        assert all(isinstance(c, verify.CaseResult) for c in suite_report(name).cases)
    assert len(verify.DEFAULT_THRESHOLDS) == 35
    assert sorted(set(verify.DEFAULT_THRESHOLDS) - suite_report.read) == []


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
    assert list(verify.DEFAULT_THRESHOLDS) == list(verify.THRESHOLDS)
    for key, (default, lo, hi) in verify.THRESHOLDS.items():
        assert lo <= default <= hi, key
        assert verify.merged_thresholds({key: default})[key] == default, key


NAN, INF = math.nan, math.inf
TINY = math.ulp(0.0)  # the least float above 0
BIG = sys.float_info.max
BAD_INT = [NAN, INF, -INF, True, 2.5]
BAD_FLOAT = [NAN, -INF, True]

# Each key probed at the ends of its range before the one-table rewrite:
# (key, values accepted, values refused).  The ends since added (kernel.nmax,
# kernel.w0_oversample, besov.jmax and hankel.mmax gained one; the ends of
# kernel.partition_kmax and w88.lkk_nmax came down to what their suites can
# run; two windows tie w8.block_lo to w8.nmax and w88.m_lo to w88.m_hi) are
# probed in test_out_of_range_overrides_refused_before_any_suite_runs.
DOMAIN_PROBES = [
    ("kernel.nmax", [0], [-1, *BAD_INT]),
    ("kernel.l1_bound", [0.0, INF], [-TINY, *BAD_FLOAT]),
    ("kernel.w0_tol", [0.0, INF], [-TINY, *BAD_FLOAT]),
    ("kernel.w0_oversample", [2], [1, *BAD_INT]),
    ("kernel.partition_kmax", [0, 1 << 24], [-1, 1 << 25, *BAD_INT]),
    ("kernel.partition_tol", [0.0, INF], [-TINY, *BAD_FLOAT]),
    ("besov.jmax", [0], [-1, *BAD_INT]),
    ("besov.rel_tol", [0.0, INF], [-TINY, *BAD_FLOAT]),
    ("inj.cases", [1], [0, *BAD_INT]),
    ("inj.match_min", [0.0, 1.0], [-TINY, math.nextafter(1.0, 2.0), INF, *BAD_FLOAT]),
    ("hankel.mmax", [0], [-1, *BAD_INT]),
    ("re.cases", [1], [0, *BAD_INT]),
    ("re.constant", [TINY, INF], [0.0, *BAD_FLOAT]),
    ("w88.tail_nmax", [0], [-1, *BAD_INT]),
    ("w88.tail_factor", [TINY, INF], [0.0, *BAD_FLOAT]),
    ("w88.exp_lo", [-BIG, BIG], [INF, *BAD_FLOAT]),
    ("w88.exp_hi", [-BIG, BIG], [INF, *BAD_FLOAT]),
    ("w88.m_lo", [0], [-1, *BAD_INT]),
    ("w88.m_hi", [24], [-1, 25, *BAD_INT]),
    ("w88.lkk_nmax", [0], [-1, 25, *BAD_INT]),
    ("w88.chain_slack", [0.0, INF], [-TINY, *BAD_FLOAT]),
    ("w8.nmax", [1, 20], [0, 21, *BAD_INT]),
    ("w8.block_lo", [0], [-1, *BAD_INT]),
    ("w8.exp_lo", [-BIG, BIG], [INF, *BAD_FLOAT]),
    ("w8.exp_hi", [-BIG, BIG], [INF, *BAD_FLOAT]),
    ("w8.seeds", [1], [0, *BAD_INT]),
    ("w8.pairs", [1], [0, *BAD_INT]),
    ("w8.notgrow_min", [0], [-1, *BAD_INT]),
    ("dual.pairs", [1], [0, *BAD_INT]),
    ("dual.tol", [0.0, INF], [-TINY, *BAD_FLOAT]),
    ("dual.rank1", [1], [0, *BAD_INT]),
    ("mazur.seeds", [1], [0, *BAD_INT]),
    ("mazur.b_tol", [0.0, INF], [-TINY, *BAD_FLOAT]),
    ("mazur.flat_kmax", [0, 20], [-1, 21, *BAD_INT]),
    ("mazur.flat_tol", [0.0, INF], [-TINY, *BAD_FLOAT]),
]
# w8.nmax is probed down to 1, so its window starts at block 0
ALONGSIDE = {"w8.nmax": {"w8.block_lo": 0}}


def test_each_key_accepts_and_refuses_what_it_did():
    assert sorted(key for key, _, _ in DOMAIN_PROBES) == sorted(verify.DEFAULT_THRESHOLDS)
    for key, accepted, refused in DOMAIN_PROBES:
        extra = ALONGSIDE.get(key, {})
        for value in accepted:
            assert verify.merged_thresholds({**extra, key: value})[key] == value, (key, value)
        for value in refused:
            with pytest.raises(InvalidParameter, match=re.escape(repr(key))):
                verify.merged_thresholds({**extra, key: value})


@pytest.mark.parametrize(
    "key, value",
    [("kernel.partition_kmax", "-1"), ("kernel.partition_kmax", "-5"), ("inj.cases", "0"),
     ("w88.tail_factor", "0"), ("w8.nmax", "0"), ("w8.block_lo", "-1"),
     ("inj.match_min", "1.5"), ("besov.rel_tol", "nan"), ("w8.exp_lo", "inf"),
     # past the library's own caps
     ("mazur.flat_kmax", "21"), ("w8.nmax", "21"), ("w88.m_hi", "25"), ("w88.lkk_nmax", "25"),
     ("kernel.partition_kmax", str(1 << 25)),
     # past the sizes their suites can run
     ("kernel.nmax", "22"), ("besov.jmax", "21"), ("hankel.mmax", "26"),
     ("kernel.w0_oversample", "16777217"), ("kernel.partition_kmax", str((1 << 24) + 1)),
     ("w88.lkk_nmax", "21"),
     # windows that cannot be checked: no block, or fewer than two increments
     ("w8.block_lo", "17"), ("w8.nmax", "7"), ("w88.m_lo", "21"), ("w88.m_lo", "30"),
     ("w88.m_hi", "13")],
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
     ("witness88", {"w88.tail_factor": 5e-324, "w88.m_lo": 2, "w88.m_hi": 4, "w88.lkk_nmax": 2}),
     ("witness8", {"w8.nmax": 1, "w8.block_lo": 0, "w8.pairs": 1}),
     ("witness8", {"w8.nmax": 1, "w8.block_lo": 1, "w8.pairs": 1})],
)
def test_domain_edges_run_to_a_report(suite, overrides):
    assert verify.run_suite(suite, thresholds=overrides).cases


def test_size_upper_ends_pass_the_library_checks_of_their_suites():
    """Each size's upper end passes the size check of its suite's largest
    call and the next value fails it; the edge calls themselves allocate
    gigabytes or scan for minutes, so only their checks run."""
    hi = {key: end for key, (_, _, end) in verify.THRESHOLDS.items()}
    checks = {
        "kernel.nmax": lambda n: grid_size(1 << (n + 1), DEFAULT_OVERSAMPLE),  # W_n
        "kernel.w0_oversample": lambda o: grid_size(2, o),  # W_0
        "kernel.partition_kmax": lambda k: check_size((k - 1).bit_length() + 1, "W_n"),
        "besov.jmax": lambda j: grid_size(1 << (j + 2), DEFAULT_OVERSAMPLE),  # profile to block j + 1
        "w88.lkk_nmax": lambda n: grid_size(1 << (n + 2), DEFAULT_OVERSAMPLE),  # majorant profile
        "w88.m_hi": lambda m: check_size(m + 1, "witness"),
    }
    for key, check in checks.items():
        check(hi[key])
        with pytest.raises(DomainError):
            check(hi[key] + 1)
    # hankel-shadow scans (m+1) x (m+1) matrices: one past the edge is refused
    m = hi["hankel.mmax"] + 1
    with pytest.raises(DomainError):
        injective_norm_exact(DenseMatrix(np.zeros((m + 1, m + 1))))


@pytest.mark.parametrize(
    "suite, overrides, case, text",
    [("kernel", {"kernel.nmax": 2, "kernel.partition_kmax": 100}, "kernel-partition", "k<=100 "),
     ("hankel-shadow", {"hankel.mmax": 3}, "hankel-antidiagonal-norm", "m<=3"),
     ("witness88", {"w88.tail_nmax": 5, "w88.tail_factor": 3.0, "w88.m_lo": 2, "w88.m_hi": 6,
                    "w88.lkk_nmax": 2}, "block-bound-tails", "[1/3.0, 3.0] for n<=5;"),
     ("witness88", {"w88.m_lo": 2, "w88.m_hi": 6, "w88.lkk_nmax": 2},
      "moment-growth-exponent", "over K=2^2..2^6 ")],
)
def test_details_print_the_thresholds_they_used(suite, overrides, case, text):
    cases = {c.name: c.detail for c in verify.run_suite(suite, thresholds=overrides).cases}
    assert text in cases[case]


def test_witness88_suite_peaks_at_its_witness():
    # The 2^21-entry witness is released once its moment is summed, so the
    # majorant's grids do not stack on it (measured: 1.06 of the witness;
    # 1.25 while the suite held it, 2.1 while it was also copied)
    import scipy.special  # noqa: F401 -- the suite imports it; loaded before tracing

    th = {"w88.m_hi": 20, "w88.lkk_nmax": 13}
    tracemalloc.start()
    try:
        report = verify.run_suite("witness88", 0, th)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 1.15 * (1 << 21) * 8
