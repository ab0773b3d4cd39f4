"""run_suites: the thresholds are merged once, every suite name and every
override's range is checked before any suite runs, and every threshold is
read by some suite."""

import math
import multiprocessing
import os
import re
import sys
import threading
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


def _run_recording_suites(monkeypatch) -> tuple[set, list]:
    """Runs two suites that write the seed, the merged besov.rel_tol and their
    process id into their case detail (a worker sends back only its report),
    checks the names, the single merge and the details, and returns the
    details' process ids and the (seed, th) pairs seen in this process."""
    merges = []
    merge = verify.merged_thresholds
    monkeypatch.setattr(verify, "merged_thresholds", lambda overrides: merges.append(overrides) or merge(overrides))
    seen = []

    def suite(seed, th):
        seen.append((seed, th))
        return [verify.CaseResult("seen", True, f"{seed} {th['besov.rel_tol']!r} {os.getpid()}")]

    for key in ("kernel", "besov"):
        monkeypatch.setitem(verify.SUITES, key, suite)
    reports = verify.run_suites(iter(["besov", "kernel"]), seed=3, thresholds={"besov.rel_tol": "0.5"})
    assert [r.suite for r in reports] == ["besov", "kernel"]
    assert merges == [{"besov.rel_tol": "0.5"}]
    details = [r.cases[0].detail.split() for r in reports]
    assert [d[:2] for d in details] == [["3", "0.5"], ["3", "0.5"]]
    return {int(d[2]) for d in details}, seen


def test_thresholds_merged_once_and_reports_named_by_key(pin_cpus, monkeypatch):
    pin_cpus(1)
    pids, seen = _run_recording_suites(monkeypatch)
    assert pids == {os.getpid()}
    assert seen[0][1] is seen[1][1] and [s for s, _ in seen] == [3, 3]
    assert verify.run_suite("kernel").suite == "kernel"


def test_thresholds_merged_once_in_the_parent_of_the_workers(pin_cpus, monkeypatch):
    pin_cpus(2)
    pids, seen = _run_recording_suites(monkeypatch)
    assert os.getpid() not in pids and seen == []


def test_suites_run_in_process_while_another_thread_runs(pin_cpus, monkeypatch):
    # a fork would copy the other thread's locks as they stand
    pin_cpus(2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        pids, _ = _run_recording_suites(monkeypatch)
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive() and pids == {os.getpid()}


@pytest.mark.parametrize("seed", [0, 11])
def test_pool_reports_equal_in_process_reports(seed, pin_cpus, small_suites):
    names = list(verify.SUITES)
    pin_cpus(2)
    pooled = verify.run_suites(names, seed, small_suites)
    assert multiprocessing.active_children() == []
    pin_cpus(1)
    assert pooled == verify.run_suites(names, seed, small_suites)


def _refuse(seed, th):
    raise InvalidParameter(f"refused seed {seed} in process {os.getpid()}")


def test_suite_error_in_a_worker_reaches_the_caller(pin_cpus, small_suites, monkeypatch):
    # besov is read second but started eighth, so it raises while other
    # suites may still be queued or running; the pool cancels what has not
    # started, and every worker has exited when the error arrives
    pin_cpus(2)
    monkeypatch.setitem(verify.SUITES, "besov", _refuse)
    with pytest.raises(InvalidParameter, match=r"^refused seed 4 in process \d+$") as info:
        verify.run_suites(list(verify.SUITES), seed=4, thresholds=small_suites)
    assert type(info.value) is InvalidParameter
    assert not str(info.value).endswith(f" {os.getpid()}")
    assert multiprocessing.active_children() == []


# Every suite's cases at seed 0 and the default thresholds.  besov,
# hankel-shadow and cli-roundtrip were recorded before zero polynomials
# stopped taking a grid and self_check stopped running its examples twice;
# the other seven before verify named each library call by its module and
# every coset took a buffer of one shape.  The cases read the same, except
# kernel-l1, rs-block-lower-bound and majorant-chain-bound, re-recorded when
# they began to read the certified side of each grid enclosure, and
# kernel-w0, whose detail now names its grid estimate.
_SCHEMA = "rc=0, keys match documented schema: True"
_PINNED_CASES = {
    "kernel": [
        ("kernel-l1", True, "max ||W_n||_1 over n<=16 is at most 1.450453 (bound 1.501)"),
        ("kernel-w0", True, "grid estimate ||W_0||_1 = 1.27323948 vs 4/pi = 1.27323954"),
        ("kernel-partition", True, "max |sum_n W_n_hat(k) - 1| over k<=131072 is 0.000e+00"),
    ],
    "besov": [
        ("besov-monomials", True, "max relative error of besov(z^(2^j)) over j<=14 is 2.220e-16"),
        ("besov-two-blocks", True, "besov(z^2 + z^8) = 10.000000000 (target 10)"),
    ],
    "hankel-shadow": [
        ("hankel-antidiagonal-norm", True, "norm of the unit antidiagonal equals m+1 for m<=16"),
        ("monomial-comparability", True, "besov(z^m)/(m+1) within [1/2, 2]; extreme 0.5000 at m=1"),
    ],
    "inj-oracle": [
        ("exact-vs-brute", True, "200/200 exact values match the (x, y) scan"),
        ("search-hit-rate", True, "search matched exact on 200/200 = 1.000"),
    ],
    "theorem-re": [
        ("chain-inequality", True, "1000/1000 cases satisfy moment <= 5.0 * M^t; worst ratio 0.2353"),
    ],
    "witness88": [
        ("block-bound-tails", True,
         "tail/integral-estimate ratios in [1/2.0, 2.0] for n<=30; extreme 0.8062 at n=0"),
        ("moment-growth-exponent", True,
         "fitted growth exponent 0.2502 over K=2^12..2^22 (law 1/4); diagnosis divergent"),
        ("majorant-fidelity", True, "assembled coefficients reproduce the targets exactly"),
        ("majorant-chain-bound", True, "besov at most 3.891951 <= 4.5 * K * M = 13.392580"),
    ],
    "witness8": [
        ("rs-block-lower-bound", True, "block L1 lower side >= 2^(n/2)/((n+1) sqrt 2) for n=8..16; min margin 1.1427"),
        ("random-fitted-exponent", True, "fitted exponents 0.500, 0.499, 0.499, 0.499, 0.502 within [0.35, 0.65]"),
        ("witness-classified-growing", True,
         "witness profile classified growing (certified top/early ratio 7.116 >= 1.5)"),
        ("product-images-not-growing", True,
         "100/100 product images classified not-growing; largest certified top/early ratio 0.789"),
    ],
    "duality": [
        ("pairing-bound", True, "100/100 pairings within upper * norm"),
        ("rank-one-tight", True, "50/50 rank-one brackets tight"),
    ],
    "mazur-id": [
        ("average-of-hankel", True, "100/100 exact round trips"),
        ("product-consistency", True, "max |product - averaged outer| = 2.50e-16"),
        ("flatness-identity", True, "max relative deviation of |P|^2 + |Q|^2 from 2^(k+1) is 1.11e-15"),
    ],
    "cli-roundtrip": [
        *((f"schema-{name}", True, _SCHEMA) for name in (
            "wn besov profile inj-norm proj-norm v2 mazur-a mazur-b witness8 witness88 flatpoly lkk moment psi "
            "verify").split()),
        ("rerun-psi", True, "byte-identical rerun from embedded config: True"),
        ("rerun-witness8", True, "byte-identical rerun from embedded config: True"),
        ("wn-csv-sparse", True, "W_2 CSV carries 5 coefficient rows (want 5)"),
        ("csv-round-trip", True, "kernel CSV reads back bit-identical"),
        ("exit-usage", True, "unknown flag exits 64"),
        ("exit-domain", True, "domain error exits 1"),
        ("exit-verify-pass", True, "passing suite exits 0"),
        ("exit-verify-fail", True, "violated threshold exits 2"),
    ],
}


@pytest.mark.parametrize("suite", sorted(_PINNED_CASES))
def test_cases_match_their_record(suite, suite_report):
    assert [(c.name, c.passed, c.detail) for c in suite_report(suite).cases] == _PINNED_CASES[suite]


def test_cli_roundtrip_runs_the_besov_suite_twice(monkeypatch):
    # once for the verify example, whose exit code exit-verify-pass reads,
    # and once with a violated threshold
    from scottish_lab import cli

    seeds, besov = [], verify.SUITES["besov"]
    monkeypatch.setitem(verify.SUITES, "besov", lambda seed, th: seeds.append(seed) or besov(seed, th))
    assert all(case.passed for case in cli.self_check())
    assert seeds == [0, 0]


def test_cost_order_is_a_permutation_of_the_suites():
    assert sorted(verify._COST_ORDER) == sorted(verify.SUITES)


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
    ("w8.nmax", [1, 21], [0, 22, *BAD_INT]),
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
    ("mazur.flat_kmax", [0, 22], [-1, 23, *BAD_INT]),
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
     ("mazur.flat_kmax", "23"), ("w88.m_hi", "25"), ("w88.lkk_nmax", "25"),
     ("kernel.partition_kmax", str(1 << 25)),
     # past the sizes their suites can run
     ("kernel.nmax", "22"), ("besov.jmax", "21"), ("hankel.mmax", "26"), ("w8.nmax", "22"),
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


@pytest.mark.parametrize("form", [str, float, np.int64])
def test_merged_thresholds_take_their_default_type(form):
    # the suites use an int threshold as it comes, with no cast of their own
    kinds = {key: type(default) for key, default in verify.DEFAULT_THRESHOLDS.items()}
    assert set(kinds.values()) == {int, float}
    assert {key: type(v) for key, v in verify.merged_thresholds(None).items()} == kinds
    for key in verify.THRESHOLDS:
        extra = {"w8.nmax": {"w8.block_lo": 0}, "w88.m_hi": {"w88.m_lo": 1}}.get(key, {})
        th = verify.merged_thresholds({**extra, key: form(1 if key == "inj.match_min" else 3)})
        assert {k: type(v) for k, v in th.items()} == kinds, key


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


def test_witness88_suite_peak_does_not_grow_with_m_hi():
    # The moment streams the witness from its closed form, so the suite's
    # traced peak is one chunk's working set at every m_hi (measured: 1.0009
    # from m_hi 16 to 22, about 1 MB; 33 while the 2^(m_hi+1)-entry witness
    # was built, 68 MB at m_hi 22)
    peaks = {}
    for m_hi in (16, 22):
        tracemalloc.start()
        try:
            report = verify.run_suite("witness88", 0, {"w88.m_hi": m_hi, "w88.lkk_nmax": 10})
            peaks[m_hi] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed, m_hi
    assert peaks[22] <= 1.05 * peaks[16], peaks


def test_hurwitz_zeta_matches_scipy():
    from scipy.special import zeta  # the reference the suite's tail oracle replaced

    # s over [1.05, 3]; a at every integer the suite uses up to 40, then
    # geometrically spaced up to 1e6
    s = np.linspace(1.05, 3.0, 40)[:, None]
    a = np.concatenate([np.arange(2.0, 41.0), np.geomspace(2.0, 1e6, 60)])[None, :]
    want = zeta(s, a)
    got = np.vectorize(verify._hurwitz_zeta)(s, a)
    assert (np.abs(got - want) <= 1e-14 * want).all()
