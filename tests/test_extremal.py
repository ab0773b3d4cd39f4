import functools
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scottish_lab import (
    CoeffSeq,
    assemble_majorant,
    besov_norm,
    flat_polynomial,
    hard_block_bound,
    lp_norm_circle,
    make_rng,
    problem88_params,
    problem88_witness,
    psi,
    rudin_shapiro,
    weighted_moment,
)
from scottish_lab import core, extremal
from scottish_lab.dyadic import besov_detail, grid_values
from scottish_lab.extremal import fit_growth_exponent
from scottish_lab.errors import InvalidParameter, InvalidRegime, InvalidTarget


class TestRudinShapiro:
    def test_base_case(self):
        P, Q = rudin_shapiro(0)
        assert np.array_equal(P.coeffs, [1.0])
        assert np.array_equal(Q.coeffs, [1.0])

    def test_k2(self):
        P, _ = rudin_shapiro(2)
        assert np.array_equal(P.coeffs, [1.0, 1.0, 1.0, -1.0])

    def test_coefficients_are_signs(self):
        for k in range(13):
            P, Q = rudin_shapiro(k)
            assert np.all(np.abs(P.coeffs) == 1.0)
            assert np.all(np.abs(Q.coeffs) == 1.0)
            assert len(P) == len(Q) == 1 << k

    def test_flatness_identity(self):
        for k in range(13):
            P, Q = rudin_shapiro(k)
            # real P and Q give the upper half of the grid; |P|^2 + |Q|^2 on
            # the lower half is its mirror image, so every point is checked
            total = np.abs(grid_values(P)) ** 2 + np.abs(grid_values(Q)) ** 2
            target = 2.0 ** (k + 1)
            assert np.abs(total - target).max() <= 1e-9 * target

    def test_sup_norm_bound(self):
        for k in range(11):
            P, _ = rudin_shapiro(k)
            sup = lp_norm_circle(P, math.inf)
            assert sup <= math.sqrt(2.0 * (1 << k)) + 1e-9

    def test_cap(self):
        with pytest.raises(InvalidParameter):
            rudin_shapiro(26)


class TestFlatPolynomial:
    def test_single_target(self):
        f, rep = flat_polynomial(CoeffSeq([2.0]))
        assert np.array_equal(f.coeffs, [2.0])
        assert abs(rep.ratio - 1.0) < 1e-12

    def test_aligned_dyadic_run_is_flat(self):
        beta = CoeffSeq(np.ones(1 << 10))
        f, rep = flat_polynomial(beta)
        assert rep.method == "rudin_shapiro"
        assert rep.ratio <= math.sqrt(2) + 1e-6
        assert np.array_equal(np.abs(f.coeffs), beta.coeffs)

    def test_aligned_block_offset(self):
        # constant run on [2^5, 2^6) starts on a multiple of its length
        beta = np.zeros(64)
        beta[32:64] = 0.5
        f, rep = flat_polynomial(CoeffSeq(beta))
        assert rep.method == "rudin_shapiro"
        assert rep.ratio <= math.sqrt(2) + 1e-6
        # a constant run of 4 from index 2 does not start on a multiple of 4
        for start, method in ((2, "random_plus_descent"), (4, "rudin_shapiro")):
            beta = np.zeros(8)
            beta[start : start + 4] = 1.0
            _, rep = flat_polynomial(CoeffSeq(beta), seed=1, descent_budget=10)
            assert rep.method == method

    def test_random_median_ratio(self):
        # measured envelope for 1024 random signs (spec threshold 4)
        ratios = []
        for seed in range(20):
            _, rep = flat_polynomial(CoeffSeq(np.ones(1024)[: 1000 + seed % 2 * 24]), seed=seed)
            ratios.append(rep.ratio)
        # non-aligned lengths force the random path
        assert all(r > 0 for r in ratios)
        assert float(np.median(ratios)) <= 4.0

    def test_descent_does_not_hurt(self):
        beta = CoeffSeq(np.ones(300))  # length not a power of two
        _, raw = flat_polynomial(beta, seed=5, descent_budget=0)
        f, improved = flat_polynomial(beta, seed=5, descent_budget=400)
        assert improved.method == "random_plus_descent"
        assert improved.ratio <= raw.ratio + 1e-12
        assert np.array_equal(np.abs(f.coeffs), beta.coeffs)

    def test_label_claims_a_descent_only_when_a_flip_was_evaluated(self):
        # a budget of 1 is spent on the starting signs, so no flip is tried
        beta = CoeffSeq(np.ones(300))
        _, raw = flat_polynomial(beta, seed=5, descent_budget=0)
        for budget, method in ((1, "random_signs"), (2, "random_plus_descent")):
            _, rep = flat_polynomial(beta, seed=5, descent_budget=budget)
            assert rep.method == method, budget
        f1, rep1 = flat_polynomial(beta, seed=5, descent_budget=1)
        assert rep1 == raw and f1 == flat_polynomial(beta, seed=5)[0]

    def test_moduli_exact_for_general_targets(self):
        rng = make_rng(61)
        beta = CoeffSeq(rng.random(97))
        f, _ = flat_polynomial(beta, seed=1, descent_budget=50)
        assert np.array_equal(np.abs(f.coeffs), beta.coeffs)

    def test_zero_targets(self):
        f, rep = flat_polynomial(CoeffSeq(np.zeros(5)))
        assert not f.coeffs.any()
        assert rep.ratio == 0.0

    @pytest.mark.parametrize("e", [-1000, -600, 600, 1023])
    def test_targets_whose_squares_leave_the_float_range(self, e):
        # the targets' l2 norm once read 0, which returned the zero
        # polynomial, or inf after a RuntimeWarning.  The search runs on the
        # targets over a power of two, so signs and ratio do not depend on the
        # scale; at 2^1023 the norms pass the float range and read inf, where
        # their ratio read NaN (inf / inf)
        beta = make_rng(67).random(40)
        f, rep = flat_polynomial(CoeffSeq(beta), seed=2, descent_budget=30)
        g, scaled = flat_polynomial(CoeffSeq(beta * 2.0**e), seed=2, descent_budget=30)
        assert np.array_equal(g.coeffs, f.coeffs * 2.0**e)
        assert scaled.ratio == rep.ratio and scaled.descent_iterations == rep.descent_iterations
        assert (scaled.targets_l2 == scaled.sup_norm == math.inf) == (e == 1023)

    def test_moduli_exact_across_the_float_range(self):
        # targets that scaling by 2^-e rounds to subnormals or 0 keep their moduli
        beta = CoeffSeq([1e308, 5e-324, 1e-310, 0.0, 3.0, 2.0**-1000])
        f, rep = flat_polynomial(beta, seed=1, descent_budget=20)
        assert np.array_equal(np.abs(f.coeffs), beta.coeffs)
        assert math.isfinite(rep.ratio)

    def test_negative_rejected(self):
        # complex targets too, by both builders
        for build, targets in ((flat_polynomial, [1.0, -0.5]), (assemble_majorant, [1.0, 0.5, -0.5]),
                               (flat_polynomial, [1.0, 0.5j]), (assemble_majorant, [1.0, 0.5j])):
            with pytest.raises(InvalidTarget):
                build(CoeffSeq(targets))

    @pytest.mark.parametrize("build", [flat_polynomial, assemble_majorant])
    def test_negative_budget_refused_before_any_evaluation(self, build, monkeypatch):
        # a negative budget once ran as budget 0; zero targets do no work at all
        calls = []
        monkeypatch.setattr(extremal, "lp_norm_circle", lambda *args: calls.append(args))
        for targets in (np.linspace(0.5, 1.0, 10), np.zeros(4)):
            with pytest.raises(InvalidParameter, match="budget must be nonnegative"):
                build(CoeffSeq(targets), seed=1, descent_budget=-7)
        assert calls == []

    def test_deterministic(self):
        beta = CoeffSeq(np.ones(100))
        f1, _ = flat_polynomial(beta, seed=3, descent_budget=64)
        f2, _ = flat_polynomial(beta, seed=3, descent_budget=64)
        assert f1 == f2


class TestMajorant:
    def test_single_block_monomial(self):
        for j in (1, 3, 6):
            alpha = np.zeros((1 << j) + 1)
            alpha[1 << j] = 2.5
            phi, rep = assemble_majorant(CoeffSeq(alpha))
            assert np.array_equal(np.abs(phi.coeffs[: alpha.size]), alpha)
            assert rep.fidelity_exact
            assert abs(rep.k_achieved - 1.0) < 1e-9
            b = besov_norm(phi, 1.0, math.inf, 1.0, j + 1)
            assert abs(b - 2.5 * (1 << j)) < 1e-6
            assert b <= rep.chain_bound + 1e-6

    def test_zero_targets(self):
        phi, rep = assemble_majorant(CoeffSeq(np.zeros(8)))
        assert not phi.coeffs.any()
        assert rep.besov_value == 0.0 and rep.besov_bound == 0.0

    def test_fidelity_and_chain_on_random_targets(self):
        rng = make_rng(62)
        for trial in range(5):
            alpha = CoeffSeq(rng.random(int(rng.integers(2, 1 << 10))))
            phi, rep = assemble_majorant(alpha, seed=trial)
            assert rep.fidelity_exact
            assert np.array_equal(np.abs(phi.coeffs[: len(alpha)]), alpha.coeffs)
            assert rep.besov_value <= rep.chain_bound + 1e-6

    def test_witness_chain(self):
        alpha, _ = problem88_witness(0.5, 10)
        phi, rep = assemble_majorant(alpha)
        assert rep.fidelity_exact
        # the report keeps besov_detail's bound, and the chain holds on its upper side
        assert (rep.besov_value, rep.besov_bound) == besov_detail(phi, 1.0, math.inf, 1.0, 11)[:2]
        assert rep.besov_value + rep.besov_bound <= 4.5 * rep.k_achieved * rep.block_bound + 1e-6

    def test_size_cap_before_any_block(self, monkeypatch):
        # the final profile's 2^26-point top grid is refused before any block
        calls = []

        def counting(*args):
            calls.append(args)
            return 1.0

        monkeypatch.setattr(extremal, "lp_norm_circle", counting)
        with pytest.raises(InvalidParameter, match="size cap"):
            assemble_majorant(CoeffSeq(np.ones(8)), oversample=1 << 22)
        assert calls == []

    def test_blocks_use_flat_signs(self):
        alpha, _ = problem88_witness(0.5, 8)
        _, rep = assemble_majorant(alpha)
        assert all(b["method"] == "rudin_shapiro" for b in rep.blocks)
        assert rep.k_achieved <= math.sqrt(2) + 1e-6


class TestDecayWitness:
    def test_parameters_t_half(self):
        alpha, params = problem88_witness(0.5, 6)
        assert params.g == 1.5
        assert alpha.coeffs[0] == 0.0
        # delta_1 = 2^-1.5 * 2^-1.5 = 1/8 up to one rounding of 2^-1.5
        assert np.abs(alpha.coeffs[2:4] - 0.125).max() < 1e-15
        assert alpha.coeffs[1] == 1.0  # delta_0

    def test_block_bound_matches_law(self):
        alpha, params = problem88_witness(0.5, 12)
        got = hard_block_bound(alpha, 12)
        oracle = math.fsum((n + 1) ** -params.g for n in range(13))
        assert abs(got - oracle) < 1e-12

    def test_block_sums_follow_power_law(self):
        t = 0.5
        alpha, params = problem88_witness(t, 14)
        a = alpha.coeffs
        consts = []
        for n in range(5, 15):
            k = np.arange(1 << n, 1 << (n + 1))
            block = float(np.sum(a[k] ** t * (1.0 + k) ** (1.5 * t - 1.0)))
            consts.append(block * (n + 1) ** (params.g * t))
        consts = np.array(consts)
        assert consts.std() / consts.mean() < 0.02

    def test_regime_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidRegime):
                problem88_witness(bad, 4)

    def test_params_checked_as_the_witness_is(self):
        assert problem88_params(0.5, 6) == problem88_witness(0.5, 6)[1]
        for t, nmax, error in ((1.0, 4, InvalidRegime), (0.5, -1, InvalidParameter),
                               (0.5, 25, InvalidParameter)):
            with pytest.raises(error):
                problem88_params(t, nmax)
            with pytest.raises(error):
                problem88_witness(t, nmax)

    def test_underflowing_witness_is_refused(self):
        # delta(n) falls below the smallest normal float from block 4 at
        # t = 0.001 and from block 15 at t = 0.002; a built witness would
        # hold zeros or subnormals there
        for t, first in ((0.001, 4), (0.002, 15)):
            with pytest.raises(InvalidRegime, match=f"from block {first} "):
                problem88_witness(t, 20)
            alpha, params = problem88_witness(t, first - 1)
            assert alpha.coeffs[-1] == params.delta(first - 1) >= sys.float_info.min
            problem88_params(t, 20)  # the parameters, and so the streamed moment, stay
        # from t = 0.005 on no block within the size cap underflows
        assert problem88_params(0.005, 24).delta(24) >= sys.float_info.min

    def test_built_without_a_copy(self):
        # the fill array is the witness's own: no copy and no finiteness mask
        # beside it (measured: 1.0004 of the array; 2.1 with both)
        tracemalloc.start()
        try:
            problem88_witness(0.5, 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (1 << 19) * 8


def _full_array_checkpoints(gamma, t, beta, kmax):
    """Oracle: the checkpoints of one cumulative sum over all the terms."""
    c = np.abs(gamma.coeffs)
    top = min(kmax, c.size - 1)
    k = np.arange(top + 1)
    terms = np.zeros(top + 1)
    pos = c[: top + 1] > 0
    terms[pos] = c[: top + 1][pos] ** t * (1.0 + k[pos]) ** beta
    cum = np.cumsum(terms)
    m_hi = int(math.floor(math.log2(kmax)))
    return [(1 << m, float(cum[min(1 << m, top)])) for m in range(m_hi + 1)]


class TestWeightedMoment:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        values=st.lists(st.floats(-4, 4) | st.just(0.0), min_size=1, max_size=40),
        zero_run=st.tuples(st.integers(0, 40), st.integers(0, 12)),
        is_complex=st.booleans(),
        past_end=st.integers(-40, 8),
        t=st.floats(0.25, 3.0),
        beta=st.floats(-2.0, 2.0),
        chunk=st.sampled_from([1, 3, 7]),
    )
    def test_chunked_pass_is_bit_identical(self, values, zero_run, is_complex, past_end, t, beta, chunk):
        # kmax falls below, at and past the last index; chunk edges fall on
        # checkpoints (chunk 1) and between them (3 and 7)
        arr = np.array(values)
        start, length = zero_run
        arr[start : start + length] = 0.0
        if is_complex:
            arr = arr + 1j * arr[::-1]
        gamma = CoeffSeq(arr)
        kmax = max(1, arr.size - 1 + past_end)
        one_chunk = weighted_moment(gamma, t, beta, kmax)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_CHUNK_ROWS", chunk)
            rep = weighted_moment(gamma, t, beta, kmax)
        assert rep.checkpoints == _full_array_checkpoints(gamma, t, beta, kmax)
        assert rep == one_chunk

    @pytest.mark.parametrize("t, nmax, kmax", [
        (0.5, 0, 1), (0.5, 0, 6),  # two entries, kmax at and past them
        (0.25, 5, 63), (0.75, 9, 1 << 9), (0.5, 12, 3000),
        (0.3, 10, 1 << 14),  # past the length: inconclusive
        (0.9, 13, (1 << 13) + 1234),
        (0.95, 12, 1 << 12), (0.999, 11, 1500),
    ])
    @pytest.mark.parametrize("chunk", [None, 37])
    def test_streamed_witness_matches_the_built_one(self, t, nmax, kmax, chunk):
        # chunk edges fall inside blocks (37) and on them (the default)
        alpha, params = problem88_witness(t, nmax)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(core, "_CHUNK_ROWS", chunk)
            for beta in (1.5 * t - 1.0, 0.5):
                streamed = weighted_moment(params, t, beta, kmax)
                assert streamed == weighted_moment(alpha, t, beta, kmax)
        if kmax >= 1 << (nmax + 2):
            assert streamed.diagnosis.label == "inconclusive"

    @pytest.mark.parametrize("chunk", [None, 37])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(t=st.floats(0.01, 1.0, exclude_max=True), nmax=st.integers(0, 12), beta=st.floats(-2.0, 1.0))
    def test_streamed_witness_matches_the_built_one_at_any_t(self, chunk, t, nmax, beta):
        # each block's one power delta(n)^t equals the per-index power
        alpha, params = problem88_witness(t, nmax)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(core, "_CHUNK_ROWS", chunk)
            assert weighted_moment(params, t, beta, len(alpha) - 1) == weighted_moment(alpha, t, beta, len(alpha) - 1)

    def test_witness_checkpoints_match_the_full_array_pass(self):
        alpha, _ = problem88_witness(0.5, 18)  # 17 chunks of the default size
        rep = weighted_moment(alpha, 0.5, -0.25, kmax=1 << 18)
        assert rep.checkpoints == _full_array_checkpoints(alpha, 0.5, -0.25, 1 << 18)

    @pytest.mark.parametrize("log2n", [20, 21])
    def test_peak_memory_does_not_grow_with_kmax(self, log2n):
        # the full-length pass peaked at 49 MiB on 2^20 coefficients
        gamma = CoeffSeq(make_rng(log2n).random(1 << log2n))
        tracemalloc.start()
        try:
            weighted_moment(gamma, 0.5, -0.25, kmax=1 << log2n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_single_term(self):
        g = np.zeros(10)
        g[7] = 2.0
        rep = weighted_moment(CoeffSeq(g), t=0.5, beta=1.0, kmax=9)
        total = rep.checkpoints[-1][1]
        assert abs(total - math.sqrt(2.0) * 8.0) < 1e-12

    def test_single_early_term_converges(self):
        g = np.zeros(1 << 10)
        g[2] = 3.0
        rep = weighted_moment(CoeffSeq(g), t=0.5, beta=1.0, kmax=(1 << 10) - 1)
        assert rep.diagnosis.label == "convergent"
        assert rep.checkpoints[-1][1] == math.sqrt(3.0) * 3.0

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.floats(0.25, 2.0), st.floats(0.25, 4.0))
    def test_scaling(self, t, c):
        rng = make_rng(63)
        g = rng.random(200)
        base = weighted_moment(CoeffSeq(g), t, -0.25, 128)
        scaled = weighted_moment(CoeffSeq(c * g), t, -0.25, 128)
        for (k1, s1), (k2, s2) in zip(base.checkpoints, scaled.checkpoints):
            assert k1 == k2
            assert abs(s2 - c**t * s1) <= 1e-9 * max(1.0, s1)

    def test_witness_divergence(self):
        alpha, _ = problem88_witness(0.5, 18)
        rep = weighted_moment(alpha, 0.5, -0.25, kmax=1 << 18)
        assert rep.diagnosis.label == "divergent"
        p = fit_growth_exponent(rep.checkpoints, 13, 18)
        assert 0.15 <= p <= 0.35

    def test_running_out_of_data_is_inconclusive(self):
        # the same law reads divergent with nmax 22; past the end it is flat
        alpha, _ = problem88_witness(0.5, 10)
        rep = weighted_moment(alpha, 0.5, -0.25, kmax=1 << 22)
        assert rep.diagnosis.label == "inconclusive"
        assert rep.diagnosis.growth_exponent is None

    def test_convergent_geometric(self):
        k = np.arange(1 << 12, dtype=float)
        g = CoeffSeq(2.0 ** (-np.minimum(k, 60)))
        rep = weighted_moment(g, 1.0, 0.5, kmax=(1 << 12) - 1)
        assert rep.diagnosis.label == "convergent"

    def test_barely_divergent_harmonic(self):
        k = np.arange(1 << 14, dtype=float)
        rep = weighted_moment(CoeffSeq(1.0 / (1.0 + k)), 1.0, 0.0, kmax=(1 << 14) - 1)
        assert rep.diagnosis.label == "divergent"

    def test_zero_terms_add_zero_when_the_weight_overflows(self):
        # (1 + k)^400 is inf from k = 5 on, and 0 * inf would be nan
        g = np.zeros(64)
        g[0] = 1.0
        rep = weighted_moment(CoeffSeq(g), 1.0, 400.0, kmax=64)
        assert [S for _, S in rep.checkpoints] == [1.0] * 7
        assert rep.diagnosis.label == "convergent"

    def test_invalid_t(self):
        with pytest.raises(InvalidRegime):
            weighted_moment(CoeffSeq([1.0]), 0.0, 0.0, 4)

    def test_invalid_kmax(self):
        with pytest.raises(InvalidParameter):
            weighted_moment(CoeffSeq([1.0]), 1.0, 0.0, kmax=0)


@functools.lru_cache(maxsize=None)
def _witness_diagnosis(t, m, delta=0.0):
    """The streamed moment diagnosis of the witness of nmax m at beta = psi(t)
    + delta and kmax = 2^m."""
    return weighted_moment(problem88_params(t, m), t, psi(t) + delta, 1 << m).diagnosis


def _series_label(g, kmax=(1 << 16) - 1):
    return weighted_moment(CoeffSeq(g), 1.0, 0.0, kmax).diagnosis.label


class TestRegimeBoundary:
    # At beta = psi(t) + delta the witness's block n adds about
    # 2^(n delta) (n+1)^(-(1+t)/2), so its moment diverges for delta >= 0
    # (like m^((1-t)/2) at delta = 0) and converges for delta < 0.  No label
    # may contradict that; inconclusive contradicts nothing.

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        # from about t = 0.002 down, the witness entries of the fit window,
        # 2^(-3n/2) (n+1)^(-(1+1/t)/2), underflow, and their terms are taken
        # in closed form
        t=st.floats(0.001, 1.0, exclude_max=True),
        delta=st.floats(-1.0, 1.0),
        m=st.integers(12, 20),
    )
    def test_no_label_contradicts_the_closed_form(self, t, delta, m):
        label = _witness_diagnosis(t, m, delta).label
        if delta >= 0.0:
            assert label != "convergent", (t, delta, m)
        if delta <= -0.1:
            assert label != "divergent", (t, delta, m)

    @pytest.mark.parametrize("m", [22, 24])
    @pytest.mark.parametrize("t", [0.95, 0.99])
    def test_slow_growth_at_the_boundary_is_not_convergent(self, t, m):
        # the fit reads about (1-t)/2 = 0.025 and 0.005: too small to call
        # divergent, but growth all the same
        diag = _witness_diagnosis(t, m)
        assert diag.label == "inconclusive"
        assert abs(diag.growth_exponent - (1.0 - t) / 2.0) < 0.001

    def test_windows_without_two_positive_increments_are_inconclusive(self):
        k = np.arange(2, 1 << 16, dtype=float)
        k_log_k = np.r_[0.0, 0.0, 1.0 / (k * np.log(k))]
        assert _series_label([1.0, 2.0], kmax=1) == "inconclusive"  # no increment
        assert _series_label([1.0, 2.0, 3.0], kmax=2) == "inconclusive"  # one increment
        assert _series_label(k_log_k) == "inconclusive"  # S ~ log log K: p = 0

    def test_summable_series_read_convergent(self):
        k = np.arange(2, 1 << 16, dtype=float)
        zigzag = np.where(np.log2(k).astype(int) % 2, 0.25, 1.0)  # increments rise and fall
        assert _series_label(np.r_[1.0, 0.25, 1.0 / (1.0 + k) ** 2]) == "convergent"
        assert _series_label(np.r_[1.0, 0.25, zigzag / (1.0 + k) ** 2]) == "convergent"  # cauchy False
        assert _series_label(np.r_[0.0, 0.0, 1.0 / (k * np.log(k) ** 2)]) == "convergent"  # p = -1
        assert _series_label(np.r_[1.0, 0.5, 1.0 / (1.0 + k)]) == "divergent"

    def test_underflowing_entries_take_the_closed_form(self):
        # delta(n) is 0 from block 4 at t = 0.001 (g = 500.5); the sum at
        # beta = psi(t) diverges like m^((1-t)/2) all the same
        params = problem88_params(0.001, 20)
        assert params.delta(3) > 0.0 and params.delta(4) == params.delta(5) == 0.0
        diag = weighted_moment(params, 0.001, psi(0.001), 1 << 20).diagnosis
        assert diag.label == "divergent" and abs(diag.growth_exponent - 0.4995) < 0.001
        # oracle: each term in log space, summed exactly
        t, beta, g = 0.001, psi(0.001), params.g
        rep = weighted_moment(params, t, beta, 1 << 8)
        for K, S in rep.checkpoints:
            want = math.fsum(
                math.exp(-1.5 * (k.bit_length() - 1) * t * math.log(2)
                         - g * t * math.log(k.bit_length()) + beta * math.log(1 + k))
                for k in range(1, K + 1)
            )
            assert abs(S - want) <= 1e-12 * want, (K, S, want)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_CHUNK_ROWS", 37)  # chunk edges inside blocks
            assert weighted_moment(params, t, beta, 1 << 8) == rep

    def test_witness_without_underflow_keeps_its_checkpoints(self):
        # no entry underflows at t = 0.5: the last checkpoints, bit for bit as
        # before the closed form
        rep = weighted_moment(problem88_params(0.5, 22), 0.5, psi(0.5), 1 << 22)
        assert [S.hex() for _, S in rep.checkpoints[-3:]] == [
            "0x1.204b155ab597bp+2", "0x1.2639581acf9eep+2", "0x1.2bf38bf2b57d8p+2"]

    def test_moment_command_on_a_witness_file(self, tmp_path):
        # the witness at t = 0.95 read convergent at fit 0.0251
        from scottish_lab.cli import run

        csv, out = tmp_path / "a.csv", tmp_path / "m.json"
        assert run(["witness88", "--t", "0.95", "--nmax", "18", "--format", "csv", "--out", str(csv)]) == 0
        argv = ["moment", "--input", str(csv), "--t", "0.95", "--beta", repr(psi(0.95)), "--kmax", str(1 << 19)]
        assert run(argv + ["--out", str(out)]) == 0
        diag = json.loads(out.read_text(), parse_constant=pytest.fail)["diagnosis"]  # strict JSON
        assert diag["label"] == "inconclusive" and 0.025 < diag["growth_exponent"] < 0.026

    def test_readme_regime_table(self):
        # README's table of the witness at beta = psi(t), kmax 2^22, row by row
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        header = "| t | fitted p | law (1-t)/2 | label |"
        rows = readme.split(header, 1)[1].split("\n")[2:]
        rows = [row.strip().strip("|").split("|") for row in rows[: rows.index("")]]
        assert [float(row[0]) for row in rows] == [0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95]
        for t, fitted, law, label in ([cell.strip() for cell in row] for row in rows):
            diag = _witness_diagnosis(float(t), 22)
            assert fitted == f"{diag.growth_exponent:.4f}", t
            assert law == f"{(1.0 - float(t)) / 2.0:.3g}", t
            assert label == diag.label, t


class TestPsi:
    def test_reference_values(self):
        assert psi(1.0) == 0.5
        assert psi(2.0) == 2.0
        assert psi(4.0) == 4.0

    def test_continuity_at_breakpoint(self):
        assert abs(psi(2.0 - 1e-9) - psi(2.0)) < 1e-8

    def test_witness_exponent_sits_on_boundary(self):
        for t in (0.25, 0.5, 0.75):
            assert psi(t) == 1.5 * t - 1.0

    def test_invalid(self):
        for t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidRegime):
                psi(t)
