import math
import tracemalloc

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
    problem88_witness,
    psi,
    rudin_shapiro,
    weighted_moment,
)
from scottish_lab import core, extremal
from scottish_lab.dyadic import grid_values
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
            rudin_shapiro(21)


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

    def test_moduli_exact_for_general_targets(self):
        rng = make_rng(61)
        beta = CoeffSeq(rng.random(97))
        f, _ = flat_polynomial(beta, seed=1, descent_budget=50)
        assert np.array_equal(np.abs(f.coeffs), beta.coeffs)

    def test_zero_targets(self):
        f, rep = flat_polynomial(CoeffSeq(np.zeros(5)))
        assert not f.coeffs.any()
        assert rep.ratio == 0.0

    def test_negative_rejected(self):
        with pytest.raises(InvalidTarget):
            flat_polynomial(CoeffSeq([1.0, -0.5]))

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
        assert rep.besov_value == 0.0

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
        assert rep.besov_value <= 4.5 * rep.k_achieved * rep.block_bound + 1e-6

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
        with pytest.raises(InvalidRegime):
            psi(0.0)
