import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scottish_lab import (
    CoeffSeq,
    besov_detail,
    besov_norm,
    dyadic_kernel,
    dyadic_profile,
    hard_block_bound,
    lp_norm_circle,
    lp_norm_detail,
    problem88_witness,
)
from scottish_lab import dyadic
from scottish_lab.dyadic import grid_size, grid_values
from scottish_lab.errors import InvalidExponent, InvalidParameter

# Independent quadrature oracle for ||W_2||_1 at G = 2^16: Horner evaluation
# on a dense grid (no shared code with the FFT path), frozen before the build.
W2_L1_ORACLE = 1.0635444099733649


def horner_l1(coeffs, G):
    theta = 2 * np.pi * np.arange(G) / G
    vals = np.polyval(np.asarray(coeffs)[::-1], np.exp(1j * theta))
    return float(np.abs(vals).mean())


class TestKernels:
    def test_w0(self):
        assert dict(enumerate(dyadic_kernel(0).coeffs)) == {0: 1.0, 1: 1.0}

    def test_w1(self):
        w = dyadic_kernel(1)
        assert {k: v for k, v in enumerate(w.coeffs) if v} == {2: 1.0, 3: 0.5}

    def test_w2(self):
        w = dyadic_kernel(2)
        assert {k: v for k, v in enumerate(w.coeffs) if v} == {
            3: 0.5,
            4: 1.0,
            5: 0.75,
            6: 0.5,
            7: 0.25,
        }

    def test_peak_and_support(self):
        for n in range(1, 11):
            w = dyadic_kernel(n).coeffs
            assert w[1 << n] == 1.0
            assert not np.any(w[: (1 << (n - 1)) + 1])
            assert len(w) == 1 << (n + 1)

    def test_partition_of_unity_exact(self):
        kmax = 1 << 14
        acc = np.zeros(kmax + 1)
        for n in range(16):
            w = dyadic_kernel(n).coeffs
            take = min(w.size, kmax + 1)
            acc[:take] += w[:take]
        assert np.abs(acc - 1.0).max() <= 1e-12


class TestLpNorm:
    def test_monomials_are_unimodular(self):
        for m in (0, 1, 7, 100):
            e = np.zeros(m + 1)
            e[m] = 1.0
            for p in (1.0, 2.0, 3.5, math.inf):
                assert abs(lp_norm_circle(CoeffSeq(e), p) - 1.0) < 1e-12

    def test_w0_closed_form(self):
        got = lp_norm_circle(dyadic_kernel(0), 1, oversample=2048)
        assert abs(got - 4 / math.pi) < 1e-6

    def test_w2_against_independent_oracle(self):
        oracle = horner_l1(dyadic_kernel(2).coeffs, 1 << 16)
        assert abs(oracle - W2_L1_ORACLE) < 1e-12
        got = lp_norm_circle(dyadic_kernel(2), 1, oversample=1 << 13)
        assert abs(got - W2_L1_ORACLE) < 1e-9
        assert 1.0 < got <= 1.5

    def test_parseval_l2(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(33)
        got = lp_norm_circle(CoeffSeq(c), 2)
        assert abs(got - np.sqrt(np.sum(c**2))) < 1e-10

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            lp_norm_circle(CoeffSeq([1.0]), 0.5)

    def test_oversample_validation(self):
        with pytest.raises(InvalidParameter):
            lp_norm_circle(CoeffSeq([1.0]), 1, oversample=1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-1, 1), min_size=1, max_size=200),
        st.integers(2, 16),
        st.sampled_from([1.0, 2.0, math.inf]),
    )
    def test_quadrature_consistency(self, coeffs, oversample, p):
        # a grid four times finer moves the value by at most the reported bound
        f = CoeffSeq(coeffs)
        v, bound, G = lp_norm_detail(f, p, oversample)
        fine, _, fine_G = lp_norm_detail(f, p, 4 * oversample)
        assert fine_G == 4 * G
        assert abs(v - fine) <= bound + 1e-12 * np.abs(f.coeffs).sum()

    def test_bound_is_inf_on_coarse_grids(self):
        # G = 8 <= pi * 3: the derivative estimate bounds nothing
        assert lp_norm_detail(CoeffSeq([1.0, 0, 0, 1.0]), 1, oversample=2)[1] == math.inf
        assert lp_norm_detail(CoeffSeq([1.0]), 1, oversample=2)[1] == 0.0


class TestHalfGrid:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=1, max_size=400),
        st.integers(2, 16),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    )
    @example([0.75], 2, 1.0)
    @example([1.0, -0.5], 3, math.inf)
    def test_matches_full_grid(self, coeffs, oversample, p):
        # the complex path evaluates all G points: the oracle for the half grid
        real = CoeffSeq(coeffs)
        full = CoeffSeq(real.coeffs.astype(complex))
        v, bound, G = lp_norm_detail(real, p, oversample)
        want, want_bound, want_G = lp_norm_detail(full, p, oversample)
        assert G == want_G
        assert abs(v - want) <= 1e-12 * want
        assert math.isclose(bound, want_bound, rel_tol=1e-12)
        half, grid = grid_values(real, oversample), grid_values(full, oversample)
        assert half.size == G // 2 + 1 and grid.size == G
        assert np.abs(half - grid[: G // 2 + 1]).max() <= 1e-12 * np.abs(real.coeffs).sum()


class TestParseval:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=1, max_size=400),
        st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=1, max_size=400),
        st.integers(2, 16),
    )
    @example([0.0], [0.0], 2)
    @example([1.0, -0.5], [0.25], 3)
    def test_matches_full_grid_mean(self, re, im, oversample):
        # oracle: the mean of |f|^2 over all G points of one full-grid FFT
        n = min(len(re), len(im))
        for c in (np.asarray(re), np.asarray(re[:n]) + 1j * np.asarray(im[:n])):
            f = CoeffSeq(c)
            v, bound, G = lp_norm_detail(f, 2, oversample)
            assert G == grid_size(len(f), oversample)
            assert bound == 0.0
            want = math.sqrt(np.mean(np.abs(np.fft.fft(c, G)) ** 2))
            assert abs(v - want) <= 1e-12 * want

    def test_profiles_take_no_grid(self, monkeypatch):
        calls = []
        real = dyadic.grid_values

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dyadic, "grid_values", counting)
        rng = np.random.default_rng(17)
        f = CoeffSeq(rng.standard_normal(300))
        fc = CoeffSeq(rng.standard_normal(300) + 1j * rng.standard_normal(300))
        for g in (f, fc):
            prof = dyadic_profile(g, 0.5, 2.0, 9)
            assert not prof.error_bounds.any()
            assert prof.grid == grid_size(1 << 10, dyadic.DEFAULT_OVERSAMPLE)
        norm, bound, _ = besov_detail(f, 0.5, 2.0, 2.0, 9)
        assert bound == 0.0 and norm > 0
        assert calls == []
        dyadic_profile(f, 0.5, 1.0, 9)  # other exponents still go through the grid
        assert len(calls) == 10


def full_grid_detail(c, p, oversample):
    """lp_norm_detail's value and bound from the moduli of one full G-point
    numpy.fft.fft, the grid never split."""
    G = grid_size(len(c), oversample)
    mags = np.abs(np.fft.fft(c, G))
    peak = mags.max()
    value = peak if math.isinf(p) else np.mean(mags**p) ** (1 / p)
    slack = G - math.pi * (len(c) - 1)
    return value, math.pi * (len(c) - 1) * peak / slack if slack > 0 else math.inf, G


class TestCosets:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=1, max_size=40),
        st.lists(st.floats(-1, 1, allow_subnormal=False), min_size=1, max_size=40),
        st.sampled_from([2, 4, 8, 16]),
        st.integers(2, 16),
        st.sampled_from([1.0, 1.5, 3.0, math.inf]),
    )
    @example([0.5] * 40, [0.25] * 40, 2, 16, 1.0)  # 20 chunks folded, r = 512 cosets
    @example([1.0, -1.0, 0.5], [0.0], 4, 3, math.inf)  # r = 4, n < L
    @example([0.0] * 17, [0.0] * 17, 16, 2, 3.0)
    def test_matches_one_full_fft(self, re, im, points, oversample, p):
        # the grid split into cosets of `points` points, folded when the
        # coefficients outrun them, against one full-grid FFT
        n = min(len(re), len(im))
        for c in (np.asarray(re), np.asarray(re[:n]) + 1j * np.asarray(im[:n])):
            with mock.patch.object(dyadic, "_FFT_POINTS", points):
                v, bound, G = lp_norm_detail(CoeffSeq(c), p, oversample)
            want, want_bound, want_G = full_grid_detail(c, p, oversample)
            assert G == want_G
            assert abs(v - want) <= 1e-12 * want
            assert bound == want_bound or abs(bound - want_bound) <= 1e-12 * want_bound

    @pytest.mark.parametrize("cplx", [False, True])
    def test_grids_within_one_fft_are_unchanged(self, cplx):
        # G <= _FFT_POINTS: one grid_values call, summed as it always was
        rng = np.random.default_rng(31)
        c = rng.standard_normal(1000) + (1j * rng.standard_normal(1000) if cplx else 0)
        f = CoeffSeq(c)
        for p in (1.0, 3.0, math.inf):
            v, _, G = lp_norm_detail(f, p, oversample=64)
            assert G == dyadic._FFT_POINTS
            mags = np.abs(grid_values(f, 64))
            if not math.isinf(p):
                powers = mags**p
                total = powers.sum() if cplx else 2 * powers.sum() - powers[0] - powers[-1]
                assert v == float((total / G) ** (1.0 / p))
            else:
                assert v == float(mags.max())

    def test_no_transform_exceeds_the_coset(self, monkeypatch):
        sizes = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            real = getattr(np.fft, name)

            def recording(a, n=None, *args, real=real, **kwargs):
                sizes.append(len(a) if n is None else n)
                return real(a, n, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recording)
        f = CoeffSeq(np.random.default_rng(37).standard_normal(1 << 15))
        prof = dyadic_profile(f, 0.0, 1.0, 15)  # block 15's grid has 2^19 points
        assert prof.grid == 1 << 19
        assert max(sizes) == dyadic._FFT_POINTS
        monkeypatch.undo()
        for n in (13, 15):  # the grids of 2^17 and 2^19 points
            w = dyadic_kernel(n).coeffs
            block = f.padded(w.size) * w
            want, _, _ = full_grid_detail(block, 1.0, dyadic.DEFAULT_OVERSAMPLE)
            assert abs(prof.values[n] - want) <= 1e-12 * want

    def test_w0_on_the_size_cap_grid_takes_little_memory(self):
        # 2^25 grid points at oversample 2^24, in 2^9 cosets: one grid would
        # take 384 MiB, its (2^24 + 1)-point rfft output and the moduli
        tracemalloc.start()
        try:
            v, bound, G = lp_norm_detail(dyadic_kernel(0), 1, oversample=1 << 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G == 1 << 25
        assert peak < 16 << 20, peak
        assert abs(v - 4 / math.pi) <= bound + 1e-12


class TestProfile:
    def test_monomial_hits_single_block(self):
        for j in range(0, 9):
            e = np.zeros((1 << j) + 1)
            e[-1] = 1.0
            prof = dyadic_profile(CoeffSeq(e), s=1.0, p=math.inf, nmax=j + 2)
            expected = np.zeros(j + 3)
            expected[j] = float(1 << j)
            assert np.abs(prof.values - expected).max() < 1e-9 * (1 << j)

    def test_zero_function(self):
        prof = dyadic_profile(CoeffSeq([0.0]), 0.0, 1.0, 5)
        assert not prof.values.any()

    def test_all_ones_reproduces_kernel_norms(self):
        f = CoeffSeq(np.ones((1 << 10) + 1))
        prof = dyadic_profile(f, 0.0, 1.0, 9)
        for n in range(2, 10):  # kernels with support inside the degree
            kn = lp_norm_circle(dyadic_kernel(n), 1)
            assert abs(prof.values[n] - kn) < 1e-12
            assert prof.values[n] <= 1.5

    def test_truncation_flag(self):
        f = CoeffSeq(np.ones(100))
        assert dyadic_profile(f, 0.0, 1.0, 2).truncated
        assert not dyadic_profile(f, 0.0, 1.0, 6).truncated
        # z^4 lies outside every kernel up to nmax = 1
        assert dyadic_profile(CoeffSeq([0, 0, 0, 0, 1.0]), 0.0, 1.0, 1).truncated

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 6), st.integers(-3, 3))
    def test_monomial_truncated_iff_outside_kernels(self, nmax, offset):
        d = max(0, (1 << (nmax + 1)) + offset)  # degrees around the top kernel's end
        e = np.zeros(d + 1)
        e[d] = 1.0
        prof = dyadic_profile(CoeffSeq(e), 0.0, 1.0, nmax)
        assert prof.truncated == (d >= 1 << (nmax + 1))

    def test_grid_meets_floor(self):
        # profiles promise these grids, for real and complex input alike; a
        # faster path may not shrink them
        def smallest_power_of_two(x):
            g = 1
            while g < x:
                g *= 2
            return g

        prof = dyadic_profile(CoeffSeq([1.0, 1.0]), 0.0, 1.0, 4, oversample=8)
        assert prof.grid == 8 * (1 << 5)
        rng = np.random.default_rng(11)

        def complex_normal(n):
            return rng.standard_normal(n) + 1j * rng.standard_normal(n)

        for make in (rng.standard_normal, complex_normal):
            for n, oversample in ((1, 2), (2, 3), (100, 8), (257, 5)):
                G = lp_norm_detail(CoeffSeq(make(n)), 1.0, oversample)[2]
                assert G == smallest_power_of_two(oversample * n)
            for nmax, oversample in ((0, 2), (4, 3), (7, 8)):
                prof = dyadic_profile(CoeffSeq(make(1 << nmax)), 0.0, 1.0, nmax, oversample)
                assert prof.grid == smallest_power_of_two(oversample << (nmax + 1))


class TestBesov:
    def test_monomial_norm(self):
        for j in range(0, 15):
            e = np.zeros((1 << j) + 1)
            e[-1] = 1.0
            v = besov_norm(CoeffSeq(e), 1.0, math.inf, 1.0, j + 1)
            assert abs(v - (1 << j)) <= 1e-6 * (1 << j)

    def test_two_block_sum(self):
        f = CoeffSeq([0, 0, 1.0, 0, 0, 0, 0, 0, 1.0])
        assert abs(besov_norm(f, 1.0, math.inf, 1.0, 4) - 10.0) < 1e-6

    def test_zero(self):
        assert besov_norm(CoeffSeq([0.0]), 1.0, math.inf, 1.0, 3) == 0.0

    def test_q_infinity_takes_max(self):
        f = CoeffSeq([0, 0, 1.0, 0, 0, 0, 0, 0, 1.0])
        assert abs(besov_norm(f, 1.0, math.inf, math.inf, 4) - 8.0) < 1e-9

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=64),
        st.floats(0.125, 8.0),
    )
    def test_scaling(self, coeffs, c):
        f = CoeffSeq(coeffs)
        g = CoeffSeq(c * f.coeffs)
        a = besov_norm(f, 0.0, 1.0, 1.0, 5)
        b = besov_norm(g, 0.0, 1.0, 1.0, 5)
        assert abs(b - c * a) <= 1e-9 * max(1.0, a) * c

    def test_reconstruction(self):
        # summing the block coefficient arrays recovers f
        rng = np.random.default_rng(3)
        f = CoeffSeq(rng.standard_normal((1 << 9) + 1))
        total = np.zeros(1 << 11)
        for n in range(11):
            w = dyadic_kernel(n).coeffs
            total[: w.size] += f.padded(w.size) * w
        assert np.abs(total[: len(f)] - f.coeffs).max() < 1e-12
        assert np.abs(total[len(f) :]).max() < 1e-12

    def test_error_bound_dominates_oversample_change(self):
        f = CoeffSeq(np.random.default_rng(9).standard_normal(200))
        n1, b1, _ = besov_detail(f, 0.0, 1.0, 1.0, 7, oversample=8)
        n2, _, _ = besov_detail(f, 0.0, 1.0, 1.0, 7, oversample=16)
        assert abs(n1 - n2) <= b1


class TestHardBlockBound:
    def test_unit_at_zero(self):
        assert hard_block_bound(CoeffSeq([1.0]), 10) == 1.0

    def test_single_block_coefficient(self):
        for j in range(0, 12):
            e = np.zeros((1 << j) + 1)
            e[-1] = 1.0
            assert hard_block_bound(CoeffSeq(e), 12) == float(1 << j)

    def test_witness_partial_sum(self):
        alpha, params = problem88_witness(0.5, 14)
        got = hard_block_bound(alpha, 14)
        oracle = math.fsum((n + 1) ** -1.5 for n in range(15))
        assert abs(got - oracle) < 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-4, 4), min_size=1, max_size=64), st.floats(0.25, 4))
    def test_scaling(self, coeffs, c):
        g = CoeffSeq(coeffs)
        a = hard_block_bound(g, 6)
        b = hard_block_bound(CoeffSeq(c * g.coeffs), 6)
        assert abs(b - c * a) <= 1e-9 * max(1.0, a) * c
