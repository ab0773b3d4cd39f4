import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scottish_lab import (
    CoeffSeq,
    DenseMatrix,
    antidiagonal_average,
    cesaro_product,
    hankel_matrix,
    limit_estimate,
    make_rng,
    problem8_witness,
    range_diagnostic,
)
from scottish_lab import core, dyadic, mazur
from scottish_lab.errors import InvalidInput, InvalidParameter, TooShort


class TestAverage:
    def test_inverts_hankel_exactly(self):
        rng = make_rng(51)
        for _ in range(20):
            N = int(rng.integers(1, 65))
            z = rng.integers(-1000, 1001, 2 * N - 1).astype(float) / 256.0
            avg = antidiagonal_average(hankel_matrix(CoeffSeq(z), N))
            assert np.array_equal(avg.coeffs[:N], z[:N])

    def test_single_entry(self):
        Q = np.zeros((4, 5))
        Q[2, 1] = 1.0
        avg = antidiagonal_average(DenseMatrix(Q))
        expected = np.zeros(8)
        expected[3] = 1.0 / 4.0
        assert np.array_equal(avg.coeffs, expected)

    def test_zero(self):
        assert not antidiagonal_average(DenseMatrix(np.zeros((3, 3)))).coeffs.any()

    def test_rectangular_divisor_convention(self):
        # the divisor stays n+1 even when the antidiagonal is short
        avg = antidiagonal_average(DenseMatrix(np.ones((2, 3))))
        assert np.array_equal(avg.coeffs, [1.0, 1.0, 2.0 / 3.0, 1.0 / 4.0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=64),
            elements=st.floats(-1e300, 1e300, allow_subnormal=True),
        )
    )
    def test_matches_the_scatter_formula(self, A):
        # the oracle scatters every entry by its antidiagonal in row-major
        # order; equal bits pin the order in which each sum is taken
        J, K = A.shape
        n_index = np.add.outer(np.arange(J), np.arange(K)).ravel()
        sums = np.bincount(n_index, weights=A.ravel(), minlength=J + K - 1)
        want = sums / (np.arange(J + K - 1) + 1.0)
        assert np.array_equal(antidiagonal_average(DenseMatrix(A)).coeffs, want)

    def test_holds_no_array_the_size_of_the_matrix(self):
        Q = DenseMatrix(make_rng(52).standard_normal((2048, 2048)))  # 32 MiB
        tracemalloc.start()
        try:
            antidiagonal_average(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak  # an index array of the entries takes 32 MiB

    @pytest.mark.parametrize("A", [[[1e308, 1e308], [1e308, -1e308]], [[1e308, 1e308, 1.0]] * 2,
                                   [[1.0, 1e308], [1e308, 1.0], [1.0, 1.0]]])
    def test_overflowing_sum_is_named(self, A):
        # finite entries, by rows and by columns, whose sum lies past the float range
        with pytest.raises(InvalidInput, match="^antidiagonal sum 1 overflows the float range$"):
            antidiagonal_average(DenseMatrix(A))


class TestProduct:
    def test_all_ones_leading_entries(self):
        x = CoeffSeq(np.ones(64))
        z = cesaro_product(x, x)
        assert np.array_equal(z.coeffs[:64], np.ones(64))

    def test_unit_impulse(self):
        rng = make_rng(52)
        y = rng.standard_normal(40)
        z = cesaro_product(CoeffSeq([1.0]), CoeffSeq(y))
        assert np.abs(z.coeffs - y / (np.arange(40) + 1)).max() < 1e-15

    def test_matches_averaged_outer(self):
        rng = make_rng(53)
        for _ in range(20):
            x = rng.standard_normal(int(rng.integers(1, 300)))
            y = rng.standard_normal(int(rng.integers(1, 300)))
            via_matrix = antidiagonal_average(DenseMatrix(np.outer(x, y)))
            direct = cesaro_product(CoeffSeq(x), CoeffSeq(y))
            assert np.abs(via_matrix.coeffs - direct.coeffs).max() < 1e-12

    def test_complex_inputs(self):
        x = CoeffSeq(np.array([1 + 1j, 2.0]))
        y = CoeffSeq(np.array([1.0, -1j]))
        z = cesaro_product(x, y)
        conv = np.convolve(x.coeffs, y.coeffs)
        assert np.abs(z.coeffs - conv / np.array([1, 2, 3])).max() < 1e-15

    def test_constant_inputs_exact(self):
        # dyadic-rational constants average back exactly; 512 * 512 = 2^18
        # products is the largest direct convolution
        for n in (100, 512):
            x = CoeffSeq(np.full(n, 0.5))
            y = CoeffSeq(np.full(n, -0.25))
            z = cesaro_product(x, y)
            assert np.array_equal(z.coeffs[:n], np.full(n, -0.125))

    def test_limits_multiply(self):
        n = np.arange(4096, dtype=float)
        x = CoeffSeq(2.0 + 2.0 ** (-np.minimum(n, 50)))
        y = CoeffSeq(3.0 + 2.0 ** (-np.minimum(n, 50)))
        z = cesaro_product(x, y)
        d = limit_estimate(CoeffSeq(z.coeffs[:4096]))  # stay in the filled range
        assert abs(d - 6.0) < 0.01

    def test_fft_branch_matches_direct(self):
        # 5000 * 4000 products lie past _DIRECT_CONV_LIMIT
        assert 5000 * 4000 > mazur._DIRECT_CONV_LIMIT
        rng = make_rng(54)
        a = rng.standard_normal(5000)
        b = rng.standard_normal(4000)
        ac = a + 1j * rng.standard_normal(5000)
        n = np.arange(5000 + 4000 - 1) + 1.0
        for x, y in ((a, b), (ac, b), (b, ac)):
            conv = np.convolve(x, y)
            z = cesaro_product(CoeffSeq(x), CoeffSeq(y)).coeffs
            assert z.dtype == (np.complex128 if np.iscomplexobj(conv) else np.float64)
            assert np.abs(z - conv / n).max() <= 1e-12 * np.abs(conv).max()

    @pytest.mark.parametrize("n", [2, 600])  # direct, and by FFT past _DIRECT_CONV_LIMIT
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_overflowing_sum_is_named(self, n, dtype):
        x = CoeffSeq(np.full(n, 1e308, dtype))
        with pytest.raises(InvalidInput, match="^Cauchy product sum 0 overflows the float range$"):
            cesaro_product(x, x)

    @pytest.mark.parametrize("n", [500, 600])  # direct, and by FFT past _DIRECT_CONV_LIMIT
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_first_overflowing_sum_is_named(self, n, dtype):
        # sum k is (k + 1) * 1e306, past the float range from k = 179 on; an
        # overflow inside the FFT once spoilt every term and named sum 0
        x = CoeffSeq(np.full(n, 1e306, dtype))
        with pytest.raises(InvalidInput, match="^Cauchy product sum 179 overflows the float range$"):
            cesaro_product(x, CoeffSeq(np.ones(n)))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_fft_overflow_with_finite_sums(self, dtype):
        # every sum is 1e308 or 0, but the transform of the alternating signs
        # passes the float range: the product comes from the scaled inputs
        signs = np.resize(np.array([1.0, -1.0], dtype), 600)
        z = cesaro_product(CoeffSeq(1e308 * signs), CoeffSeq(np.ones(600)))
        want = np.convolve(signs, np.ones(600)) * 1e308 / np.arange(1, 1200)
        assert np.abs(z.coeffs - want).max() <= 1e-12 * 1e308

    def test_fft_overflow_of_a_modulus_past_the_float_range(self):
        # |1.5e308 (1 + i)| overflows though both parts are finite: the
        # rescale reads the parts, so the finite sums come out (the modulus
        # once gave an exponent of 0, and sum 0 was named as overflowing)
        z = cesaro_product(CoeffSeq(np.full(600, 1.5e308 * (1 + 1j))), CoeffSeq(np.full(600, 1e-300)))
        k = np.arange(1199)
        want = 1.5e8 * (1 + 1j) * np.minimum(k + 1, 1199 - k) / (k + 1)
        assert np.abs(z.coeffs - want).max() <= 1e-12 * np.abs(want).max()

    def test_size_cap(self, monkeypatch):
        # the product of two lengths n has 2n - 1 entries and an FFT grid of 2n
        monkeypatch.setattr(core, "SIZE_CAP_LOG2", 10)
        x = CoeffSeq(np.ones(1 << 10))
        with pytest.raises(InvalidParameter, match="size cap"):
            cesaro_product(x, x)
        assert len(cesaro_product(CoeffSeq(np.ones(512)), CoeffSeq(np.ones(513)))) == 1 << 10

    def test_square_4096_takes_fft_branch(self, monkeypatch):
        # 4096 * 4096 = 2^24 products: past the 2^18 crossover, so no direct convolution
        assert 4096 * 4096 > mazur._DIRECT_CONV_LIMIT
        rng = make_rng(55)
        a = rng.standard_normal(4096)
        b = rng.uniform(-1.0, 1.0, 4096)
        ac = a + 1j * rng.standard_normal(4096)
        cases = [(x, y, np.convolve(x, y)) for x, y in ((a, b), (ac, b))]

        def refuse(*args, **kwargs):
            raise AssertionError("direct convolution above the limit")

        monkeypatch.setattr(np, "convolve", refuse)
        n = np.arange(2 * 4096 - 1) + 1.0
        for x, y, conv in cases:
            z = cesaro_product(CoeffSeq(x), CoeffSeq(y)).coeffs
            assert z.dtype == conv.dtype
            assert np.abs(z * n - conv).max() <= 1e-12 * np.abs(conv).max()


class TestWitness:
    def test_block_structure(self):
        z, rep = problem8_witness(8, seed=4, sign_mode="random")
        assert z.coeffs[0] == 0.0
        for n in range(9):
            blk = z.coeffs[1 << n : 1 << (n + 1)]
            assert np.all(np.abs(blk) == 1.0 / (n + 1))
            assert rep.blocks[n]["linf"] == 1.0 / (n + 1)

    def test_deterministic(self):
        z1, r1 = problem8_witness(8, seed=9, sign_mode="random")
        z2, r2 = problem8_witness(8, seed=9, sign_mode="random")
        assert z1 == z2
        assert r1.fit == r2.fit

    def test_rs_lower_bound_small(self):
        _, rep = problem8_witness(12, sign_mode="rudin_shapiro")
        for n in range(8, 13):
            bound = 2 ** (n / 2) / ((n + 1) * math.sqrt(2))
            assert rep.blocks[n]["l1"] - rep.blocks[n]["l1_bound"] >= bound  # the certified side

    def test_rs_growth_flag(self):
        _, rep = problem8_witness(12, sign_mode="rudin_shapiro")
        assert rep.flags["profile_growth"]
        assert rep.flags["bounded_by_one"]
        assert rep.flags["block_peaks_decreasing"]

    def test_growth_flag_reads_the_report_blocks(self):
        # the 13 hard blocks of the report and no other grid
        real = dyadic.lp_norm_detail
        with mock.patch.object(mazur, "lp_norm_detail", wraps=real) as blocks, \
                mock.patch.object(dyadic, "lp_norm_detail", wraps=real) as profile:
            problem8_witness(12, seed=3, sign_mode="rudin_shapiro")
        assert (blocks.call_count, profile.call_count) == (13, 0)
        # Rudin-Shapiro block n does not depend on nmax, so the blocks of
        # nmax 20 hold the certified top/early ratio of every smaller nmax
        _, rep = problem8_witness(20, sign_mode="rudin_shapiro")
        lower = [b["l1"] - b["l1_bound"] for b in rep.blocks]
        upper = [b["l1"] + b["l1_bound"] for b in rep.blocks]
        ratios = {nmax: lower[nmax] / max(upper[: nmax // 2]) for nmax in range(2, 21)}
        assert {n: f"{ratios[n]:.2f}" for n in (8, 9, 12, 16, 20)} == {
            8: "1.44", 9: "1.83", 12: "3.92", 16: "8.00", 20: "16.16"}
        # README's table of the ratio and the flag
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        head, _, ratio_row, flag_row = readme.split("  | `nmax` |", 1)[1].splitlines()[:4]
        ns = [int(c) for c in head.strip(" |").split("|")]
        assert ratio_row.strip(" |").split(" | ")[1:] == [f"{ratios[n]:.2f}" for n in ns]
        assert flag_row.strip(" |").split(" | ")[1:] == [str(ratios[n] >= 1.5).lower() for n in ns]
        assert rep.flags["profile_growth"]
        assert not problem8_witness(8, sign_mode="rudin_shapiro")[1].flags["profile_growth"]

    def test_fit_recomputable_from_blocks(self):
        _, rep = problem8_witness(13, seed=2, sign_mode="random")
        start = rep.params["fit_start"]
        ns = np.arange(start, 14)
        l1 = np.array([rep.blocks[n]["l1"] for n in ns])
        ys = np.log2(l1 * (ns + 1))
        x = ns - ns.mean()
        slope = float((x * (ys - ys.mean())).sum() / (x * x).sum())
        assert abs(slope - rep.fit["slope"]) < 1e-12

    def test_nmax_cap(self):
        with pytest.raises(InvalidParameter):
            problem8_witness(23)

    def test_tiny_nmax_has_no_fit(self):
        _, rep = problem8_witness(0, seed=1)
        assert rep.fit["slope"] is None
        _, rep = problem8_witness(1, seed=1)
        assert rep.fit["slope"] is not None  # two blocks suffice
        # every witness carries the flag; below nmax 2 no block precedes nmax // 2
        for nmax in (0, 1):
            assert problem8_witness(nmax, sign_mode="rudin_shapiro")[1].flags["profile_growth"] is False

    def test_size_cap_before_any_block(self, monkeypatch):
        # block 12's 2^26-point grid is refused before block 0 is measured
        calls = []

        def counting(*args):
            calls.append(args)
            return 1.0

        monkeypatch.setattr(mazur, "lp_norm_detail", counting)
        with pytest.raises(InvalidParameter, match="size cap"):
            problem8_witness(12, sign_mode="rudin_shapiro", oversample=1 << 14)
        assert calls == []

    def test_bad_sign_mode(self):
        with pytest.raises(InvalidParameter):
            problem8_witness(4, sign_mode="alternating")


class TestRangeDiagnostic:
    def test_constant_sequence(self):
        diag = range_diagnostic(CoeffSeq(np.full(64, 3.25)), 5)
        assert diag.classification == "bounded"
        assert diag.sup == 0.0
        assert diag.limit == 3.25
        assert diag.values.tolist() == [0.0] * 6 and diag.growth_ratio is None

    @pytest.mark.parametrize("nmax", [-1, -2])
    def test_constant_sequence_refuses_negative_nmax(self, nmax):
        # a constant sequence once skipped the profile's checks: -2 ended in a ValueError
        with pytest.raises(InvalidParameter, match="nonnegative"):
            range_diagnostic(CoeffSeq(np.full(64, 3.25)), nmax)

    def test_single_block_is_bounded(self):
        # one profile value leaves no early block to compare
        diag = range_diagnostic(CoeffSeq([1.0, 2.0, 3.0, 4.0]), 0)
        assert diag.classification == "bounded"
        assert diag.growth_ratio is None

    def test_witness_is_growing(self):
        z, _ = problem8_witness(12, sign_mode="rudin_shapiro")
        diag = range_diagnostic(z, 12)
        assert diag.classification == "growing"
        assert f"{diag.growth_ratio:.2f}" == "2.34"

    def test_product_image_not_growing(self):
        rng = make_rng(54)
        n = np.arange(2048, dtype=float)
        x = CoeffSeq(1.0 + rng.uniform(-1, 1, 2048) / (n + 1))
        y = CoeffSeq(1.0 + rng.uniform(-1, 1, 2048) / (n + 1))
        diag = range_diagnostic(cesaro_product(x, y), 11)
        assert diag.classification == "bounded"
        assert f"{diag.growth_ratio:.3f}" == "0.535"

    def test_decaying_profile(self):
        # the top blocks are zero, so the certified ratio is 0
        k = np.arange(4096, dtype=float)
        diag = range_diagnostic(CoeffSeq(2.0 ** (-np.minimum(k, 60))), 11)
        assert diag.classification == "bounded"
        assert diag.growth_ratio == 0.0

    def test_sup_is_the_certified_upper_side(self):
        z = CoeffSeq(make_rng(56).standard_normal(256))
        diag = range_diagnostic(z, 6)
        prof = dyadic.dyadic_profile(CoeffSeq(z.coeffs - diag.limit), 0.0, 1.0, 6)
        assert np.array_equal(diag.values, prof.values)
        assert diag.sup == (prof.values + prof.error_bounds).max()

    def test_complex_sequence(self):
        # the removed limit may be complex
        rng = make_rng(55)
        z = CoeffSeq((2.0 + 1.0j) + rng.standard_normal(512) / (np.arange(512) + 5.0))
        diag = range_diagnostic(z, 8)
        assert abs(diag.limit - (2.0 + 1.0j)) < 0.1
        assert diag.classification == "bounded"

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(2, 9), st.one_of(st.just("witness"), st.floats(-1.0, 0.5)), st.integers(0, 2**31))
    def test_growing_agrees_with_a_finer_grid(self, nmax, law, seed):
        # block n: random signs times one random modulus, which follows the
        # witness's 1/(n+1) or 2^(law n) (block L1 near 2^((law + 1/2) n))
        rng = make_rng(seed)
        z = np.zeros(2 << nmax)
        for n in range(nmax + 1):
            scale = 1.0 / (n + 1) if law == "witness" else 2.0 ** (law * n)
            z[1 << n : 2 << n] = scale * rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0], 1 << n)
        diag = range_diagnostic(CoeffSeq(z), nmax)
        ratio = diag.growth_ratio
        assert (diag.classification == "growing") == (ratio is not None and ratio >= 1.5)
        fine = dyadic.dyadic_profile(CoeffSeq(z - diag.limit), 0.0, 1.0, nmax, oversample=128)
        lower, upper = fine.values - fine.error_bounds, fine.values + fine.error_bounds
        assert diag.sup >= lower.max()
        if diag.classification == "growing":
            assert upper[nmax] >= 1.5 * lower[: nmax // 2].max()

    def test_too_short(self):
        with pytest.raises(TooShort):
            range_diagnostic(CoeffSeq([1.0, 2.0]), 3)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31))
    def test_deterministic_given_input(self, seed):
        rng = make_rng(seed)
        z = CoeffSeq(rng.standard_normal(256))
        a = range_diagnostic(z, 6)
        b = range_diagnostic(z, 6)
        assert (a.classification, a.growth_ratio) == (b.classification, b.growth_ratio)
        assert np.array_equal(a.values, b.values)
