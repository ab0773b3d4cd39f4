import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scottish_lab import (
    CoeffSeq,
    DenseMatrix,
    SignVector,
    hankel_matrix,
    injective_norm_exact,
    injective_norm_search,
    make_rng,
    projective_bracket,
    v2_profile,
)
from scottish_lab import tensornorm
from scottish_lab.errors import InvalidInput, InvalidParameter, TooLargeForExact
from scottish_lab.extremal import problem88_witness
from scottish_lab.verify import brute_force_norm


def brute_signs(n):
    """All sign vectors of length n in lexicographic order, +1 before -1."""
    return [np.array(s) for s in itertools.product((1.0, -1.0), repeat=n)]


def int_matrix(rng, jmax=8, kmax=8):
    J = int(rng.integers(1, jmax + 1))
    K = int(rng.integers(1, kmax + 1))
    return rng.integers(-3, 4, (J, K)).astype(float)


class TestExact:
    def test_identity(self):
        value, x, y = injective_norm_exact(DenseMatrix(np.eye(3)))
        assert value == 3.0
        assert np.array_equal(x.entries, [1, 1, 1])
        assert np.array_equal(y.entries, [1, 1, 1])

    def test_hadamard_2x2(self):
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        value, x, y = injective_norm_exact(DenseMatrix(A))
        # brute force over all 16 sign pairs
        oracle = max(
            abs(np.array([sx0, sx1]) @ A @ np.array([sy0, sy1]))
            for sx0 in (1, -1)
            for sx1 in (1, -1)
            for sy0 in (1, -1)
            for sy1 in (1, -1)
        )
        assert value == oracle == 2.0

    def test_rank_one_factorizes(self):
        rng = make_rng(21)
        for _ in range(10):
            a = rng.integers(-4, 5, int(rng.integers(1, 7))).astype(float)
            b = rng.integers(-4, 5, int(rng.integers(1, 7))).astype(float)
            value, _, _ = injective_norm_exact(DenseMatrix(np.outer(a, b)))
            assert value == np.abs(a).sum() * np.abs(b).sum()

    def test_unit_antidiagonal(self):
        for m in range(0, 10):
            e = np.zeros(m + 1)
            e[m] = 1.0
            Q = hankel_matrix(CoeffSeq(e), m + 1)
            value, _, _ = injective_norm_exact(Q)
            assert value == float(m + 1)

    def test_matches_brute_force(self):
        rng = make_rng(22)
        for _ in range(40):
            A = int_matrix(rng)
            value, x, y = injective_norm_exact(DenseMatrix(A))
            assert value == brute_force_norm(A)
            # certificate reproduces the value
            assert x.entries.astype(float) @ A @ y.entries.astype(float) == value

    def test_prefix_blocked_path(self):
        # a tall matrix: the scan enumerates its 4 columns
        rng = make_rng(23)
        A = rng.integers(-2, 3, (15, 4)).astype(float)
        value, x, y = injective_norm_exact(DenseMatrix(A))
        assert value == float(np.abs(x.entries.astype(float) @ A).sum())
        # sampled sign vectors never beat the reported optimum
        for _ in range(200):
            xs = rng.integers(0, 2, 15) * 2.0 - 1.0
            assert np.abs(xs @ A).sum() <= value

    def test_lex_tie_break_across_steps(self):
        # both (+,+,-) and (+,-,+) attain the optimum; +1 sorts before -1
        A = np.array([[0.0], [1.0], [-1.0]])
        value, x, _ = injective_norm_exact(DenseMatrix(A))
        assert value == 2.0
        assert np.array_equal(x.entries, [1, 1, -1])

    @pytest.mark.parametrize("shape", [(15, 16), (16, 64), (8, 4096)])
    def test_lex_tie_break_across_blocks(self, shape):
        # Ternary matrices with a zero row 2 and repeated rows: maximizers
        # differ in x_1 or x_2, which the scan keeps in its high bits at these
        # wide shapes (a scan buffer holds at most max(2^16, 32 K) entries),
        # so tied maximizers sit in different blocks of the scan.
        J, K = shape
        rng = make_rng(25 + J)
        xs = np.hstack([np.ones((2 ** (J - 1), 1)), np.array(brute_signs(J - 1))])
        for _ in range(3):
            A = rng.integers(-1, 2, (J, K)).astype(float)
            A[2] = 0.0
            A[1] = -A[J - 1]
            A[3] = A[J - 2]
            vals = np.abs(xs @ A).sum(axis=1)
            best = np.flatnonzero(vals == vals.max())
            assert len({tuple(xs[i, 1:3]) for i in best}) > 1
            value, x, _ = injective_norm_exact(DenseMatrix(A))
            assert value == vals.max()
            assert np.array_equal(x.entries, xs[best[0]])

    def test_zero_matrix_canonical(self):
        value, x, y = injective_norm_exact(DenseMatrix(np.zeros((3, 2))))
        assert value == 0.0
        assert np.array_equal(x.entries, [1, 1, 1])
        assert np.array_equal(y.entries, [1, 1])

    def test_cap(self):
        with pytest.raises(TooLargeForExact):
            injective_norm_exact(DenseMatrix(np.zeros((27, 27))))

    @pytest.mark.parametrize("rows", [24, 30])
    def test_tall_enumerates_columns(self, rows):
        rng = make_rng(24 + rows)
        A = rng.integers(-3, 4, (rows, 3)).astype(float)
        value, x, y = injective_norm_exact(DenseMatrix(A))
        # brute force over the 3 columns: max over x of x^T A y is |A y|_1
        sums = [float(np.abs(A @ ys).sum()) for ys in brute_signs(3)]
        assert value == max(sums)
        assert x.entries.astype(float) @ A @ y.entries.astype(float) == value
        # tie-break: the first canonical maximizer y, x the signs of A y
        first = brute_signs(3)[sums.index(value)]
        assert np.array_equal(y.entries, first)
        assert np.array_equal(x.entries, np.where(A @ first < 0, -1, 1))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_triangle_and_homogeneity(self, seed):
        rng = make_rng(seed)
        A = int_matrix(rng, 6, 6)
        B = rng.integers(-3, 4, A.shape).astype(float)
        va, _, _ = injective_norm_exact(DenseMatrix(A))
        vb, _, _ = injective_norm_exact(DenseMatrix(B))
        vab, _, _ = injective_norm_exact(DenseMatrix(A + B))
        assert vab <= va + vb
        v2x, _, _ = injective_norm_exact(DenseMatrix(2.0 * A))
        assert v2x == 2.0 * va

    def test_corner_monotonicity(self):
        rng = make_rng(24)
        for _ in range(20):
            A = int_matrix(rng, 6, 6)
            v_full, _, _ = injective_norm_exact(DenseMatrix(A))
            n = int(rng.integers(1, min(A.shape) + 1))
            v_corner, _, _ = injective_norm_exact(DenseMatrix(A[:n, :n]))
            assert v_corner <= v_full


def signs(v):
    return "".join("+" if e > 0 else "-" for e in v.entries)


def rank_one_pattern(rng, J, K, total):
    """Entries s_j t_k |b_jk| with absolute sum `total`: the optimum is
    `total`, attained by x = s, y = t, so every partial sum reaches it."""
    B = rng.integers(1, 10, (J, K)).astype(float)
    B[0, 0] += total - B.sum()
    s = rng.choice([-1.0, 1.0], J)
    s[0] = 1.0
    return np.outer(s, rng.choice([-1.0, 1.0], K)) * B


class TestIntegerScan:
    """Integer matrices whose absolute sum fits int16 are scanned in int16;
    the results are the float64 scan's, bit for bit."""

    @pytest.mark.parametrize("name, A, pinned", [
        ("22x22 +-3", make_rng(51).integers(-3, 4, (22, 22)).astype(float),
         (290.0, "++-+++-+--+----++++++-", "+--+-++--+-+--++---+++")),
        ("hankel 20 +-5", hankel_matrix(CoeffSeq(make_rng(52).integers(-5, 6, 39).astype(float)), 20).entries,
         (361.0, "+-+--+--+-++-+--+-++", "-++-+--+-++-+--+----")),
        ("24x3", make_rng(53).integers(-3, 4, (24, 3)).astype(float),
         (82.0, "-+-+--+-++------+++--+++", "+++")),
    ])
    def test_pinned_outputs(self, name, A, pinned):
        # (value, x, y) as the float64 scan gave them
        assert tensornorm._int_table_type(A) is np.int16
        value, x, y = injective_norm_exact(DenseMatrix(A))
        assert (value, signs(x), signs(y)) == pinned

    @pytest.mark.parametrize("total, dt", [
        (32767, np.int16), (32768, None), (2**31 - 1, None), (2**31, None),
    ])
    def test_absolute_sum_at_the_type_limits(self, total, dt):
        rng = make_rng(total)
        for J, K in ((5, 7), (7, 4), (1, 6), (6, 1)):
            A = rank_one_pattern(rng, J, K, total)
            assert tensornorm._int_table_type(A) is dt
            value, x, y = injective_norm_exact(DenseMatrix(A))
            assert value == brute_force_norm(A) == total
            assert x.entries.astype(float) @ A @ y.entries.astype(float) == value

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10**5), st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, J, K, amp, seed):
        A = make_rng(seed).integers(-amp, amp + 1, (J, K)).astype(float)
        value, x, y = injective_norm_exact(DenseMatrix(A))
        assert value == brute_force_norm(A)
        assert x.entries.astype(float) @ A @ y.entries.astype(float) == value

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(7, 10), st.integers(10, 64), st.integers(0, 2**32 - 1))
    def test_high_rows_match_the_float_scan(self, J, K, seed):
        # a 64-byte budget leaves 2^5 low patterns, so J - 6 high bits add
        # their rows to the int16 table; amplitudes reach the int16 limit
        rng = make_rng(seed)
        amp = int(rng.integers(0, 32767 // (J * K) + 1))
        A = rng.integers(-amp, amp + 1, (J, K)).astype(float)
        assert tensornorm._int_table_type(A) is np.int16
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensornorm, "_int_table_type", lambda A: None)
            value, x, y = injective_norm_exact(DenseMatrix(A))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensornorm, "_SCAN_BYTES", 64)
            assert injective_norm_exact(DenseMatrix(A)) == (value, x, y)

    @pytest.mark.parametrize("A", [
        np.array([[0.5, 1.0, -2.0], [3.0, -1.0, 4.0], [2.0, 2.0, -6.0]]),
        np.array([[1e17, -3e17, 2.0], [5e16, 1e17, -1e17]]),
    ])
    def test_other_matrices_take_the_float_scan(self, A):
        assert tensornorm._int_table_type(A) is None
        value, x, y = injective_norm_exact(DenseMatrix(A))
        assert value == brute_force_norm(A)
        assert abs(x.entries.astype(float) @ A @ y.entries.astype(float) - value) <= 1e-15 * value


class TestSearch:
    def test_small_budget_finds_hadamard(self):
        A = DenseMatrix([[1.0, 1.0], [1.0, -1.0]])
        assert injective_norm_search(A, 16, seed=0).value == 2.0

    def test_zero_matrix(self):
        assert injective_norm_search(DenseMatrix(np.zeros((4, 4))), 100, 1).value == 0.0

    def test_never_exceeds_exact_and_deterministic(self):
        rng = make_rng(31)
        for i in range(30):
            A = int_matrix(rng)
            Q = DenseMatrix(A)
            exact, _, _ = injective_norm_exact(Q)
            out1 = injective_norm_search(Q, 4 * 2 ** A.shape[0], seed=i)
            out2 = injective_norm_search(Q, 4 * 2 ** A.shape[0], seed=i)
            assert out1.value <= exact
            assert out1.value == out2.value
            assert np.array_equal(out1.x.entries, out2.x.entries)

    def test_budget_accounting(self):
        out = injective_norm_search(DenseMatrix(np.ones((5, 5))), budget=37, seed=3)
        assert out.evaluations <= 37 + 5  # one sweep may finish in flight

    def test_canonical_output(self):
        rng = make_rng(32)
        for i in range(10):
            A = int_matrix(rng)
            out = injective_norm_search(DenseMatrix(A), 256, seed=i)
            assert out.x.entries[0] == 1


def gauss_matrix(rng, jmax=10, kmax=10):
    return rng.standard_normal((int(rng.integers(1, jmax + 1)), int(rng.integers(1, kmax + 1))))


def low_rank_matrix(rng, jmax=10, kmax=10):
    J, K, r = int(rng.integers(1, jmax + 1)), int(rng.integers(1, kmax + 1)), int(rng.integers(1, 4))
    return rng.standard_normal((J, r)) @ rng.standard_normal((r, K))


def assert_upper_certificate(A, br):
    """The upper pairs sum to A and their costs add up to upper."""
    total = sum((np.outer(a, b) for a, b in br.upper_certificate), np.zeros(A.shape))
    assert np.abs(total - A).max() <= 1e-9 * np.abs(A).max()
    up = sum(np.abs(a).max() * np.abs(b).max() for a, b in br.upper_certificate)
    assert abs(up - br.upper) < 1e-9


_H2 = np.array([[1.0, 1.0], [1.0, -1.0]])

# upper, lower and lower certificate of each matrix from the best of the row
# split, the column split and the 8-peel decomposition alone; the search over
# peel depth contains all three, so upper may only fall and lower stays
PINNED_BRACKETS = {
    "hilbert12": (
        lambda: 1.0 / (np.add.outer(np.arange(12), np.arange(12)) + 1.0),
        1.0107414972340056, 1.0, {"kind": "entry", "j": 0, "k": 0, "pairing": 1.0, "denominator": 1.0},
    ),
    "hankel-witness88": (
        lambda: hankel_matrix(problem88_witness(0.5, 4)[0], 16).entries,
        1.1189312900361212, 1.0, {"kind": "entry", "j": 0, "k": 1, "pairing": 1.0, "denominator": 1.0},
    ),
    "repeated-singular-values-7x8": (
        lambda: np.array([[0, 0, 0, 0, 0, 2, 0, 0], [0, 0, 0, -1, 2, -2, 0, 0], [0] * 8,
                          [0, 0, 0, 0, 0, 2, 0, 0], [0, 0, 0, 0, 0, 0, 0, -2],
                          [0, 0, -2, 0, 0, 0, 0, 0], [0] * 8], dtype=float),
        5.408721450120998, 2.0, {"kind": "entry", "j": 0, "k": 5, "pairing": 2.0, "denominator": 1.0},
    ),
    "hadamard8": (
        lambda: np.kron(np.kron(_H2, _H2), _H2),
        8.0, 3.2, {"kind": "self-exact", "pairing": 64.0, "denominator": 20.0},
    ),
    "integer-5x4": (
        lambda: np.array([[-2, -1, -1, -2], [-2, -2, -2, 2], [2, -2, -2, 1], [1, -2, -1, 0],
                          [-1, 2, 1, 2]], dtype=float),
        7.760224047545511, 2.8947368421052633,
        {"kind": "self-exact", "pairing": 55.0, "denominator": 19.0},
    ),
}


class TestSignVector:
    def test_validation(self):
        # 1.5 and -1.9 once passed as 1 and -1, cast to int8 before the check
        for entries in ([1, 0, -1], [1.5, -1.0], [-1.9, 1.0], [1.0, math.nan]):
            with pytest.raises(InvalidParameter):
                SignVector(entries)


class TestBracket:
    def test_rank_one_tight(self):
        rng = make_rng(41)
        for _ in range(20):
            a = rng.integers(-4, 5, int(rng.integers(1, 8))).astype(float)
            b = rng.integers(-4, 5, int(rng.integers(1, 8))).astype(float)
            if not a.any():
                a[0] = 2.0
            if not b.any():
                b[0] = -1.0
            br = projective_bracket(DenseMatrix(np.outer(a, b)))
            v = np.abs(a).max() * np.abs(b).max()
            assert br.lower == br.upper == v

    def test_single_entry(self):
        Q = np.zeros((3, 4))
        Q[1, 2] = 1.0
        br = projective_bracket(DenseMatrix(Q))
        assert br.lower == br.upper == 1.0

    def test_identity_2x2(self):
        br = projective_bracket(DenseMatrix(np.eye(2)))
        assert br.lower >= 1.0 - 1e-12
        assert br.upper <= 2.0 + 1e-12

    def test_zero(self):
        br = projective_bracket(DenseMatrix(np.zeros((2, 3))))
        assert br.lower == br.upper == 0.0

    def test_tall_uses_exact_denominator(self):
        A = make_rng(0).integers(-3, 4, (30, 3)).astype(float)
        br = projective_bracket(DenseMatrix(A))
        exact, _, _ = injective_norm_exact(DenseMatrix(A))
        assert br.lower_certificate["kind"] == "self-exact"
        assert br.lower_certificate["denominator"] == exact

    def test_certificates_reproduce_endpoints(self):
        rng = make_rng(42)
        for make in (int_matrix,) * 20 + (gauss_matrix, low_rank_matrix) * 10:
            A = make(rng)
            br = projective_bracket(DenseMatrix(A))
            assert_upper_certificate(A, br)
            cert = br.lower_certificate
            if cert["kind"] != "zero":
                assert abs(abs(cert["pairing"]) / cert["denominator"] - br.lower) < 1e-9

    @pytest.mark.parametrize("name", PINNED_BRACKETS)
    def test_never_looser_than_the_pinned_brackets(self, name):
        make, upper, lower, lower_cert = PINNED_BRACKETS[name]
        A = make()
        br = projective_bracket(DenseMatrix(A))
        assert br.upper <= upper * (1 + 1e-12)
        assert br.lower == lower and br.lower_certificate == lower_cert
        assert_upper_certificate(A, br)
        if name == "integer-5x4":
            assert br.upper < upper  # an intermediate peel depth is cheaper

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([int_matrix, gauss_matrix, low_rank_matrix]))
    def test_upper_within_the_row_and_column_splits(self, seed, make):
        A = make(make_rng(seed), 10, 10)
        br = projective_bracket(DenseMatrix(A))
        assert br.upper <= sum(np.abs(A).max(axis=1).tolist())
        assert br.upper <= sum(np.abs(A).max(axis=0).tolist())

    def test_overflowing_pairing_does_not_count(self):
        # the self pairing sum(A * A) overflows: the bracket falls back to the
        # entry pairing instead of clamping inf to the upper endpoint
        A = np.array([[1.0, 2.0], [3.0, -1.0]]) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            br = projective_bracket(DenseMatrix(A))
        cert = br.lower_certificate
        assert cert["kind"] == "entry" and br.lower == 3e200
        assert abs(cert["pairing"]) / cert["denominator"] == br.lower < br.upper
        assert br.upper == pytest.approx(5e200, rel=1e-12)
        assert_upper_certificate(A, br)

    def test_rounding_tie_goes_to_the_entry(self):
        # the identity's float trace 0.30000000000000004 / 3 once won by
        # rounding alone; the exact identity pairing is 3 * 0.1, the entry's
        br = projective_bracket(DenseMatrix(0.1 * np.eye(3)))
        assert br.lower_certificate == {"kind": "entry", "j": 0, "k": 0, "pairing": 0.1, "denominator": 1.0}
        assert br.lower == 0.1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_dropped_test_matrices_never_beat_the_entry(self, data):
        # the identity's quotient |tr A| / m <= max |a_jj| <= scale, and A
        # against its absolute sum S gives ||A||_F^2 / S <= scale * S / S:
        # neither exceeds the entry's scale by more than its float summation
        # error, so the bracket tries only the entry and A's exact norm
        if data.draw(st.booleans(), "past the cap"):
            lo = tensornorm.EXACT_ENUM_CAP + 1
            shape = (data.draw(st.integers(lo, lo + 3)), data.draw(st.integers(lo, lo + 3)))
            A = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(-3, 3))).astype(float)
        else:
            shape = (data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7)))
            A = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(
                -1e3, 1e3, allow_nan=False, allow_subnormal=False)))
        J, K = A.shape
        scale = float(np.abs(A).max())
        slack = scale * (1 + J * K * 2.0**-52)
        assert abs(float(np.trace(A))) / min(J, K) <= slack
        S = float(np.abs(A).sum())
        assert S == 0 or float(np.sum(A * A)) / S <= slack
        br = projective_bracket(DenseMatrix(A))
        assert br.lower_certificate["kind"] in ("zero", "entry", "self-exact")
        assert br.strategies[-1] == br.lower_certificate["kind"]

    def test_tiny_matrix_keeps_its_remainder(self):
        # the zero-remainder test is relative to the matrix: at scale 1e-20
        # the remainder after one peel is not zero, so no pair may be dropped
        A = np.array([[1.0, 2.0], [3.0, -1.0]]) * 1e-20
        br = projective_bracket(DenseMatrix(A))
        assert 0.0 < br.lower < br.upper
        assert_upper_certificate(A, br)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_bracket_order(self, seed):
        rng = make_rng(seed)
        A = int_matrix(rng)
        br = projective_bracket(DenseMatrix(A))
        assert 0.0 <= br.lower <= br.upper + 1e-12

    def test_duality_against_exact(self):
        rng = make_rng(43)
        for _ in range(30):
            A = int_matrix(rng)
            B = rng.integers(-3, 4, A.shape).astype(float)
            pairing = abs(float(np.sum(A * B)))
            vb, _, _ = injective_norm_exact(DenseMatrix(B))
            assert pairing <= projective_bracket(DenseMatrix(A)).upper * vb + 1e-9


_FMAX = np.finfo(np.float64).max
_NORMS = {
    "exact": injective_norm_exact,
    "search": lambda Q: injective_norm_search(Q, 50, 0),
    "bracket": projective_bracket,
    "v2": lambda Q: v2_profile(Q, 0),
}


class TestOverflow:
    # an entrywise absolute sum S past float max / 4 is refused: past it
    # the sums of the scans, the search and the bracket could overflow

    @pytest.mark.parametrize("A", [
        [[1e308, 1e308], [1e308, -1e308]],
        [[1e308]],  # S = 1e308 > max / 4
        [[_FMAX, _FMAX]],  # S itself overflows
    ])
    @pytest.mark.parametrize("norm", list(_NORMS))
    def test_refused_without_a_warning(self, A, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="absolute sum"):
                _NORMS[norm](DenseMatrix(A))

    @pytest.mark.parametrize("A", [
        np.array([[1.0, 1.0], [1.0, -1.0]]) * 2.0**1019,  # S = 2^1021, an ulp under max / 4
        make_rng(61).standard_normal((6, 7)) * 1e306,
    ])
    def test_just_under_the_bound_runs_without_a_warning(self, A):
        assert _FMAX / 8 < np.abs(A).sum() <= _FMAX / 4
        Q = DenseMatrix(A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact, _, _ = injective_norm_exact(Q)
            search = injective_norm_search(Q, 200, 3).value
            br = projective_bracket(Q)
            profile = v2_profile(Q, 1)
        assert 0.0 < search <= exact < math.inf
        assert 0.0 < br.lower <= br.upper < math.inf
        assert all(0.0 < b.lower <= b.upper < math.inf for b in profile)


class TestV2:
    def test_all_ones_rank_one_corners(self):
        Q = DenseMatrix(np.ones((6, 6)))
        for br in v2_profile(Q, 5):
            assert br.lower == br.upper == 1.0

    def test_zero(self):
        for br in v2_profile(DenseMatrix(np.zeros((4, 4))), 3):
            assert br.lower == br.upper == 0.0

    def test_harmonic_hankel_lower_bounds_nondecreasing(self):
        g = CoeffSeq(1.0 / (np.arange(31) + 1))
        Q = hankel_matrix(g, 16)
        brs = v2_profile(Q, 15)
        lowers = [b.lower for b in brs]
        for i in range(len(lowers) - 1):
            assert lowers[i + 1] >= lowers[i] - 1e-12

    def test_nmax_validation(self):
        with pytest.raises(InvalidParameter):
            v2_profile(DenseMatrix(np.ones((3, 3))), 3)
