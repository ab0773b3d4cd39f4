import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scottish_lab import (
    CoeffSeq,
    DenseMatrix,
    SignVector,
    derive_seed,
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


def table_type(A):
    """The scan's table type for A, given the absolute sum its gate takes."""
    return tensornorm._int_table_type(A, tensornorm._abs_sum(np.abs(A)))


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
        assert table_type(A) is np.int16
        value, x, y = injective_norm_exact(DenseMatrix(A))
        assert (value, signs(x), signs(y)) == pinned

    @pytest.mark.parametrize("total, dt", [
        (32767, np.int16), (32768, None), (2**31 - 1, None), (2**31, None),
    ])
    def test_absolute_sum_at_the_type_limits(self, total, dt):
        rng = make_rng(total)
        for J, K in ((5, 7), (7, 4), (1, 6), (6, 1)):
            A = rank_one_pattern(rng, J, K, total)
            assert table_type(A) is dt
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
    @given(st.integers(7, 10), st.integers(10, 600), st.integers(0, 2**32 - 1))
    def test_high_rows_match_the_float_scan(self, J, K, seed):
        # a 64-byte budget leaves 2^5 low patterns, so J - 6 high bits add
        # their rows to the int16 table; amplitudes reach the int16 limit.
        # K runs past 2^lo in both scans (2^5 here, at most 2^(J - 1) in the
        # float64 one), so each stores its table by column and by row.
        rng = make_rng(seed)
        amp = int(rng.integers(0, 32767 // (J * K) + 1))
        A = rng.integers(-amp, amp + 1, (J, K)).astype(float)
        assert table_type(A) is np.int16
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensornorm, "_int_table_type", lambda A, S: None)
            value, x, y = injective_norm_exact(DenseMatrix(A))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensornorm, "_SCAN_BYTES", 64)
            assert injective_norm_exact(DenseMatrix(A)) == (value, x, y)

    @pytest.mark.parametrize("A", [
        np.array([[0.5, 1.0, -2.0], [3.0, -1.0, 4.0], [2.0, 2.0, -6.0]]),
        np.array([[1e17, -3e17, 2.0], [5e16, 1e17, -1e17]]),
    ])
    def test_other_matrices_take_the_float_scan(self, A):
        assert table_type(A) is None
        value, x, y = injective_norm_exact(DenseMatrix(A))
        assert value == brute_force_norm(A)
        assert abs(x.entries.astype(float) @ A @ y.entries.astype(float) - value) <= 1e-15 * value


def witness_symbol(rng, length):
    """Problem-8 style symbol: modulus 1/(n+1) on block n, random signs."""
    z = np.zeros(length)
    for k in range(1, length):
        z[k] = 1.0 / k.bit_length()
    return z * rng.choice([-1.0, 1.0], length)


class TestFloatScan:
    """Matrices that are not int16-admitted integers are scanned in float64."""

    @pytest.mark.parametrize("name, A, pinned", [
        ("hilbert 12", hankel_matrix(CoeffSeq(1.0 / np.arange(1.0, 24)), 12).entries,
         (16.145939989027887, "++++++++++++", "++++++++++++")),
        ("witness hankel 16", hankel_matrix(CoeffSeq(witness_symbol(make_rng(54), 31)), 16).entries,
         (24.766666666666666, "+--+-+--+-++-+--", "-++-+-++-+--+-++")),
    ])
    def test_pinned_outputs(self, name, A, pinned):
        # (value, x, y) as the float64 scan stored by row gave them
        assert table_type(A) is None
        value, x, y = injective_norm_exact(DenseMatrix(A))
        assert (value, signs(x), signs(y)) == pinned


class TestScanLayouts:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 9), st.integers(1, 64), st.sampled_from(["int", "quarter"]),
           st.integers(0, 56), st.integers(0, 2**32 - 1))
    def test_first_maximizer_in_both_layouts(self, J, K, kind, amp, seed):
        # A 64-byte budget leaves 2^min(J - 1, 5) low patterns, so K falls on
        # both sides of 2^lo and J > 6 adds high rows.  Integers within the
        # int16 limit (576 entries of at most 56) take the int16 table;
        # quarters, one of them odd, take the float64 one, where every sum is
        # exact.  The scan returns the brute force's first maximum.
        if J > K:
            J, K = K, J
        rng = make_rng(seed)
        A = rng.integers(-amp, amp + 1, (J, K)).astype(float)
        if kind == "quarter":
            A = A / 4
            A[0, 0] = 0.25
        assert table_type(A) is (np.int16 if kind == "int" else None)
        xs = [np.concatenate(([1.0], s)) for s in brute_signs(J - 1)]
        vals = [float(np.abs(xv @ A).sum()) for xv in xs]
        first = xs[vals.index(max(vals))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensornorm, "_SCAN_BYTES", 64)
            value, x, y = injective_norm_exact(DenseMatrix(A))
        assert value == max(vals)
        assert np.array_equal(x.entries, first)
        assert np.array_equal(y.entries, np.where(first @ A < 0, -1, 1))


def per_row_scan(A):
    """The exact scan with each high row formed alone, x_hi @ A, and added
    to the whole table, as (value, x, y, hi)."""
    J, K = A.shape
    dt = table_type(A) or np.float64
    entries = tensornorm._SCAN_BYTES // np.dtype(dt).itemsize
    lo = min(J - 1, max(tensornorm._MIN_LOW_BITS, (entries // K).bit_length() - 1))
    hi = J - 1 - lo
    x_lo = tensornorm._lex_signs(np.arange(1 << lo), lo)
    table = tensornorm._scan_table(A, lo, dt)
    by_col = K <= 1 << lo
    best_val = -1.0
    for q in range(1 << hi):
        x_hi = tensornorm._lex_signs(q, hi)
        row = (A[0] + x_hi @ A[1:1 + hi]).astype(dt)
        vals = np.add.reduce(np.abs(table + (row[:, None] if by_col else row)), axis=0 if by_col else 1, dtype=dt)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_x = vals[i], np.concatenate(([1.0], x_hi, x_lo[i]))
    col = best_x @ A
    return float(np.abs(col).sum()), best_x, np.where(col < 0, -1, 1), hi


def scan_case(kind, rng, J):
    """Tie-prone float matrices (entries +-0.1, a symmetric Hankel, repeated
    rows) and integers, shaped so that the scan has high rows."""
    if kind == "tenths":
        return rng.choice([-0.1, 0.1], (J, J))
    if kind == "hankel":
        return rng.choice([-0.1, 0.1, 0.2], 2 * J - 1)[np.add.outer(np.arange(J), np.arange(J))]
    if kind == "repeated":
        return rng.choice([-0.1, 0.1, 0.3], (4, J))[rng.integers(0, 4, J)]
    if kind == "wide":  # 16 high rows per stacked product, in 16 batches
        return rng.choice([-0.1, 0.1], (14, 4096))
    return rng.integers(-3, 4, (J, 40)).astype(float)  # int16 table


class TestHighRows:
    @pytest.mark.parametrize("J", [14, 16, 18, 20, 22])
    @pytest.mark.parametrize("kind", ["tenths", "hankel", "repeated", "int"])
    def test_stacked_rows_match_a_per_row_scan(self, kind, J):
        # the high rows are formed in stacked (1, hi) @ (hi, K) products, each
        # bit for bit the row's own x_hi @ A; one gemm X_hi @ A rounds some
        # +-0.1 sums otherwise and moves their first maximizer
        rng = make_rng(61 + J)
        for _ in range(2):
            A = scan_case(kind, rng, J)
            value, x, y, hi = per_row_scan(A)
            assert hi >= 1
            assert injective_norm_exact(DenseMatrix(A)) == (value, SignVector(x), SignVector(y))

    def test_rows_formed_in_batches(self):
        A = scan_case("wide", make_rng(62), 14)
        value, x, y, hi = per_row_scan(A)
        assert hi == 8
        assert injective_norm_exact(DenseMatrix(A)) == (value, SignVector(x), SignVector(y))


def scan_triple(A, q):
    """(value, x, y) as bytes, for the scan index q over the J - 1 free
    signs of x, formed as injective_norm_exact forms them."""
    x = np.concatenate(([1.0], tensornorm._lex_signs(q, A.shape[0] - 1)))
    col = x @ A
    return float(np.abs(col).sum()).hex(), x.tobytes(), np.where(col < 0, -1, 1).tobytes()


def pruned_and_dense(A, lo, rest):
    """The scan indices of the pruned path, never handing over, and of the
    dense path, on one table split at lo low bits and rest bits."""
    table = tensornorm._scan_table(A, lo, table_type(A) or np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensornorm, "_DENSE_LIVE_SHARE", 1.0)
        pruned = tensornorm._pruned_first_max(A, float(np.abs(A).sum()), table, lo, rest)
    return pruned, tensornorm._dense_first_max(A, table, lo)


class TestPrunedScan:
    """The pruned path returns the dense path's first maximizer bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(["tenths", "hankel", "repeated", "int", "gauss"]), st.integers(3, 12),
           st.integers(0, 2**32 - 1), st.data())
    def test_matches_the_dense_path(self, kind, J, seed, data):
        # small splits put K on both sides of 2^lo, so the table is stored
        # by column and by row; integer kinds take the int16 table, the
        # others, ties and rounding sums included, the float64 one
        rng = make_rng(seed)
        A = rng.standard_normal((J, int(rng.integers(J, 49)))) if kind == "gauss" else scan_case(kind, rng, J)
        lo = data.draw(st.integers(2, A.shape[0] - 1))
        rest = data.draw(st.integers(1, lo - 1))
        pruned, dense = pruned_and_dense(A, lo, rest)
        assert scan_triple(A, pruned) == scan_triple(A, dense)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 10]))
    @example(25, 1)  # stopping at a bound equal to the best value skips the first maximum
    @example(75, 1)
    @example(99, 1)
    @example(247, 10)  # a float bound without its margin rounds below the scan value
    @example(287, 10)
    @example(534, 10)
    def test_tight_bounds_keep_the_first_of_tied_maxima(self, seed, divisor):
        # s_j t_k b_jk with zero rows: the maxima tie, and the bound of each
        # one's group equals the best value in int16 (divisor 1) and lies a
        # rounding below it in float64 (divisor 10) but for the margin
        rng = np.random.default_rng(seed)
        J = int(rng.integers(6, 13))
        K = int(rng.integers(2, 12))
        A = np.outer(rng.choice([-1.0, 1.0], J), rng.choice([-1.0, 1.0], K)) * rng.choice([1, 3, 7], (J, K)) / divisor
        A[rng.integers(1, J, int(rng.integers(1, 4)))] = 0.0
        lo = int(rng.integers(3, J))
        pruned, dense = pruned_and_dense(A, lo, int(rng.integers(1, lo)))
        assert scan_triple(A, pruned) == scan_triple(A, dense)

    @pytest.mark.parametrize("lo, rest", [(11, r) for r in range(1, 11)] + [(8, 3), (5, 2)])
    def test_float_hankel_with_tied_maxima(self, lo, rest):
        # maxima that tie in exact arithmetic: a gather reduced in another
        # order than the dense scan's moved x, though not the value
        A = hankel_matrix(CoeffSeq(witness_symbol(np.random.default_rng(3), 31)), 16).entries
        pruned, dense = pruned_and_dense(A, lo, rest)
        assert scan_triple(A, pruned) == scan_triple(A, dense)
        value, x, y = injective_norm_exact(DenseMatrix(A))
        assert (value, signs(x), signs(y)) == (25.1, "+++---+++--++---", "+---+++---++---+")

    @pytest.mark.parametrize("kind, hands_over", [
        ("tenths", False), ("hankel", False), ("repeated", False), ("int", True),
    ])
    def test_default_split_at_full_size(self, kind, hands_over):
        # at J = 22 the rule takes the pruned path with its default split;
        # +-3 integers over 40 columns leave more than half of the groups
        # live after the first chunk, and the dense scan takes over
        A = scan_case(kind, make_rng(71), 22)
        value, x, y, hi = per_row_scan(A)
        assert hi >= tensornorm._PRUNE_MIN_HIGH_BITS
        assert injective_norm_exact(DenseMatrix(A)) == (value, SignVector(x), SignVector(y))
        lo = A.shape[0] - 1 - hi
        table = tensornorm._scan_table(A, lo, table_type(A) or np.float64)
        pruned = tensornorm._pruned_first_max(A, float(np.abs(A).sum()), table, lo, tensornorm._REST_BITS)
        assert (pruned is None) == hands_over


def per_step_search(A, budget, seed):
    """The flip search forming col - 2 x A and the moved col afresh at each
    step, as (value, x, y, evaluations)."""
    J = A.shape[0]
    best_x = np.ones(J)
    best_val = float(np.abs(best_x @ A).sum())
    evals, restart = 1, 0
    while evals < budget:
        rng = make_rng(derive_seed(seed, restart))
        restart += 1
        x = rng.integers(0, 2, J) * 2.0 - 1.0
        col = x @ A
        val = float(np.abs(col).sum())
        evals += 1
        while evals < budget:
            cand = np.abs(col[None, :] - (2.0 * x)[:, None] * A).sum(axis=1)
            evals += J
            j = int(np.argmax(cand))
            if cand[j] <= val:
                break
            col = col - 2.0 * x[j] * A[j]
            x[j] = -x[j]
            val = float(cand[j])
        if x[0] < 0:
            x = -x
        if val > best_val or (val == best_val and tensornorm._lex_smaller(x, best_x)):
            best_val, best_x = val, x.copy()
    col = best_x @ A
    return float(np.abs(col).sum()), best_x, np.where(col < 0, -1, 1), evals


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

    def test_negative_budget_refused(self):
        # it once ran as budget 0 and reported its one baseline evaluation
        with pytest.raises(InvalidParameter, match="budget must be nonnegative"):
            injective_norm_search(DenseMatrix(np.ones((3, 3))), budget=-3, seed=0)
        assert injective_norm_search(DenseMatrix(np.ones((3, 3))), budget=0, seed=0).evaluations == 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 200), st.integers(0, 2**32 - 1),
           st.sampled_from(["int", "gauss", "tenths"]))
    @example(1, 5, 40, 7, "gauss")
    @example(6, 4, 6, 1, "int")
    def test_matches_a_loop_with_per_step_temporaries(self, J, K, budget, seed, kind):
        # budgets run from 0 past J + 1, so runs stop at the baseline, inside
        # the first sweep or after several restarts; J = 1 flips its only entry
        rng = make_rng(seed)
        A = {"int": lambda: rng.integers(-3, 4, (J, K)).astype(float),
             "gauss": lambda: rng.standard_normal((J, K)),
             "tenths": lambda: rng.choice([-0.1, 0.1], (J, K))}[kind]()
        value, x, y, evals = per_step_search(A, budget, seed)
        out = injective_norm_search(DenseMatrix(A), budget, seed)
        assert (out.value, out.x, out.y, out.evaluations) == (value, SignVector(x), SignVector(y), evals)

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


def per_depth_peels(A):
    """The bracket's peel search with one SVD of the remainder per depth,
    as (tag, cost, pair count)."""
    absA = np.abs(A)
    scale = float(absA.max())
    depth = min(tensornorm.MAX_PEELS, *A.shape)
    R, absR, peel_cost, best = A, absA, 0.0, None
    for k in range(depth + 1):
        if float(absR.max()) <= 1e-14 * scale:
            if best is None or (peel_cost, k) < best[:2]:
                best = (peel_cost, k, k, None)
            break
        for split, axis in (("rows", 1), ("cols", 0)):
            line_max = absR.max(axis=axis)
            cand = (peel_cost + sum(line_max.tolist()), k + int(np.count_nonzero(line_max)))
            if best is None or cand < best[:2]:
                best = (*cand, k, split)
        if k == depth:
            break
        u, sv, vt = np.linalg.svd(R, full_matrices=False)
        a, b = sv[0] * u[:, 0], vt[0]
        peel_cost += float(np.abs(a).max() * np.abs(b).max())
        R = R - np.outer(a, b)
        absR = np.abs(R)
    cost, pairs, k, split = best
    return ("peel" if k else split), cost, pairs


def hankel_case(rng, jmax=10, kmax=10):
    sym = rng.integers(-3, 4, jmax + kmax).astype(float)
    return sym[np.add.outer(np.arange(int(rng.integers(1, jmax + 1))), np.arange(int(rng.integers(1, kmax + 1))))]


class TestPeelSearch:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([int_matrix, gauss_matrix, low_rank_matrix, hankel_case]))
    def test_one_svd_matches_one_svd_per_depth(self, seed, make):
        A = make(make_rng(seed), 10, 10)
        if not A.any():
            return
        tag, cost, pairs = per_depth_peels(A)
        got = tensornorm._upper_decomposition(A, np.abs(A), float(np.abs(A).max()))
        assert (got[0], len(got[2])) == (tag, pairs)
        assert abs(got[1] - cost) <= 1e-12 * cost

    def test_repeated_value_past_the_first_peel(self):
        # the pinned 7 x 8 matrix (singular values 3.77, 2, 2, 1.68) behind a
        # leading 10: peels 0 and 1 come from A's own SVD, peels 2 on from the
        # remainder's; A's own pairs at depth 2 would cost 17.41, not 15.41
        B = PINNED_BRACKETS["repeated-singular-values-7x8"][0]()
        A = np.zeros((8, 9))
        A[0, 0], A[1:, 1:] = 10.0, B
        sv = np.linalg.svd(A, compute_uv=False)
        assert abs(sv[2] - sv[3]) < 1e-12 and sv[1] - sv[2] > 1
        tag, cost, pairs = per_depth_peels(A)
        got = tensornorm._upper_decomposition(A, np.abs(A), float(np.abs(A).max()))
        assert tag == "peel" and pairs > 2
        assert (got[0], len(got[2])) == (tag, pairs)
        assert abs(got[1] - cost) <= 1e-12 * cost
        assert_upper_certificate(A, projective_bracket(DenseMatrix(A)))


class TestPeelSigns:
    def test_certificates_do_not_depend_on_singular_vector_signs(self, monkeypatch):
        # an SVD fixes each singular triplet only up to sign; flipping any of
        # them leaves every peeled pair, and so the certificate bytes, as is
        rng = make_rng(12)
        witness, _ = problem88_witness(0.5, 5)
        cases = [DenseMatrix(rng.standard_normal((12, 12))), hankel_matrix(witness, 12)]

        def certificates(Q):
            brackets = v2_profile(Q, 11)
            assert any(br.strategies[0] == "peel" for br in brackets)
            return [[(a.tobytes(), b.tobytes()) for a, b in br.upper_certificate] for br in brackets]

        want = [certificates(Q) for Q in cases]
        real_svd = np.linalg.svd
        flips = make_rng(13)

        def flipped(M, *args, **kwargs):
            u, sv, vt = real_svd(M, *args, **kwargs)
            signs = flips.choice([-1.0, 1.0], sv.size)
            return u * signs, sv, vt * signs[:, None]

        monkeypatch.setattr(np.linalg, "svd", flipped)
        assert [certificates(Q) for Q in cases] == want

    def test_largest_b_entry_is_positive(self):
        # the first entry of largest modulus, on ties
        A = make_rng(14).standard_normal((9, 9))
        _, _, pairs = tensornorm._upper_decomposition(A, np.abs(A), float(np.abs(A).max()))
        # a row or column split pairs a line with a unit vector; a peel does not
        peeled = [(a, b) for a, b in pairs if np.count_nonzero(a) > 1 and np.count_nonzero(b) > 1]
        assert peeled
        for _, b in peeled:
            assert b[np.argmax(np.abs(b))] > 0


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
        # both quotients scale linearly with A: check them on A times the
        # power of two that brings max |A| to m in [1/2, 1), so that the
        # largest square cannot underflow
        J, K = A.shape
        m, e = math.frexp(float(np.abs(A).max()))
        A1 = A * 2.0**-e
        slack = m * (1 + J * K * 2.0**-52)
        assert abs(float(np.trace(A1))) / min(J, K) <= slack
        S = float(np.abs(A1).sum())
        assert S == 0 or float(np.sum(A1 * A1)) / S <= slack
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


class TestBracketMemory:
    def test_split_of_a_wide_matrix_holds_its_entries(self):
        # the column split of a 3 x 4000 matrix once took its unit rows from
        # np.eye(4000), 122 MiB traced for two pairs
        A = np.zeros((3, 4000))
        A[:, 7] = [1.0, 2.0, 3.0]
        A[:, -1] = [2.0, -2.0, 2.0]
        Q = DenseMatrix(A)
        tracemalloc.start()
        try:
            br = projective_bracket(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert br.strategies[0] == "cols"
        rebuilt = sum(np.outer(a, b) for a, b in br.upper_certificate)
        assert np.array_equal(rebuilt, A)
        assert peak < 4 << 20, peak

    def test_splits_past_the_size_cap_are_no_candidates(self):
        # the row split of this 2^13 x 2 matrix costs 4, less than any other
        # candidate, but holds 2^13 pairs of 2^13 + 2 numbers, 2^26 in all
        A = np.full((1 << 13, 2), 1e-300)
        A[:2] = [[3.0, 2.0], [1.0, -1.0]]
        br = projective_bracket(DenseMatrix(A))
        assert 4.0 < br.upper < 5.0 and br.strategies[0] == "peel"
        assert sum(a.size + b.size for a, b in br.upper_certificate) <= 1 << 25
        assert_upper_certificate(A, br)

    @pytest.mark.parametrize("rows", [12, 13])
    def test_tied_splits_keep_the_fewer_pairs(self, rows):
        # the row split ties the column split at cost 5: 2^rows pairs of
        # 2^rows + 2 numbers against 2 pairs; at 2^13 rows the row split
        # would pass the size cap, at 2^12 it would not
        A = np.full((1 << rows, 2), 1e-300)
        A[:2] = [[1.0, 2.0], [3.0, -1.0]]
        br = projective_bracket(DenseMatrix(A))
        assert br.upper == 5.0 and br.strategies[0] == "cols"
        assert sum(a.size + b.size for a, b in br.upper_certificate) == 2 * ((1 << rows) + 2)
        assert_upper_certificate(A, br)

    @pytest.mark.parametrize("log2,shape", [(4, (9, 9)), (3, (2, 3))])
    def test_no_candidate_within_the_size_cap_is_refused(self, monkeypatch, log2, shape):
        # no split of the matrix or of a peeled remainder fits the cap, and
        # eight peels leave a 9 x 9 remainder, while the two peels that end
        # a 2 x 3 one hold 10 numbers, past 2^3
        monkeypatch.setattr(tensornorm, "SIZE_CAP_LOG2", log2)
        A = np.random.default_rng(9).standard_normal(shape)
        with pytest.raises(InvalidParameter, match=f"size cap of 2\\^{log2} "):
            projective_bracket(DenseMatrix(A))


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
