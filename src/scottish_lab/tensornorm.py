"""Bilinear sign-form norms: exact and heuristic maximization over sign
vectors, certified brackets for the rank-one decomposition norm, and corner
profiles.

The exact maximizer scans sign vectors in lexicographic order: a table holds
the column sums of every pattern of the low bits, and each pattern of the high
bits, in ascending order, adds its row (stacked (1, hi) @ (hi, K) products
form them in batches, each bit for bit x_hi @ A, as one gemm is not) to that
table in one reused buffer.  Only the shorter side of the matrix is
enumerated.  Ties are broken toward the lexicographically smallest canonical
sign vector on that side (+1 sorts before -1, entry 0 pinned to +1) -- the
first maximum the scan meets -- which makes every run reproducible.

There is one table, cast once to the scan's type and stored along its
longer side: by column, (K, 2^lo), when the K columns are no more than the
2^lo low patterns, else by row, (2^lo, K).  A matrix of integers whose
entrywise absolute sum S is at most 32767 is scanned in int16: S bounds
every partial column sum and every candidate value, so the int16
arithmetic is exact, as the float64 sums of those integers are: the
candidate values, the first maximizer and the returned triple are the same
bit for bit, in either layout.  Any other matrix is scanned in float64,
where only sums that round can depend on the layout's order of addition.

The scan skips groups of candidates that cannot win.  Split the low bits
into their top g and the last `rest` (7, more past J = 24 so that the
bounds fill at most one scan buffer): for a high row r and a group prefix
P_G (the column sums of the top g low rows), every candidate of the group
is at most ||r + P_G||_1 + T_rest, T_rest the exact norm of the last rest
rows.  int16 bounds are exact; a float64 bound adds 8 (J + K) 2^-52 S,
more than the rounding of any scan value and bound (see
_pruned_first_max).  The groups are evaluated best-first, in descending
order of bound, until the next bound lies strictly below the best value;
each is summed in the dense scan's layout and axis, so every value keeps
its bits, and among the candidates at the maximum the smallest index
q_hi 2^lo + q_lo -- the dense scan's first maximizer -- is kept.  The
triple is the dense scan's bit for bit.  Measured switch-off rule: the
scan stays dense with fewer than 2^6 high rows (hi = 0 included), with
its table stored by row, and with fewer than 2 groups per high row; and
it hands over to the dense scan when, after the first chunk, more than
half of the groups have bounds at or above the best value.

Every norm here refuses, with InvalidInput, a matrix whose entrywise absolute
sum exceeds float max / 4: below that bound none of their sums overflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import SIZE_CAP_LOG2, DenseMatrix, check_size, derive_seed, make_rng
from .errors import InvalidInput, InvalidParameter, TooLargeForExact

EXACT_ENUM_CAP = 26
_SCAN_BYTES = 1 << 19  # per scan buffer, unless K is wider
_INT_TYPE = np.int16
_MIN_LOW_BITS = 5  # so each block's high row costs little next to its 2^lo x K scan
_PRUNE_MIN_HIGH_BITS = 6  # fewer high rows keep the dense scan
_REST_BITS = 7  # low bits under one group bound: 128 candidates per group
_DENSE_LIVE_SHARE = 0.5  # more groups live after the first chunk: dense scan
_RANK_ONE_TOL = 1e-10
MAX_PEELS = 8  # deepest singular-pair peel of the bracket's upper side
# Largest entrywise absolute sum S = sum |a_jk| that the sign-form norms
# accept.  S bounds every partial sum of the scans, which add terms
# +-a_jk; the search's step col - 2 x_j A_j stays within S + 2S.  A peel
# remainder R and its leading rank-one part have entries at most
# ||R||_F <= ||A||_F <= S, so their difference stays within 2S, as does the
# rank-one test's A - a1 b1^T (|a1| <= 1, |b1| <= S).  Below float max / 4
# none of these overflows.
_ABS_SUM_CAP = sys.float_info.max / 4


@dataclass(frozen=True)
class SignVector:
    """A vector with entries in {-1, +1}."""

    entries: np.ndarray

    def __init__(self, entries):
        arr = np.asarray(entries)
        # checked before the int8 cast, which reads 1.5 as 1
        if arr.ndim != 1 or not np.all((arr == 1) | (arr == -1)):
            raise InvalidParameter("sign vectors hold +1/-1 entries only")
        arr = np.array(arr, dtype=np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __len__(self) -> int:
        return self.entries.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignVector):
            return NotImplemented
        return bool(np.array_equal(self.entries, other.entries))


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    """Lexicographic order on sign vectors with +1 sorting before -1."""
    diff = np.nonzero(a != b)[0]
    if diff.size == 0:
        return False
    return a[diff[0]] > b[diff[0]]


def _y_from_sums(col_sums: np.ndarray) -> np.ndarray:
    y = np.ones(col_sums.size, dtype=np.int8)
    y[col_sums < 0] = -1  # zero column sums get +1
    return y


def _lex_signs(q, n: int) -> np.ndarray:
    """Sign patterns of length n for the integers q, ascending with q in
    lexicographic order: bit n-1-i of q set gives entry i = -1."""
    return 1.0 - 2.0 * ((np.asarray(q)[..., None] >> np.arange(n - 1, -1, -1)) & 1)


def _abs_sum(absA: np.ndarray) -> float:
    """The entrywise absolute sum S of A, given |A|; InvalidInput past
    _ABS_SUM_CAP, where the sums of the norms could overflow."""
    with np.errstate(over="ignore"):
        S = float(absA.sum())
    if not S <= _ABS_SUM_CAP:  # inf too
        raise InvalidInput(f"entrywise absolute sum {S!r} of the matrix exceeds {_ABS_SUM_CAP!r}, "
                           "past which the sign-form sums could overflow")
    return S


def _int_table_type(A: np.ndarray, S: float):
    """int16 when A holds integers whose absolute sum S fits it, else None."""
    exact = S <= np.iinfo(_INT_TYPE).max and (A == np.rint(A)).all()
    return _INT_TYPE if exact else None


def _scan_table(A: np.ndarray, lo: int, dt) -> np.ndarray:
    """The column sums x_lo @ A[J - lo:] of the 2^lo low patterns, in dt.  The
    table is built in its layout, never transposed: by column, (K, 2^lo),
    when K <= 2^lo, else by row."""
    x_lo = _lex_signs(np.arange(1 << lo), lo)
    B = A[A.shape[0] - lo :]
    return (B.T @ x_lo.T if B.shape[1] <= x_lo.shape[0] else x_lo @ B).astype(dt, copy=False)


def _high_rows(A: np.ndarray, hi: int, q: np.ndarray, dt) -> np.ndarray:
    """The rows A[0] + x_hi @ A[1 : 1 + hi] of the high patterns q, in dt,
    formed in stacked (1, hi) @ (hi, K) products: each is bit for bit the
    row's own x_hi @ A, as one gemm is not."""
    X_hi = _lex_signs(q, hi)
    return (A[0] + np.matmul(X_hi[:, None, :], A[1 : 1 + hi])[:, 0, :]).astype(dt, copy=False)


def _dense_first_max(A: np.ndarray, table: np.ndarray, lo: int) -> int:
    """Index q_hi 2^lo + q_lo of the first maximizer: each high row, in
    ascending order, is added to the whole table in one reused buffer."""
    J, K = A.shape
    hi, dt, by_col = J - 1 - lo, table.dtype, K <= 1 << lo
    buf = np.empty_like(table)
    vals = np.empty(1 << lo, dtype=dt)
    best_val, best_q = -1, 0
    step = max(1, _SCAN_BYTES // (8 * K))  # high rows per batch: _SCAN_BYTES of float64
    for q in range(0, 1 << hi, step):
        for q_hi, row in enumerate(_high_rows(A, hi, np.arange(q, min(q + step, 1 << hi)), dt), q):
            np.add(table, row[:, None] if by_col else row, out=buf)
            np.abs(buf, out=buf)
            np.add.reduce(buf, axis=0 if by_col else 1, dtype=dt, out=vals)  # dtype: no int64 widening
            i = int(vals.argmax())
            if vals[i] > best_val:  # ties keep the first, lexicographically smallest x
                best_val, best_q = vals[i], (q_hi << lo) + i
    return best_q


def _pruned_first_max(A: np.ndarray, S: float, table: np.ndarray, lo: int, rest: int) -> int | None:
    """_dense_first_max's index, from the groups of candidates whose bounds
    (see the module docstring) reach the best value, or None when, after
    the first chunk, more than a _DENSE_LIVE_SHARE of the groups do.  A
    chunk holds 2^g groups, 2^lo candidates: one dense row's worth."""
    J, K = A.shape
    hi, g, dt, by_col = J - 1 - lo, lo - rest, table.dtype, K <= 1 << lo
    prefixes = _lex_signs(np.arange(1 << g), g) @ A[1 + hi : 1 + hi + g]
    t_rest = float(np.abs(_lex_signs(np.arange(1 << rest), rest) @ A[J - rest :]).sum(axis=1).max())
    bounds = np.empty((1 << hi, 1 << g))
    step = max(1, _SCAN_BYTES // (8 * K << g))  # high rows per batch of (row, group) sums
    for q in range(0, 1 << hi, step):
        sums = _high_rows(A, hi, np.arange(q, min(q + step, 1 << hi)), np.float64)[:, None, :] + prefixes
        np.abs(sums, out=sums).sum(axis=2, out=bounds[q : q + step])
    # The int16 scan and these integer bounds are exact.  In float64 each
    # column sum of J terms, on either side, lies within (J - 1) u S_k of its
    # exact value (u = 2^-53, S_k the column's absolute sum), and a sum of K
    # moduli adds at most (K - 1) u S.  So a scan value, ||r + P_G||_1 and
    # T_rest (the largest of the rest's float values) each lie within
    # (J + K) u S of the exact ones, and the two additions below add 4 u S:
    # the margin 8 (J + K) 2^-52 S = 16 (J + K) u S covers them all.
    margin = 0.0 if dt == _INT_TYPE else 8 * (J + K) * 2.0**-52 * S
    bounds = bounds.ravel() + (t_rest + margin)
    order = np.argsort(-bounds)
    m = 1 << rest
    groups = table.reshape(K, -1, m) if by_col else table.reshape(-1, m, K)
    best_val, best_q = -1, 0
    for c in range(0, order.size, 1 << g):  # 2^lo candidates per chunk, as per dense row
        if bounds[order[c]] < best_val:  # no group left can hold a maximum
            break
        pairs = order[c : c + (1 << g)]  # pair r 2^g + G: candidates q = pair 2^rest + t
        r, G = np.divmod(pairs, 1 << g)
        rows = _high_rows(A, hi, r, dt)
        buf = np.take(groups, G, axis=1 if by_col else 0)  # C order: the reshape below is a view
        buf += rows.T[:, :, None] if by_col else rows[:, None, :]
        np.abs(buf, out=buf)
        vals = np.add.reduce(buf.reshape(K, -1) if by_col else buf.reshape(-1, K), axis=0 if by_col else 1, dtype=dt)
        top = vals.max()
        if top >= best_val:
            q = int(((pairs[:, None] << rest) + np.arange(m)).ravel()[vals == top].min())
            best_q = q if top > best_val else min(best_q, q)
            best_val = top
        if c == 0 and np.count_nonzero(bounds >= best_val) > _DENSE_LIVE_SHARE * bounds.size:
            return None
    return best_q


def _first_max(A: np.ndarray, S: float) -> int:
    """Index q_hi 2^lo + q_lo, over the J - 1 free signs of x, of the first
    maximizer of the scan of A (J <= K), whose absolute sum is S."""
    J, K = A.shape
    dt = _int_table_type(A, S) or np.float64
    entries = _SCAN_BYTES // np.dtype(dt).itemsize
    lo = min(J - 1, max(_MIN_LOW_BITS, (entries // K).bit_length() - 1))
    rest = max(_REST_BITS, J - (_SCAN_BYTES // 8).bit_length())  # the bounds fill at most _SCAN_BYTES
    table = _scan_table(A, lo, dt)
    q = None
    if J - 1 - lo >= _PRUNE_MIN_HIGH_BITS and K <= 1 << lo and lo > rest:
        q = _pruned_first_max(A, S, table, lo, rest)
    return _dense_first_max(A, table, lo) if q is None else q


def _exact(A: np.ndarray, S: float) -> tuple[float, SignVector, SignVector]:
    """injective_norm_exact of the entries A, whose absolute sum is S."""
    swap = A.shape[0] > A.shape[1]
    if swap:
        A = A.T
    best_x = np.concatenate(([1.0], _lex_signs(_first_max(A, S), A.shape[0] - 1)))
    col = best_x @ A
    x, y = SignVector(best_x), SignVector(_y_from_sums(col))
    return (float(np.abs(col).sum()), *((y, x) if swap else (x, y)))


def injective_norm_exact(Q: DenseMatrix) -> tuple[float, SignVector, SignVector]:
    """Exact maximum of |sum q_jk x_j y_k| over sign vectors x, y.

    For real matrices the inner maximum over y is attained at the signs of
    the column sums, so only x is enumerated; global sign symmetry halves the
    search to x_0 = +1.  Returns the optimum value with its optimizer pair.

    When J > K the transpose (a view) is solved and the pair swapped, so the
    cap applies to min(J, K).  The tie-break then picks y (the lexicographically
    smallest canonical maximizer) and x holds the signs of the row sums A y,
    zero sums getting +1; for J <= K the roles are as described above.
    """
    shorter = min(Q.entries.shape)
    if shorter > EXACT_ENUM_CAP:
        raise TooLargeForExact(f"shorter side {shorter} exceeds the cap {EXACT_ENUM_CAP}")
    return _exact(Q.entries, _abs_sum(np.abs(Q.entries)))


@dataclass(frozen=True)
class SearchOutcome:
    value: float
    x: SignVector
    y: SignVector
    evaluations: int


def injective_norm_search(Q: DenseMatrix, budget: int, seed: int) -> SearchOutcome:
    """Random-restart steepest-ascent over sign flips of x.

    Budget counts objective evaluations (one per candidate flip), at most
    2^SIZE_CAP_LOG2 under the size rule; the result is a certified lower
    bound on the exact norm and is deterministic for a given seed because
    each restart draws from its own derived stream.
    """
    if budget < 0:
        raise InvalidParameter("budget must be nonnegative")
    check_size((budget - 1).bit_length(), f"search budget {budget}")
    A = Q.entries
    J = A.shape[0]
    _abs_sum(np.abs(A))

    # Deterministic baseline so even a zero budget returns a certificate.
    best_x = np.ones(J)
    best_val = float(np.abs(best_x @ A).sum())
    evals = 1

    # row j of xA2 = x_j 2 A_j, the step to col of a flip of x_j (x 2, x -1 are exact)
    A2, buf, cand = 2.0 * A, np.empty(A.shape), np.empty(J)
    restart = 0
    while evals < budget:
        rng = make_rng(derive_seed(seed, restart))
        restart += 1
        x = rng.integers(0, 2, J) * 2.0 - 1.0
        col = x @ A
        xA2 = x[:, None] * A2
        val = float(np.abs(col).sum())
        evals += 1
        while evals < budget:
            np.subtract(col, xA2, out=buf)
            np.abs(buf, out=buf)
            buf.sum(axis=1, out=cand)
            evals += J
            j = int(cand.argmax())
            if cand[j] <= val:
                break
            col -= xA2[j]
            np.negative(xA2[j], out=xA2[j])
            x[j] = -x[j]
            val = float(cand[j])
        if x[0] < 0:
            x = -x
        if val > best_val or (val == best_val and _lex_smaller(x, best_x)):
            best_val = val
            best_x = x.copy()

    col = best_x @ A
    return SearchOutcome(
        value=float(np.abs(col).sum()),
        x=SignVector(best_x),
        y=SignVector(_y_from_sums(col)),
        evaluations=evals,
    )


# ---------------------------------------------------------------------------
# Brackets for the rank-one decomposition norm.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormBracket:
    """Certified [lower, upper] bracket for the decomposition norm.

    lower comes from pairing against a test matrix of known bilinear-form
    norm; upper from an explicit rank-one decomposition.  Re-evaluating
    either certificate reproduces its endpoint to 1e-9.
    """

    lower: float
    upper: float
    lower_certificate: dict
    upper_certificate: tuple
    strategies: tuple

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-12):
            raise InvalidParameter("bracket endpoints out of order")


def _split_pairs(R: np.ndarray, split: str) -> list:
    """Pairs of the "rows" or "cols" split of R, zero lines skipped."""
    M = R if split == "rows" else R.T
    n = M.shape[0]
    pairs = [(np.eye(1, n, i)[0], M[i].copy()) for i in range(n) if M[i].any()]
    return pairs if split == "rows" else [(b, a) for a, b in pairs]


def _upper_decomposition(A: np.ndarray, absA: np.ndarray, scale: float) -> tuple[str, float, list]:
    """Cheapest (k, split) over peel depth k = 0..MAX_PEELS, as (tag, cost, pairs).

    Depth k strips the leading singular pair of the remainder k times, then
    splits what is left into its rows or its columns, each costing its
    largest entry.  Peel k takes A's own k-th singular pair while sv[k] is
    simple (apart from both neighbours by more than 1e-9 * sv[0]), and from
    the first repeated value on the remainder's leading pair.  A remainder
    within 1e-14 * scale (= max |A|) of zero costs nothing and ends the
    search.  A candidate holds (k + nonzero lines) pairs of J + K numbers
    each; none may hold more than 2^SIZE_CAP_LOG2 numbers, and if none fits,
    InvalidParameter.  Ties in cost keep the candidate with fewer pairs, then
    the first of k = 0 rows, k = 0 cols, k = 1 rows, ...; the tag is the
    split at k = 0 and peel after.  Each peeled pair (a, b) is signed so
    that b's first entry of largest modulus is positive: the SVD fixes a
    singular pair only up to sign, and the certificate should not depend on
    which sign the LAPACK build returned.
    """
    depth = min(MAX_PEELS, *A.shape)
    most_pairs = (1 << SIZE_CAP_LOG2) // sum(A.shape)
    u, sv, vt = np.linalg.svd(A, full_matrices=False)
    own = np.append(np.flatnonzero(sv[:-1] - sv[1:] <= 1e-9 * sv[0]), sv.size)[0]  # first repeated
    R, absR, peeled, peel_cost = A, absA, [], 0.0
    best = None  # (cost, pairs, k, split or None for a zero remainder, remainder)
    for k in range(depth + 1):
        if float(absR.max()) <= 1e-14 * scale:  # never at k = 0, where R is A
            if k <= most_pairs and (best is None or (peel_cost, k) < best[:2]):
                best = (peel_cost, k, k, None, R)
            break
        for split, axis in (("rows", 1), ("cols", 0)):
            line_max = absR.max(axis=axis)
            cand = (peel_cost + sum(line_max.tolist()), k + int(np.count_nonzero(line_max)))
            if cand[1] <= most_pairs and (best is None or cand < best[:2]):
                best = (*cand, k, split, R)
        if k == depth:
            break
        if k >= own:
            u, sv, vt = np.linalg.svd(R, full_matrices=False)
        i = 0 if k >= own else k
        a, b = sv[i] * u[:, i], vt[i].copy()
        if b[np.argmax(np.abs(b))] < 0:  # one sign per pair, whatever the SVD's
            a, b = -a, -b
        peeled.append((a, b))
        peel_cost += float(np.abs(a).max() * np.abs(b).max())
        R = R - np.outer(a, b)
        absR = np.abs(R)
    if best is None:
        raise InvalidParameter(f"every decomposition of the bracket exceeds the size cap of 2^{SIZE_CAP_LOG2} numbers")
    cost, _, k, split, R = best
    pairs = peeled[:k] + (_split_pairs(R, split) if split else [])
    return ("peel" if k else split), cost, pairs


def projective_bracket(Q: DenseMatrix) -> NormBracket:
    """Two-sided bracket for the rank-one decomposition norm of Q.

    Upper bound: exact detection of (numerically) rank-one matrices, else
    the cheapest decomposition over peel depth (see _upper_decomposition),
    never above the row or column split of Q.  Lower bound: the larger
    duality quotient |<Q, T>| / norm(T) of the largest entry (T = e_j e_k^T,
    norm 1) and of Q itself against its exact norm, when min(J, K) is within
    the cap.  Two other test matrices never beat the entry: the identity,
    |tr Q| / m <= max |q_jj|, and Q against its absolute sum S,
    ||Q||_F^2 / S <= max |q_jk| * S / S.
    """
    A = Q.entries
    J, K = A.shape
    absA = np.abs(A)
    S = _abs_sum(absA)
    j_star, k_star = np.unravel_index(int(np.argmax(absA)), A.shape)
    scale = float(absA[j_star, k_star])

    if scale == 0.0:
        return NormBracket(0.0, 0.0, {"kind": "zero"}, (), ("zero",))

    # Rank-one detection: factor through the globally largest entry.
    a1 = A[:, k_star] / A[j_star, k_star]
    b1 = A[j_star, :].copy()
    entry = {
        "kind": "entry",
        "j": int(j_star),
        "k": int(k_star),
        "pairing": float(A[j_star, k_star]),
        "denominator": 1.0,
    }
    if float(np.abs(A - np.outer(a1, b1)).max()) <= _RANK_ONE_TOL * scale:
        return NormBracket(scale, scale, entry, ((a1, b1),), ("rank-one", "entry"))

    tag, upper, upper_pairs = _upper_decomposition(A, absA, scale)

    # Lower bound by duality, ties to the entry (the identity, |tr A| / m <=
    # scale, and A against its absolute sum S, ||A||_F^2 / S <= scale * S / S,
    # never beat it).  Here ||A||_inj >= scale > 0.  A pairing that overflows
    # certifies nothing.
    lower, lower_cert = scale, entry
    if min(J, K) <= EXACT_ENUM_CAP:
        with np.errstate(over="ignore"):
            frob2 = float(np.sum(A * A))
        denom, _, _ = _exact(A, S)
        if math.isfinite(frob2) and frob2 / denom > scale:
            lower = frob2 / denom
            lower_cert = {"kind": "self-exact", "pairing": frob2, "denominator": denom}
    lower = min(lower, upper)  # guards the last-ulp float race only
    return NormBracket(lower, upper, lower_cert, tuple(upper_pairs), (tag, lower_cert["kind"]))


def v2_profile(Q: DenseMatrix, nmax: int) -> list[NormBracket]:
    """Brackets for the leading corner truncations of Q, n = 0..nmax."""
    J, K = Q.entries.shape
    if not 0 <= nmax < min(J, K):
        raise InvalidParameter("nmax must satisfy 0 <= nmax < min(J, K)")
    return [
        projective_bracket(DenseMatrix(Q.entries[: n + 1, : n + 1]))
        for n in range(nmax + 1)
    ]
