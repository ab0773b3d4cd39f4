"""Bilinear sign-form norms: exact and heuristic maximization over sign
vectors, certified brackets for the rank-one decomposition norm, and corner
profiles.

The exact maximizer scans sign vectors in lexicographic order: a table holds
the column sums of every pattern of the low bits, and each pattern of the
high bits, in ascending order, adds its row to that table in one reused
buffer.  Only the shorter side of the matrix is enumerated.  Ties are broken
toward the lexicographically smallest canonical sign vector on that side
(+1 sorts before -1, entry 0 pinned to +1) -- the first maximum the scan
meets -- which makes every run reproducible.

A matrix of integers whose entrywise absolute sum S is at most 32767 is
scanned in an int16 table stored by column.  S bounds every partial column
sum and every candidate value, so the int16 arithmetic is exact, as the
float64 sums of those integers are: the candidate values, the first
maximizer and the returned triple are the same bit for bit.  Any other
matrix is scanned in float64.

Every norm here refuses, with InvalidInput, a matrix whose entrywise absolute
sum exceeds float max / 4: below that bound none of their sums overflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import DenseMatrix, derive_seed, make_rng
from .errors import InvalidInput, InvalidParameter, TooLargeForExact

EXACT_ENUM_CAP = 26
_SCAN_BYTES = 1 << 19  # per scan buffer, unless K is wider
_INT_TYPE = np.int16
_MIN_LOW_BITS = 5  # so each block's high row costs little next to its 2^lo x K scan
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


def _objective(A: np.ndarray, x: np.ndarray) -> float:
    return float(np.abs(x @ A).sum())


def _y_from_sums(col_sums: np.ndarray) -> np.ndarray:
    y = np.ones(col_sums.size, dtype=np.int8)
    y[col_sums < 0] = -1  # zero column sums get +1
    return y


def _lex_signs(q, n: int) -> np.ndarray:
    """Sign patterns of length n for the integers q, ascending with q in
    lexicographic order: bit n-1-i of q set gives entry i = -1."""
    return 1.0 - 2.0 * ((np.asarray(q)[..., None] >> np.arange(n - 1, -1, -1)) & 1)


def _abs_sum(A: np.ndarray) -> float:
    """The entrywise absolute sum S of A; InvalidInput past _ABS_SUM_CAP,
    where the sums of the norms could overflow."""
    with np.errstate(over="ignore"):
        S = float(np.abs(A).sum())
    if not S <= _ABS_SUM_CAP:  # inf too
        raise InvalidInput(f"entrywise absolute sum {S!r} of the matrix exceeds {_ABS_SUM_CAP!r}, "
                           "past which the sign-form sums could overflow")
    return S


def _int_table_type(A: np.ndarray):
    """int16 when A holds integers whose absolute sum fits it, else None."""
    exact = (A == np.rint(A)).all() and np.abs(A).sum() <= np.iinfo(_INT_TYPE).max
    return _INT_TYPE if exact else None


def _float_values(low: np.ndarray):
    """Candidate values of a high row added to the low table, in float64."""
    buf = np.empty_like(low)
    ones = np.ones(low.shape[1])

    def values(row):
        np.add(low, row, out=buf)
        return np.abs(buf, out=buf) @ ones

    return values


def _int_values(low: np.ndarray, dt):
    """Candidate values of a high row added to the low table, in exact dt
    arithmetic on the table stored by column."""
    table = np.ascontiguousarray(low.T, dtype=dt)
    buf = np.empty_like(table)
    vals = np.empty(table.shape[1], dtype=dt)

    def values(row):
        np.add(table, row.astype(dt)[:, None], out=buf)
        np.abs(buf, out=buf)
        return np.sum(buf, axis=0, dtype=dt, out=vals)  # dtype: no int64 widening

    return values


def injective_norm_exact(Q: DenseMatrix) -> tuple[float, SignVector, SignVector]:
    """Exact maximum of |sum q_jk x_j y_k| over sign vectors x, y.

    For real matrices the inner maximum over y is attained at the signs of
    the column sums, so only x is enumerated; global sign symmetry halves the
    search to x_0 = +1.  Returns the optimum value with its optimizer pair.

    When J > K the transpose is solved and the pair swapped, so the cap
    applies to min(J, K).  The tie-break then picks y (the lexicographically
    smallest canonical maximizer) and x holds the signs of the row sums A y,
    zero sums getting +1; for J <= K the roles are as described above.
    """
    A = Q.entries
    J, K = A.shape
    if J > K:
        value, y, x = injective_norm_exact(DenseMatrix(A.T))
        return value, x, y
    if J > EXACT_ENUM_CAP:
        raise TooLargeForExact(f"shorter side {J} exceeds the cap {EXACT_ENUM_CAP}")

    _abs_sum(A)

    # x = (+1, high bits, low bits).  One table holds the column sums of all
    # low patterns; each high pattern, in ascending order, adds its row to it.
    dt = _int_table_type(A)
    entries = _SCAN_BYTES // np.dtype(dt or np.float64).itemsize
    lo = min(J - 1, max(_MIN_LOW_BITS, (entries // K).bit_length() - 1))
    hi = J - 1 - lo
    x_lo = _lex_signs(np.arange(1 << lo), lo)
    low = x_lo @ A[1 + hi :]
    values = _float_values(low) if dt is None else _int_values(low, dt)
    best_val = -1.0
    for q in range(1 << hi):
        x_hi = _lex_signs(q, hi)
        vals = values(A[0] + x_hi @ A[1 : 1 + hi])
        i = int(np.argmax(vals))
        if vals[i] > best_val:  # ties keep the first, lexicographically smallest x
            best_val = vals[i]
            best_x = np.concatenate(([1.0], x_hi, x_lo[i]))

    col = best_x @ A
    return _objective(A, best_x), SignVector(best_x), SignVector(_y_from_sums(col))


@dataclass(frozen=True)
class SearchOutcome:
    value: float
    x: SignVector
    y: SignVector
    evaluations: int


def injective_norm_search(Q: DenseMatrix, budget: int, seed: int) -> SearchOutcome:
    """Random-restart steepest-ascent over sign flips of x.

    Budget counts objective evaluations (one per candidate flip); the result
    is a certified lower bound on the exact norm and is deterministic for a
    given seed because each restart draws from its own derived stream.
    """
    A = Q.entries
    J = A.shape[0]
    _abs_sum(A)

    # Deterministic baseline so even a zero budget returns a certificate.
    x = np.ones(J)
    best_val = _objective(A, x)
    best_x = x.copy()
    evals = 1

    restart = 0
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
        if val > best_val or (val == best_val and _lex_smaller(x, best_x)):
            best_val = val
            best_x = x.copy()

    col = best_x @ A
    return SearchOutcome(
        value=_objective(A, best_x),
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
    eye = np.eye(M.shape[0])
    pairs = [(eye[i], M[i].copy()) for i in range(M.shape[0]) if M[i].any()]
    return pairs if split == "rows" else [(b, a) for a, b in pairs]


def _upper_decomposition(A: np.ndarray) -> tuple[str, float, list]:
    """Cheapest (k, split) over peel depth k = 0..MAX_PEELS, as (tag, cost, pairs).

    Depth k strips the leading singular pair of the remainder k times, then
    splits what is left into its rows or its columns, each costing its
    largest entry; a remainder within 1e-14 of zero, relative to A, costs
    nothing and ends the search.  Ties keep the first of k = 0 rows, k = 0
    cols, k = 1 rows, ...; the tag is the split at k = 0 and peel after.
    """
    scale = float(np.abs(A).max())
    depth = min(MAX_PEELS, *A.shape)
    R, peeled, peel_cost = A, [], 0.0
    best = None  # (cost, k, split or None for a zero remainder, remainder)
    for k in range(depth + 1):
        absR = np.abs(R)
        if float(absR.max()) <= 1e-14 * scale:  # never at k = 0, where R is A
            if peel_cost < best[0]:
                best = (peel_cost, k, None, R)
            break
        for split, axis in (("rows", 1), ("cols", 0)):
            cost = peel_cost + sum(absR.max(axis=axis).tolist())
            if best is None or cost < best[0]:
                best = (cost, k, split, R)
        if k == depth:
            break
        u, sv, vt = np.linalg.svd(R, full_matrices=False)
        a = sv[0] * u[:, 0]
        b = vt[0].copy()
        peeled.append((a, b))
        peel_cost += float(np.abs(a).max() * np.abs(b).max())
        R = R - np.outer(a, b)
    cost, k, split, R = best
    pairs = peeled[:k] + (_split_pairs(R, split) if split else [])
    return ("peel" if k else split), cost, pairs


def projective_bracket(Q: DenseMatrix, budget: int = 4096, seed: int = 0) -> NormBracket:
    """Two-sided bracket for the rank-one decomposition norm of Q.

    Upper bound: exact detection of (numerically) rank-one matrices, else
    the cheapest decomposition over peel depth (see _upper_decomposition),
    never above the row or column split of Q.  Lower bound: the larger
    duality quotient |<Q, T>| / norm(T) of the largest entry (T = e_j e_k^T,
    norm 1) and of Q itself against its exact norm, when min(J, K) is within
    the cap.  Two other test matrices never beat the entry: the identity,
    |tr Q| / m <= max |q_jj|, and Q against its absolute sum S,
    ||Q||_F^2 / S <= max |q_jk| * S / S.  budget and seed are part of the
    stable call surface; the bracket does not consume them.
    """
    A = Q.entries
    J, K = A.shape
    _abs_sum(A)
    scale = float(np.abs(A).max())

    if scale == 0.0:
        return NormBracket(0.0, 0.0, {"kind": "zero"}, (), ("zero",))

    # Rank-one detection: factor through the globally largest entry.
    j_star, k_star = np.unravel_index(int(np.argmax(np.abs(A))), A.shape)
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

    tag, upper, upper_pairs = _upper_decomposition(A)

    # Lower bound by duality, ties to the entry (the identity, |tr A| / m <=
    # scale, and A against its absolute sum S, ||A||_F^2 / S <= scale * S / S,
    # never beat it).  Here ||A||_inj >= scale > 0.  A pairing that overflows
    # certifies nothing.
    lower, lower_cert = scale, entry
    if min(J, K) <= EXACT_ENUM_CAP:
        with np.errstate(over="ignore"):
            frob2 = float(np.sum(A * A))
        denom, _, _ = injective_norm_exact(Q)
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
