"""Flat trigonometric polynomials with prescribed coefficient moduli, the
block-by-block majorant assembly with a measured flatness constant, the
slow-decay witness sequence, weighted coefficient moments with a divergence
diagnosis, and the regime-boundary exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import CoeffSeq, block_of, check_size, derive_seed, least_squares_line, make_rng
from .dyadic import (
    DEFAULT_OVERSAMPLE,
    _TINY,
    _power_root,
    besov_detail,
    grid_size,
    hard_block_bound,
    lp_norm_circle,
)
from .errors import InvalidParameter, InvalidRegime, InvalidTarget


def rudin_shapiro(k: int) -> tuple[CoeffSeq, CoeffSeq]:
    """The classical +-1 polynomial pair of degree 2^k - 1.

    Built by P -> P + z^(2^k) Q, Q -> P - z^(2^k) Q from P = Q = 1.  On the
    circle |P|^2 + |Q|^2 = 2^(k+1) identically, so both polynomials have sup
    norm at most sqrt(2 * 2^k) while their coefficient l2 norm is 2^(k/2).
    The size cap bounds the 2^k coefficients: k <= core.SIZE_CAP_LOG2.
    """
    if k < 0:
        raise InvalidParameter("recursion depth must be nonnegative")
    check_size(k, f"Rudin-Shapiro pair of depth {k}")
    p = np.ones(1)
    q = np.ones(1)
    for _ in range(k):
        p, q = np.concatenate([p, q]), np.concatenate([p, -q])
    return CoeffSeq._adopt(p), CoeffSeq._adopt(q)


@dataclass(frozen=True)
class FlatPolyReport:
    """How flat the constructed polynomial came out."""

    targets_l2: float
    sup_norm: float
    ratio: float  # sup / l2 of the targets; the achieved flatness constant
    method: str  # rudin_shapiro | random_signs | random_plus_descent
    seed: int
    descent_iterations: int


def _aligned_constant_support(b: np.ndarray, nz: np.ndarray) -> int | None:
    """Power-of-two length of the support nz of b if it is an aligned
    constant run: contiguous, a power of two long, starting on a multiple of
    its length, and of one value."""
    lo, length = int(nz[0]), int(nz[-1]) - int(nz[0]) + 1
    aligned = nz.size == length and not length & (length - 1) and not lo % length
    return length if aligned and np.all(b[lo : lo + length] == b[lo]) else None


def flat_polynomial(
    beta: CoeffSeq,
    seed: int = 0,
    descent_budget: int = 0,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> tuple[CoeffSeq, FlatPolyReport]:
    """Choose signs so that |f_hat(j)| = beta_j with small sup norm.

    Constant targets on an aligned power-of-two run take the deterministic
    +-1 recursion signs (flatness ratio at most sqrt(2)); anything else takes
    seeded random signs followed by greedy single-flip descent on the grid
    sup norm within the evaluation budget.  The reported ratio is measured,
    not asserted against any universal constant.  The size cap is applied to
    the grid of len(beta) points first, before any sign is chosen.
    """
    grid_size(len(beta), oversample)
    if descent_budget < 0:
        raise InvalidParameter("budget must be nonnegative")
    if beta.is_complex:
        raise InvalidTarget("targets must be nonnegative reals")
    b = beta.coeffs
    if np.any(b < 0):
        raise InvalidTarget("targets must be nonnegative")

    # the search runs on b / 2^e, whose largest entry lies in [1/2, 1), so no
    # norm overflows; powers of two scale exactly
    scaled, e = core._binary_rescale(b)
    scaled_l2 = _power_root(scaled, 2, np.sqrt)
    if scaled_l2 == 0.0:
        f = CoeffSeq._adopt(np.zeros(len(beta)))
        return f, FlatPolyReport(0.0, 0.0, 0.0, "rudin_shapiro", seed, 0)

    support = np.nonzero(b)[0]
    run = _aligned_constant_support(b, support)
    if run is not None:
        signs = np.ones(b.size)
        lo = int(support[0])
        signs[lo : lo + run] = rudin_shapiro(run.bit_length() - 1)[0].coeffs
    else:
        signs = make_rng(seed).integers(0, 2, b.size) * 2.0 - 1.0
    coeffs = signs * scaled
    sup = lp_norm_circle(CoeffSeq(coeffs), math.inf, oversample)
    method, iterations = "rudin_shapiro", 0
    if run is None:
        evals = 1
        while evals < descent_budget:
            best_j, best_sup = -1, sup
            for j in support[: descent_budget - evals]:
                coeffs[j] = -coeffs[j]
                cand = lp_norm_circle(CoeffSeq(coeffs), math.inf, oversample)
                coeffs[j] = -coeffs[j]
                evals += 1
                if cand < best_sup:
                    best_sup, best_j = cand, j
            if best_j < 0:
                break
            coeffs[best_j] = -coeffs[best_j]
            sup = best_sup
            iterations += 1
        method = "random_plus_descent" if evals > 1 else "random_signs"  # a flip was evaluated

    f = CoeffSeq._adopt(np.copysign(b, coeffs))  # the signs, on targets no scaling rounded
    with np.errstate(over="ignore"):  # inf past the float range
        targets_l2, sup_norm = (float(np.ldexp(v, e)) for v in (scaled_l2, sup))
    report = FlatPolyReport(
        targets_l2=targets_l2,
        sup_norm=sup_norm,
        ratio=sup / scaled_l2,
        method=method,
        seed=seed,
        descent_iterations=iterations,
    )
    return f, report


@dataclass(frozen=True)
class MajorantReport:
    """Assembly report: flatness constant, profile norm, and its budget."""

    k_achieved: float
    besov_value: float
    besov_bound: float  # |true besov - besov_value| <= besov_bound
    chain_bound: float  # 4.5 * k_achieved * block bound of the targets
    block_bound: float
    blocks: list  # dicts {n, ratio, method}
    fidelity_exact: bool


def assemble_majorant(
    alpha: CoeffSeq,
    seed: int = 0,
    descent_budget: int = 0,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> tuple[CoeffSeq, MajorantReport]:
    """Build one polynomial whose coefficient moduli equal the targets.

    Indices {0, 1} form the base piece; every later piece lives on one hard
    dyadic block, so spectra are disjoint and coefficients place exactly.
    The weighted sup-norm profile of the sum is controlled by
    4.5 * K * M where K is the worst per-block flatness ratio achieved and M
    the weighted block-l2 bound of the targets; both sides are measured and
    reported.  besov_value is the s = 1, p = inf, q = 1 grid norm of the sum
    and besov_bound its two-sided bound (see besov_detail).  K is a grid
    flatness ratio, which lies below the true one, so chain_bound is an
    estimate of the chain's right side, not a bound.
    """
    if descent_budget < 0:
        raise InvalidParameter("budget must be nonnegative")
    if alpha.is_complex:
        raise InvalidTarget("targets must be nonnegative reals")
    a = alpha.coeffs
    if np.any(a < 0):
        raise InvalidTarget("targets must be nonnegative")

    top_block = block_of(alpha.degree) if alpha.degree >= 1 else 0
    grid_size(1 << (top_block + 2), oversample)  # the final profile's top grid, checked first
    length = 1 << (top_block + 1)
    phi = np.zeros(length)
    blocks = []

    for n in range(top_block + 1):
        lo, hi = (1 << n) if n else 0, 1 << (n + 1)  # piece 0 is the base {0, 1}
        seg = np.zeros(hi)
        avail = a[lo : min(hi, a.size)]
        seg[lo : lo + avail.size] = avail
        if not np.any(seg):
            continue
        piece, rep = flat_polynomial(
            CoeffSeq._adopt(seg), derive_seed(seed, n), descent_budget, oversample
        )
        phi[lo:hi] = piece.coeffs[lo:hi]
        blocks.append({"n": n, "ratio": rep.ratio, "method": rep.method})

    phi_seq = CoeffSeq._adopt(phi)
    k_achieved = max((b["ratio"] for b in blocks), default=0.0)
    besov_value, besov_bound, _ = besov_detail(
        phi_seq, 1.0, math.inf, 1.0, top_block + 1, oversample
    )
    block_bound = hard_block_bound(alpha, top_block)
    fidelity = bool(np.array_equal(np.abs(phi[: a.size]), a)) and not np.any(
        phi[a.size :]
    )
    report = MajorantReport(
        k_achieved=k_achieved,
        besov_value=besov_value,
        besov_bound=besov_bound,
        chain_bound=4.5 * k_achieved * block_bound,
        block_bound=block_bound,
        blocks=blocks,
        fidelity_exact=fidelity,
    )
    return phi_seq, report


@dataclass(frozen=True)
class DecayWitnessParams:
    t: float
    g: float
    nmax: int

    def delta(self, n: int) -> float:
        """Block modulus: 2^(-3n/2) * (n+1)^(-g)."""
        return 2.0 ** (-1.5 * n) * (n + 1.0) ** (-self.g)

    def __len__(self) -> int:
        return 1 << (self.nmax + 1)


def problem88_params(t: float, nmax: int) -> DecayWitnessParams:
    """The parameters of problem88_witness(t, nmax), checked the same way,
    without building its 2^(nmax+1) entries."""
    if not 0.0 < t < 1.0:
        raise InvalidRegime("the witness regime needs 0 < t < 1")
    if nmax < 0:
        raise InvalidParameter("nmax must be nonnegative")
    check_size(nmax + 1, f"witness of nmax {nmax}")
    return DecayWitnessParams(t=t, g=(1.0 + 1.0 / t) / 2.0, nmax=nmax)


def problem88_witness(t: float, nmax: int) -> tuple[CoeffSeq, DecayWitnessParams]:
    """Constant-on-blocks targets that split the weighted-moment dichotomy.

    The decay exponent g = (1 + 1/t) / 2 sits strictly between 1 and 1/t, so
    the weighted block sums 2^(3n/2) * delta_n = (n+1)^(-g) are summable
    while their t-th powers are not.  Index 0 is zero; block n carries the
    constant delta(n) up to nmax.  weighted_moment takes the parameters in
    place of the sequence and computes the same terms block by block.  An
    entry below the smallest normal float (from block 4 at t = 0.001) has
    lost digits no file could carry: InvalidRegime names its first block.
    """
    params = problem88_params(t, nmax)
    deltas = [params.delta(n) for n in range(nmax + 1)]
    if deltas[-1] < _TINY:  # delta falls with n
        n = next(n for n, d in enumerate(deltas) if d < _TINY)
        raise InvalidRegime(f"witness entries underflow from block {n} at t = {t!r}: delta({n}) = {deltas[n]!r}"
                            " is below the smallest normal float")
    z = np.repeat([0.0, *deltas], [1, *(1 << n for n in range(nmax + 1))])  # index 0, then block n
    return CoeffSeq._adopt(z), params


@dataclass(frozen=True)
class MomentDiagnosis:
    label: str  # convergent | divergent | inconclusive
    growth_exponent: float | None  # p in S(2^m) ~ m^p, fitted from increments
    cauchy: bool
    window: tuple


@dataclass(frozen=True)
class MomentReport:
    t: float
    beta: float
    checkpoints: list  # (K, S_K) pairs at K = 2^m
    diagnosis: MomentDiagnosis


def fit_growth_exponent(checkpoints: list, m_lo: int, m_hi: int) -> float:
    """Exponent p with S(2^m) ~ const * m^p over checkpoints m_lo..m_hi.

    Fitted from the dyadic increments S(2^m) - S(2^(m-1)) against log m: a
    partial sum growing like m^p has increments like m^(p-1), and unlike the
    cumulative log-log fit the increment fit is immune to the additive
    constant, so slowly divergent sums are read correctly.
    """
    svals = {int(round(math.log2(K))): S for K, S in checkpoints}
    ms = np.arange(max(1, m_lo), m_hi + 1)
    inc = np.array([svals[m] - svals[m - 1] for m in ms])
    keep = inc > 0
    if keep.sum() < 2:
        return -math.inf
    slope, _, _ = least_squares_line(np.log(ms[keep]), np.log(inc[keep]))
    return 1.0 + slope


def weighted_moment(
    gamma: CoeffSeq | DecayWitnessParams, t: float, beta: float, kmax: int
) -> MomentReport:
    """Partial sums of |gamma_k|^t (1+k)^beta at dyadic checkpoints.

    gamma is a CoeffSeq, or the DecayWitnessParams of a Problem-88 witness,
    whose entries are never held: a chunk's terms are the weights
    (1+k)^beta (0 at k = 0), each block's times one factor delta(n)^t, bit
    for bit the per-index power.  Where delta(n) is 0 or subnormal (from
    block 4 at t = 0.001) the factor is 2^(-1.5 n t) (n+1)^(-g t).
    The sums run in one pass over k = 0..min(kmax, len(gamma) - 1),
    core._CHUNK_ROWS indices at a time, so memory does not grow with kmax.
    Each chunk adds the running total into its first term before its
    cumulative sum, so every partial sum takes the same additions in the
    same order as one cumulative sum over all the terms, and the checkpoints
    are bit for bit those of the full-length pass.  A partial sum that is
    not a finite float raises InvalidRegime: it reports no moment.

    Divergence is diagnosed from the fitted growth exponent p over the last
    third of the checkpoints, never from the size of the sum: the fitted law
    inc_m ~ m^(p-1) converges exactly when p < 0, so the label is divergent
    for p > 0.1, convergent for -inf < p < -0.1 or when every increment in
    the window is 0, and inconclusive otherwise.  That covers a window with
    no increment, fewer than two positive ones, or one holding an increment
    wholly past the last coefficient, which reads flat for want of data.
    cauchy only records whether the window's increments do not rise.
    """
    if not 0 < t < math.inf:  # NaN too
        raise InvalidRegime("moment exponent t must be positive and finite")
    if not math.isfinite(beta):
        raise InvalidRegime("moment weight exponent beta must be finite")
    if kmax < 1:
        raise InvalidParameter("kmax must be at least 1")
    size = len(gamma)
    top = min(kmax, size - 1)
    m_hi = int(math.floor(math.log2(kmax)))
    marks = [min(1 << m, top) for m in range(m_hi + 1)]
    witness = isinstance(gamma, DecayWitnessParams)
    if witness:  # delta(n)^t as an array power, bit for bit a CoeffSeq's; closed form once delta(n) underflows
        factors = [np.power(np.full(1, gamma.delta(n)), t)[0] if gamma.delta(n) >= _TINY
                   else 2.0 ** (-1.5 * n * t) * (n + 1.0) ** (-gamma.g * t) for n in range(gamma.nmax + 1)]
    sums = []
    run = 0.0
    for lo in range(0, top + 1, core._CHUNK_ROWS):
        hi = min(lo + core._CHUNK_ROWS, top + 1)
        k = np.arange(lo, hi)
        with np.errstate(over="ignore", invalid="ignore"):
            if witness:
                terms = (1.0 + k) ** beta
                if lo == 0:
                    terms[0] = 0.0  # index 0 lies outside every block
                for n in range(max(lo, 1).bit_length() - 1, (hi - 1).bit_length()):
                    terms[max(lo, 1 << n) - lo : min(hi, 2 << n) - lo] *= factors[n]
            else:
                a = np.abs(gamma.coeffs[lo:hi])
                terms = np.zeros(hi - lo)
                pos = a > 0
                terms[pos] = a[pos] ** t * (1.0 + k[pos]) ** beta
            terms[0] += run
            cum = np.cumsum(terms)
        run = cum[-1]
        if not math.isfinite(run):
            raise InvalidRegime(f"moment partial sum to k = {hi - 1} is not a finite float at t = {t}, beta = {beta}")
        sums += [float(cum[j - lo]) for j in marks[len(sums) :] if j < hi]
    checkpoints = [(1 << m, S) for m, S in enumerate(sums)]

    window = max(3, (m_hi + 1) // 3)
    m_lo = max(1, m_hi - window + 1)
    inc = np.diff(sums)[m_lo - 1 :]  # increments m = m_lo..m_hi
    # increment m_hi sums k in (2^(m_hi-1), 2^m_hi]: past index size - 1 it holds no data
    past = inc.size > 0 and (1 << (m_hi - 1)) >= size - 1
    p = fit_growth_exponent(checkpoints, m_lo, m_hi) if inc.any() and not past else None
    if p is None:  # no data, or every increment exactly 0
        label = "convergent" if inc.size and not past else "inconclusive"
    else:  # inc_m ~ m^(p-1) converges iff p < 0 (Cauchy condensation); read with margin 0.1
        label = "divergent" if p > 0.1 else "convergent" if -math.inf < p < -0.1 else "inconclusive"
    cauchy = not past and bool(np.all(np.diff(inc) <= 1e-12 * max(inc.max(initial=0.0), 1.0)))
    diag = MomentDiagnosis(label, p, cauchy, (m_lo, m_hi))
    return MomentReport(t=float(t), beta=float(beta), checkpoints=checkpoints, diagnosis=diag)


def psi(t: float) -> float:
    """Regime boundary for weighted coefficient moments: 3t/2 - 1 up to
    t = 2, then t."""
    if not 0 < t < math.inf:  # NaN too
        raise InvalidRegime("psi is defined for finite t > 0")
    return 1.5 * t - 1.0 if t <= 2.0 else float(t)
