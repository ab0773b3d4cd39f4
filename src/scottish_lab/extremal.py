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
    besov_detail,
    grid_size,
    hard_block_bound,
    lp_norm_circle,
)
from .errors import InvalidParameter, InvalidRegime, InvalidTarget

RUDIN_SHAPIRO_CAP = 20


def rudin_shapiro(k: int) -> tuple[CoeffSeq, CoeffSeq]:
    """The classical +-1 polynomial pair of degree 2^k - 1.

    Built by P -> P + z^(2^k) Q, Q -> P - z^(2^k) Q from P = Q = 1.  On the
    circle |P|^2 + |Q|^2 = 2^(k+1) identically, so both polynomials have sup
    norm at most sqrt(2 * 2^k) while their coefficient l2 norm is 2^(k/2).
    """
    if not 0 <= k <= RUDIN_SHAPIRO_CAP:
        raise InvalidParameter(f"recursion depth must lie in [0, {RUDIN_SHAPIRO_CAP}]")
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


def _aligned_constant_support(b: np.ndarray) -> int | None:
    """Power-of-two length of the support if it is an aligned constant run."""
    nz = np.nonzero(b)[0]
    if nz.size == 0:
        return None
    lo, hi = int(nz[0]), int(nz[-1])
    length = hi - lo + 1
    if nz.size != length:  # support must be contiguous
        return None
    if length & (length - 1):  # and a power of two
        return None
    if lo % length:  # starting on a multiple of its length
        return None
    if not np.all(b[lo : hi + 1] == b[lo]):
        return None
    return length


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
    not asserted against any universal constant.
    """
    if beta.is_complex:
        raise InvalidTarget("targets must be nonnegative reals")
    b = beta.coeffs
    if np.any(b < 0):
        raise InvalidTarget("targets must be nonnegative")

    targets_l2 = float(np.sqrt(np.sum(b**2)))
    if targets_l2 == 0.0:
        f = CoeffSeq._adopt(np.zeros(len(beta)))
        return f, FlatPolyReport(0.0, 0.0, 0.0, "rudin_shapiro", seed, 0)

    run = _aligned_constant_support(b)
    iterations = 0
    if run is not None:
        signs = np.ones(b.size)
        lo = int(np.nonzero(b)[0][0])
        signs[lo : lo + run] = rudin_shapiro(run.bit_length() - 1)[0].coeffs
        method = "rudin_shapiro"
        coeffs = signs * b
        sup = lp_norm_circle(CoeffSeq(coeffs), math.inf, oversample)
    else:
        rng = make_rng(seed)
        signs = rng.integers(0, 2, b.size) * 2.0 - 1.0
        coeffs = signs * b
        sup = lp_norm_circle(CoeffSeq(coeffs), math.inf, oversample)
        evals = 1
        support = np.nonzero(b)[0]
        improved = True
        while improved and evals < descent_budget:
            improved = False
            best_j, best_sup = -1, sup
            for j in support:
                if evals >= descent_budget:
                    break
                coeffs[j] = -coeffs[j]
                cand = lp_norm_circle(CoeffSeq(coeffs), math.inf, oversample)
                coeffs[j] = -coeffs[j]
                evals += 1
                if cand < best_sup:
                    best_sup, best_j = cand, j
            if best_j >= 0:
                coeffs[best_j] = -coeffs[best_j]
                sup = best_sup
                iterations += 1
                improved = True
        method = "random_plus_descent" if evals > 1 else "random_signs"  # a flip was evaluated

    f = CoeffSeq._adopt(coeffs)
    report = FlatPolyReport(
        targets_l2=targets_l2,
        sup_norm=sup,
        ratio=sup / targets_l2,
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
    reported.
    """
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
    ratios = []

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
        ratios.append(rep.ratio)

    phi_seq = CoeffSeq._adopt(phi)
    k_achieved = max(ratios) if ratios else 0.0
    besov_value, _, _ = besov_detail(
        phi_seq, 1.0, math.inf, 1.0, top_block + 1, oversample
    )
    block_bound = hard_block_bound(alpha, top_block)
    fidelity = bool(np.array_equal(np.abs(phi[: a.size]), a)) and not np.any(
        phi[a.size :]
    )
    report = MajorantReport(
        k_achieved=k_achieved,
        besov_value=besov_value,
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

    def values(self, lo: int, hi: int) -> np.ndarray:
        """Witness entries lo..hi-1: 0 at index 0, delta(n) on hard block n."""
        out = np.zeros(hi - lo)
        for n in range(max(lo, 1).bit_length() - 1, (hi - 1).bit_length()):
            out[max(lo, 1 << n) - lo : min(hi, 2 << n) - lo] = self.delta(n)
        return out


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
    place of the sequence and reads the same entries chunk by chunk.
    """
    params = problem88_params(t, nmax)
    return CoeffSeq._adopt(params.values(0, len(params))), params


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
    whose entries are then computed chunk by chunk and never held whole.
    The sums run in one pass over k = 0..min(kmax, len(gamma) - 1),
    core._CHUNK_ROWS indices at a time, so memory does not grow with kmax.
    Each chunk adds the running total into its first term before its
    cumulative sum, so every partial sum takes the same additions in the
    same order as one cumulative sum over all the terms, and the checkpoints
    are bit for bit those of the full-length pass.

    Divergence is diagnosed from the fitted growth exponent over the last
    third of the checkpoints, never from the size of the sum: finite
    truncations cannot witness divergence, fitted growth laws can.  A window
    holding an increment that lies wholly past the last coefficient reads
    flat for want of data, not by convergence, and is labelled inconclusive.
    """
    if not t > 0:  # NaN too
        raise InvalidRegime("moment exponent t must be positive")
    if not math.isfinite(beta):
        raise InvalidRegime("moment weight exponent beta must be finite")
    if kmax < 1:
        raise InvalidParameter("kmax must be at least 1")
    size = len(gamma)
    top = min(kmax, size - 1)
    m_hi = int(math.floor(math.log2(kmax)))
    marks = [min(1 << m, top) for m in range(m_hi + 1)]
    sums = []
    run = 0.0
    for lo in range(0, top + 1, core._CHUNK_ROWS):
        hi = min(lo + core._CHUNK_ROWS, top + 1)
        a = np.abs(gamma.values(lo, hi))
        k = np.arange(lo, hi)
        terms = np.zeros(hi - lo)
        pos = a > 0
        terms[pos] = a[pos] ** t * (1.0 + k[pos]) ** beta
        terms[0] += run
        cum = np.cumsum(terms)
        sums += [float(cum[j - lo]) for j in marks[len(sums) :] if j < hi]
        run = cum[-1]
    checkpoints = [(1 << m, S) for m, S in enumerate(sums)]

    window = max(3, (m_hi + 1) // 3)
    m_lo = max(1, m_hi - window + 1)
    inc = np.diff(sums)[m_lo - 1 :]  # increments m = m_lo..m_hi
    if inc.size and (1 << (m_hi - 1)) >= size - 1:
        # increment m_hi sums k in (2^(m_hi-1), 2^m_hi], all past index size - 1
        diag = MomentDiagnosis("inconclusive", None, False, (m_lo, m_hi))
    elif inc.size == 0 or inc.max() <= 0.0:
        diag = MomentDiagnosis("convergent", None, True, (m_lo, m_hi))
    else:
        p = fit_growth_exponent(checkpoints, m_lo, m_hi)
        cauchy = bool(np.all(np.diff(inc) <= 1e-12 * max(inc.max(), 1.0)))
        if p > 0.1:
            label = "divergent"
        elif p < 0.05 and cauchy:
            label = "convergent"
        else:
            label = "inconclusive"
        diag = MomentDiagnosis(label, p, cauchy, (m_lo, m_hi))
    return MomentReport(t=float(t), beta=float(beta), checkpoints=checkpoints, diagnosis=diag)


def psi(t: float) -> float:
    """Regime boundary for weighted coefficient moments: 3t/2 - 1 up to
    t = 2, then t."""
    if not t > 0:  # NaN too
        raise InvalidRegime("psi is defined for t > 0")
    return 1.5 * t - 1.0 if t <= 2.0 else float(t)
