"""Antidiagonal averaging of matrices, the Cesaro-normalized Cauchy product,
a decaying-sequence witness with growing dyadic block norms, and a range
diagnostic for sequences presented as candidate coefficient-plus-constant
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CoeffSeq,
    DenseMatrix,
    _all_finite,
    _binary_rescale,
    check_size,
    derive_seed,
    least_squares_line,
    limit_estimate,
    make_rng,
)
from .dyadic import DEFAULT_OVERSAMPLE, dyadic_profile, grid_size, lp_norm_detail
from .errors import InvalidInput, InvalidParameter
from .extremal import rudin_shapiro

_DIRECT_CONV_LIMIT = 1 << 18  # products up to which direct beats FFT convolution
_GROWTH_FACTOR = 1.5  # growing: the certified top/early ratio reaches this


def _certified_growth(lower, upper) -> tuple[float | None, bool]:
    """The certified top/early ratio of a block profile, with lower[n] <= block
    n <= upper[n], and whether it reaches _GROWTH_FACTOR: block nmax's lower
    side (at least 0, as a norm is) over the largest upper side of the blocks
    n < nmax // 2; inf over an early side of 0, and None when nmax < 2 or
    both sides are 0.  Growing means the true top block is at least the
    factor times every true early block."""
    nmax = len(lower) - 1
    if nmax < 2:
        return None, False
    top, early = max(float(lower[nmax]), 0.0), float(max(upper[: nmax // 2]))
    ratio = top / early if early > 0.0 else np.inf if top > 0.0 else None
    return ratio, ratio is not None and ratio >= _GROWTH_FACTOR


def antidiagonal_average(Q: DenseMatrix) -> CoeffSeq:
    """Average the matrix along antidiagonals with weight 1/(n+1).

    Entry n of the result is the sum of q_jk over j + k = n divided by n + 1.
    The divisor stays n + 1 even when a truncated antidiagonal has fewer than
    n + 1 entries: that matches applying the infinite-matrix formula to the
    zero-padded matrix, and the two conventions diverge on rectangles.

    Each line of the shorter side is added into its slice of the sums (rows
    in order, or columns from the last to the first), so nothing the size
    of the matrix is built beside it.  Either order adds the terms of each
    antidiagonal by ascending row, as a row-major scatter does.
    """
    A = Q.entries
    J, K = A.shape
    sums = np.zeros(J + K - 1)
    lines = enumerate(A) if J <= K else ((k, A[:, k]) for k in range(K - 1, -1, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, line in lines:
            sums[i : i + line.size] += line
    return _cesaro_mean(sums, "antidiagonal")


def _cesaro_mean(sums: np.ndarray, what: str) -> CoeffSeq:
    """sums[n] / (n + 1); a sum of finite terms that is not finite overflowed."""
    if not _all_finite(sums):
        raise InvalidInput(f"{what} sum {np.argmin(np.isfinite(sums))} overflows the float range")
    return CoeffSeq._adopt(sums / (np.arange(sums.size) + 1.0))


def cesaro_product(x: CoeffSeq, y: CoeffSeq) -> CoeffSeq:
    """Cesaro-normalized Cauchy product: z_n = (1/(n+1)) sum x_k y_{n-k}.

    Entrywise equal to antidiagonal_average of the outer product.  Inputs of
    up to 2^18 products convolve directly, exactly for dyadic-rational data;
    larger ones switch to FFT convolution on a power-of-two grid, through the
    real transform when both inputs are real so the result stays real.  The
    first sum past the float range raises InvalidInput.  An overflow in the
    FFT spoils every term, so the FFT is taken again on x / 2^ex and y / 2^ey
    (ex, ey the binary exponents of their largest moduli) and scaled back.
    """
    a, b = x.coeffs, y.coeffs
    size = a.size + b.size - 1
    check_size((size - 1).bit_length(), f"Cesaro product of length {size}")
    with np.errstate(over="ignore", invalid="ignore"):
        if a.size * b.size <= _DIRECT_CONV_LIMIT:
            conv = np.convolve(a, b)
        else:
            n = 1 << (size - 1).bit_length()
            fft, ifft = (np.fft.fft, np.fft.ifft) if x.is_complex or y.is_complex else (np.fft.rfft, np.fft.irfft)
            conv = ifft(fft(a, n) * fft(b, n), n)[:size]
            if not _all_finite(conv):
                (a, ea), (b, eb) = _binary_rescale(a), _binary_rescale(b)
                conv = ifft(fft(a, n) * fft(b, n), n)[:size]
                conv = np.ldexp(conv.view(np.float64), ea + eb).view(conv.dtype)  # complex by parts
    return _cesaro_mean(conv, "Cauchy product")


@dataclass(frozen=True)
class WitnessReport:
    """Measurements and soft assertions for a decay witness."""

    params: dict
    blocks: list  # dicts {n, l1, l1_bound, linf, l2}; |true L1 - l1| <= l1_bound
    fit: dict  # {slope, intercept, residual} of log2(l1*(n+1)) against n
    flags: dict = field(default_factory=dict)


def _block_signs(mode: str, n: int, seed: int) -> np.ndarray:
    if mode == "rudin_shapiro":
        return rudin_shapiro(n)[0].coeffs
    if mode == "random":
        rng = make_rng(derive_seed(seed, n))
        return rng.integers(0, 2, 1 << n) * 2.0 - 1.0
    raise InvalidParameter(f"unknown sign mode {mode!r}")


def problem8_witness(
    nmax: int,
    seed: int = 0,
    sign_mode: str = "random",
    oversample: int = DEFAULT_OVERSAMPLE,
) -> tuple[CoeffSeq, WitnessReport]:
    """A decaying sequence whose dyadic block L1 norms grow like 2^(n/2)/(n+1).

    Block n carries modulus 1/(n+1) with signs from the chosen mode; index 0
    (outside every hard block) is zero.  Random signs give block L1 of order
    2^(n/2)/(n+1) in expectation; Rudin-Shapiro signs give the deterministic
    bound L1 >= 2^(n/2) / ((n+1) sqrt(2)) via the flatness identity.  The
    report stores per-block measurements, each block's grid L1 with its
    two-sided bound l1_bound (see lp_norm_detail), and fits the exponent of 2
    in l1 * (n+1) against n from block 8 on (block nmax // 2 when nmax < 12).
    The profile_growth flag compares certified sides of those blocks, with
    no grid beyond theirs: it is true when block nmax's l1 - l1_bound is at
    least _GROWTH_FACTOR = 1.5 times every l1 + l1_bound of the blocks
    n < nmax // 2 (never when nmax < 2).  The size cap bounds block nmax's
    grid, the largest of the call: nmax <= 22 at the default oversample.
    """
    if nmax < 0:
        raise InvalidParameter("nmax must be nonnegative")
    check_size(nmax + 1, f"witness of nmax {nmax}")  # before the shift below
    grid_size(1 << nmax, oversample)  # block nmax's, the largest grid of the call
    z = np.zeros(2 << nmax)
    blocks = []
    for n in range(nmax + 1):
        blk = _block_signs(sign_mode, n, seed) / (n + 1)
        z[1 << n : 1 << (n + 1)] = blk
        # L1 of the block is shift-invariant, so measure it unanchored.
        l1, l1_bound, _ = lp_norm_detail(CoeffSeq._adopt(blk), 1, oversample)
        blocks.append(
            {
                "n": n,
                "l1": l1,
                "l1_bound": l1_bound,
                "linf": float(np.abs(blk).max()),
                "l2": float(np.sqrt(np.sum(blk**2))),
            }
        )

    fit_start = 8 if nmax >= 12 else max(1, nmax // 2)
    fit_start = min(fit_start, max(0, nmax - 1))  # keep two or more fit points
    fit_ns = np.arange(fit_start, nmax + 1)
    if fit_ns.size >= 2:
        l1s = np.array([blocks[n]["l1"] for n in fit_ns])
        slope, intercept, resid = least_squares_line(fit_ns, np.log2(l1s * (fit_ns + 1)))
    else:
        slope = intercept = resid = None

    linfs = [b["linf"] for b in blocks]
    lower, upper = [b["l1"] - b["l1_bound"] for b in blocks], [b["l1"] + b["l1_bound"] for b in blocks]
    flags = {
        "bounded_by_one": bool(np.abs(z).max() <= 1.0),
        "block_peaks_decreasing": all(a > b for a, b in zip(linfs, linfs[1:])),
        "profile_growth": _certified_growth(lower, upper)[1],
    }

    report = WitnessReport(
        params={
            "nmax": nmax,
            "seed": seed,
            "sign_mode": sign_mode,
            "decay": "1/(n+1)",
            "fit_start": int(fit_start),
        },
        blocks=blocks,
        fit={"slope": slope, "intercept": intercept, "residual": resid},
        flags=flags,
    )
    return CoeffSeq._adopt(z), report


@dataclass(frozen=True)
class RangeDiagnostic:
    """Profile of a sequence after removing its estimated limit."""

    limit: complex | float
    values: np.ndarray
    sup: float  # the largest certified upper side, values + error_bounds
    growth_ratio: float | None  # the certified top/early ratio
    classification: str  # growing | bounded


def range_diagnostic(z: CoeffSeq, nmax: int) -> RangeDiagnostic:
    """Label the dyadic (s=0, p=1) profile of z minus its estimated limit.

    growing: block nmax's lower side (value - error bound) is at least
    _GROWTH_FACTOR = 1.5 times the upper side (value + error bound) of every
    block n < nmax // 2.  Otherwise bounded, which claims only sup, the
    largest upper side over the blocks computed, and no trend past them;
    nmax < 2 leaves no early block, so growth_ratio is None.  A growing label
    suggests that z is not a coefficient-plus-constant sequence of a
    bounded-profile function; a truncated profile proves neither answer.
    nmax is checked as dyadic_profile checks it, a constant z included.
    """
    d = limit_estimate(z)
    prof = dyadic_profile(CoeffSeq._adopt(z.coeffs - d), 0.0, 1.0, nmax)
    upper = prof.values + prof.error_bounds
    ratio, grows = _certified_growth(prof.values - prof.error_bounds, upper)
    return RangeDiagnostic(d, prof.values, float(upper.max()), ratio, "growing" if grows else "bounded")
