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
_SLOPE_THRESHOLD = 0.15  # range_diagnostic: |trailing slope| for a trend
_RESIDUAL_THRESHOLD = 0.2  # range_diagnostic: largest fit residual for a trend


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
    Rudin-Shapiro witnesses with nmax >= 12 also get the profile_growth flag:
    block nmax's l1 - l1_bound is at least 2^((nmax - 8) / 2 - 1) times
    block 0's l1 + l1_bound, a comparison of certified sides that takes no
    grid beyond the blocks'.  The size cap bounds block nmax's grid, the
    largest of the call: nmax <= 22 at the default oversample.
    """
    if nmax < 0:
        raise InvalidParameter("nmax must be nonnegative")
    check_size(nmax + 1, f"witness of nmax {nmax}")  # before the shift below
    grid_size(1 << nmax, oversample)  # block nmax's, the largest grid of the call
    length = 1 << (nmax + 1)
    z = np.zeros(length)
    blocks = []
    for n in range(nmax + 1):
        eps = 1.0 / (n + 1)
        signs = _block_signs(sign_mode, n, seed)
        blk = eps * signs
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
    flags = {
        "bounded_by_one": bool(np.abs(z).max() <= 1.0),
        "block_peaks_decreasing": all(
            linfs[i + 1] < linfs[i] for i in range(len(linfs) - 1)
        ),
    }
    if sign_mode == "rudin_shapiro" and nmax >= 12:  # the lower side of block nmax, the upper of block 0
        lower, upper = blocks[nmax]["l1"] - blocks[nmax]["l1_bound"], blocks[0]["l1"] + blocks[0]["l1_bound"]
        flags["profile_growth"] = bool(lower >= upper * 2.0 ** ((nmax - 8) / 2 - 1))

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
    """Profile shape of a sequence after removing its estimated limit."""

    limit: complex | float
    values: np.ndarray
    sup: float
    trailing_slope: float | None
    fit_residual: float | None
    classification: str  # growing | bounded-flat | bounded-decaying


def range_diagnostic(z: CoeffSeq, nmax: int) -> RangeDiagnostic:
    """Classify the dyadic (s=0, p=1) profile of z minus its estimated limit.

    The label is an estimate from finite data: a least-squares line through
    the last five profile values (fewer when nmax < 4), tested against fixed
    thresholds.  Growing needs trailing slope > 0.15 with fit residual < 0.2;
    decaying is the mirrored slope test; the rest is bounded-flat.  A
    growing label suggests that z is not a coefficient-plus-constant
    sequence of a bounded-profile function, and a decaying one is consistent
    with membership; neither is proved by a truncated profile.  nmax is
    checked as dyadic_profile checks it, a constant z included.
    """
    d = limit_estimate(z)
    prof = dyadic_profile(CoeffSeq._adopt(z.coeffs - d), 0.0, 1.0, nmax)
    v = prof.values
    sup = float(v.max())
    tail = v[-min(5, v.size):]
    ns = np.arange(v.size - tail.size, v.size)
    if tail.max() <= 1e-12 * max(sup, 1.0):
        return RangeDiagnostic(d, v, sup, None, None, "bounded-decaying")
    if tail.size < 2:
        return RangeDiagnostic(d, v, sup, None, None, "bounded-flat")
    slope, _, fit_resid = least_squares_line(ns, np.log2(np.maximum(tail, 1e-300)))
    if slope > _SLOPE_THRESHOLD and fit_resid < _RESIDUAL_THRESHOLD:
        label = "growing"
    elif slope < -_SLOPE_THRESHOLD and fit_resid < _RESIDUAL_THRESHOLD:
        label = "bounded-decaying"
    else:
        label = "bounded-flat"
    return RangeDiagnostic(d, v, sup, slope, fit_resid, label)
