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
    check_size,
    derive_seed,
    least_squares_line,
    limit_estimate,
    make_rng,
)
from .dyadic import DEFAULT_OVERSAMPLE, dyadic_profile, grid_size, lp_norm_circle
from .errors import InvalidParameter
from .extremal import rudin_shapiro

_DIRECT_CONV_LIMIT = 1 << 18  # products up to which direct beats FFT convolution

WITNESS_NMAX_CAP = 20
_SLOPE_THRESHOLD = 0.15  # range_diagnostic: |trailing slope| for a trend
_RESIDUAL_THRESHOLD = 0.2  # range_diagnostic: largest fit residual for a trend


def antidiagonal_average(Q: DenseMatrix) -> CoeffSeq:
    """Average the matrix along antidiagonals with weight 1/(n+1).

    Entry n of the result is the sum of q_jk over j + k = n divided by n + 1.
    The divisor stays n + 1 even when a truncated antidiagonal has fewer than
    n + 1 entries: that matches applying the infinite-matrix formula to the
    zero-padded matrix, and the two conventions diverge on rectangles.
    """
    A = Q.entries
    J, K = A.shape
    n_index = np.add.outer(np.arange(J), np.arange(K)).ravel()
    sums = np.bincount(n_index, weights=A.ravel(), minlength=J + K - 1)
    return CoeffSeq._adopt(sums / (np.arange(J + K - 1) + 1.0))


def cesaro_product(x: CoeffSeq, y: CoeffSeq) -> CoeffSeq:
    """Cesaro-normalized Cauchy product: z_n = (1/(n+1)) sum x_k y_{n-k}.

    Entrywise equal to antidiagonal_average of the outer product.  Inputs of
    up to 2^18 products convolve directly, exactly for dyadic-rational data;
    larger ones switch to FFT convolution on a power-of-two grid, through the
    real transform when both inputs are real so the result stays real.
    """
    a, b = x.coeffs, y.coeffs
    size = a.size + b.size - 1
    check_size((size - 1).bit_length(), f"Cesaro product of length {size}")
    if a.size * b.size <= _DIRECT_CONV_LIMIT:
        conv = np.convolve(a, b)
    else:
        n = 1 << (size - 1).bit_length()
        if x.is_complex or y.is_complex:
            conv = np.fft.ifft(np.fft.fft(a, n) * np.fft.fft(b, n))[:size]
        else:
            conv = np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n)[:size]
    return CoeffSeq._adopt(conv / (np.arange(conv.size) + 1.0))


@dataclass(frozen=True)
class WitnessReport:
    """Measurements and soft assertions for a decay witness."""

    params: dict
    blocks: list  # dicts {n, l1, linf, l2}
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
    report stores per-block measurements and fits the exponent of 2 in
    l1 * (n+1) against n from block 8 on (block nmax // 2 when nmax < 12).
    """
    if not 0 <= nmax <= WITNESS_NMAX_CAP:
        raise InvalidParameter(f"nmax must lie in [0, {WITNESS_NMAX_CAP}]")
    profiled = sign_mode == "rudin_shapiro" and nmax >= 12
    # The largest grid of the call (the profile's top block, else block nmax),
    # checked before any block is built.
    grid_size(1 << (nmax + 1 if profiled else nmax), oversample)
    length = 1 << (nmax + 1)
    z = np.zeros(length)
    blocks = []
    for n in range(nmax + 1):
        eps = 1.0 / (n + 1)
        signs = _block_signs(sign_mode, n, seed)
        blk = eps * signs
        z[1 << n : 1 << (n + 1)] = blk
        # L1 of the block is shift-invariant, so measure it unanchored.
        blocks.append(
            {
                "n": n,
                "l1": lp_norm_circle(CoeffSeq._adopt(blk), 1, oversample),
                "linf": float(np.abs(blk).max()),
                "l2": float(np.sqrt(np.sum(blk**2))),
            }
        )
    seq = CoeffSeq._adopt(z)

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
    if profiled:
        prof = dyadic_profile(seq, 0.0, 1.0, nmax, oversample).values
        flags["profile_growth"] = bool(
            prof[-1] >= prof[0] * 2.0 ** ((nmax - 8) / 2 - 1)
        )

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
    return seq, report


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

    A growing profile certifies that z is not a coefficient-plus-constant
    sequence of a bounded-profile function (the truncation-visible
    direction); a decaying one is merely consistent with membership.
    Thresholds: growing needs trailing slope > 0.15 with fit residual < 0.2;
    decaying is the mirrored slope test; the rest is bounded-flat.
    """
    d = limit_estimate(z)
    resid = z.coeffs - d
    if not np.any(resid):
        return RangeDiagnostic(d, np.zeros(nmax + 1), 0.0, None, None, "bounded-decaying")
    prof = dyadic_profile(CoeffSeq._adopt(resid), 0.0, 1.0, nmax)
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
