"""Dyadic trapezoidal kernels, circle L^p quadrature, Besov-type profiles,
and hard-block coefficient bounds.

Space membership is never reported as a boolean: sequences here are finite
truncations, so callers get a profile with two-sided error bounds and decide
from its certified sides.  Profiles whose top block cannot cover the
polynomial's degree are flagged as truncated and the associated norms are
lower bounds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import CoeffSeq, _binary_rescale, check_size
from .errors import InvalidExponent, InvalidParameter

DEFAULT_OVERSAMPLE = 8

# The longest FFT lp_norm_detail takes: a larger grid is evaluated one coset
# at a time, each coset one FFT of this many points (see _grid_moduli).
# numpy's FFT adds its plan and scratch to its output, so an rfft of 2^20
# points raises peak RSS by 24 MB for an 8 MB result.  Sized by measurement
# on the 2^22-point grid of 2^19 real coefficients: 0.19 s and 1.8 MiB
# traced at 2^16, against 0.50 s at 2^14, 7 MiB at 2^18, and 0.21 s and
# 48 MiB for the whole grid at once.  The size cap's grid is 2^9 cosets.
_FFT_POINTS = 1 << 16
# The width of the rows in which a coset's twist is applied (_coset_input).
_TWIST_ROW = 256
# A power sum below the smallest normal float has lost digits to underflow.
_TINY = sys.float_info.min


def dyadic_kernel(n: int) -> CoeffSeq:
    """Coefficients of the n-th trapezoidal dyadic kernel.

    For n >= 1 the multiplier peaks at 1 on 2^n, vanishes outside the open
    interval (2^(n-1), 2^(n+1)), and ramps linearly on [2^(n-1), 2^n] and
    [2^n, 2^(n+1)].  The n = 0 kernel is 1 + z.  Adjacent kernels overlap but
    their coefficients sum to 1 at every index, exactly in float arithmetic
    because all ramp values are dyadic rationals.
    """
    if n < 0:
        raise InvalidParameter("kernel index must be nonnegative")
    check_size(n + 1, f"kernel {n}")
    if n == 0:
        return CoeffSeq._adopt(np.array([1.0, 1.0]))
    lo, mid, hi = 1 << (n - 1), 1 << n, 1 << (n + 1)
    c = np.zeros(hi)
    c[lo + 1 : mid + 1] = (np.arange(lo + 1, mid + 1) - lo) / (mid - lo)
    c[mid:hi] = (hi - np.arange(mid, hi)) / (hi - mid)
    return CoeffSeq._adopt(c)


def _validate_exponent(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1:
        raise InvalidExponent("exponent must lie in [1, inf]")
    return p


def grid_size(length: int, oversample: int) -> int:
    """Smallest power of two that is >= oversample * length."""
    if oversample < 2:
        raise InvalidParameter("oversample must be at least 2")
    log2 = max(1, (oversample * length - 1).bit_length())
    check_size(log2, f"grid for {length} coefficients at oversample {oversample}")
    return 1 << log2


def grid_values(f: CoeffSeq, oversample: int = DEFAULT_OVERSAMPLE) -> np.ndarray:
    """Values of f at the grid points w_j = exp(2 pi i j / G), G = grid_size.

    Complex f gets all G points, j = 0..G-1, from one inverse FFT.  Real f
    gets the G/2 + 1 upper-half points j = 0..G/2 from one real FFT: then
    f(conj w) = conj f(w), so the lower half mirrors the upper half and holds
    the same moduli.
    """
    G = grid_size(len(f), oversample)
    if f.is_complex:
        return np.fft.ifft(f.coeffs, n=G, norm="forward")
    out = np.fft.rfft(f.coeffs, n=G)
    return np.conjugate(out, out=out)


def _roots(step: int, G: int, count: int) -> np.ndarray:
    """exp(2 pi i k step / G) for k < count, each from its exact angle;
    callers keep (count - 1) * step < G, so k * step needs no reduction."""
    ang = np.arange(0, step * count, step) * (2 * math.pi / G)
    return np.cos(ang) + 1j * np.sin(ang)


def _coset_input(c: np.ndarray, N: int, G: int, s: int) -> np.ndarray:
    """The input d whose N-point DFT is f on the coset j = s (mod G / N)
    (see _grid_moduli): c folded by Horner's rule into one fresh array of N
    entries.  Entry (j, i) of d as a matrix of rows of R = min(N, _TWIST_ROW)
    entries is twisted by w^(s R j) * w^(s i): two short tables of exact
    angles, so rounding does not drift over cosets."""
    R = min(_TWIST_ROW, N)
    d = np.zeros(N, np.complex128 if s else c.dtype)
    last = (c.size - 1) // N
    d[: c.size - last * N] = c[last * N :]
    a = 2 * math.pi * s / (G // N)
    z = complex(math.cos(a), math.sin(a))
    for q in range(last - 1, -1, -1):
        if s:
            d *= z
        d += c[q * N : (q + 1) * N]
    if s:
        rows = d.reshape(-1, R)
        rows *= _roots(s * R, G, rows.shape[0])[:, None]
        rows *= _roots(s, G, R)
    return d


def _grid_moduli(f: CoeffSeq, oversample: int, G: int):
    """|f| on the G-point grid in parts that together count every point
    once, as pairs (weight, moduli): each modulus stands for weight points,
    or weight is None for a real half grid, whose end points count once and
    interior points twice.

    A grid of at most L = _FFT_POINTS points is one part, from grid_values.
    A larger one is taken one coset j = s (mod r) of N = G / r points at a
    time (Cooley and Tukey, 1965).  With w = exp(2 pi i / G) and k = i + N q,
    w^((s + r m) k) = w^(s i) * exp(2 pi i s q / r) * exp(2 pi i m i / N), so
    f at j = s + r m, m = 0..N-1, is the N-point DFT of
    d_i = w^(s i) * sum_q exp(2 pi i s q / r) c_(i + N q): the chunks of c,
    each turned by its phase, summed (folded) and twisted.  This is exact,
    not an aliasing estimate, and numpy's forward FFT of d gives the same
    values in the order m -> -m.  Complex f takes all G / L cosets of L
    points.  For real f, coset r - s mirrors coset s (j -> G - j): the
    points j = 0 (mod G / L) are one real FFT of L points, a half grid, and
    the rest are the cosets 0 < s < G / L of L / 2 points, each counted
    twice for its mirror, so no point is computed twice.
    """
    if G <= _FFT_POINTS:
        yield (1 if f.is_complex else None), np.abs(grid_values(f, oversample))
        return
    c, L = f.coeffs, _FFT_POINTS
    if f.is_complex:
        N, cosets = L, range(G // L)
    else:
        yield None, np.abs(np.fft.rfft(_coset_input(c, L, G, 0)))
        N, cosets = L // 2, range(1, G // L)
    for s in cosets:  # each input and spectrum goes before the next is made
        yield (1 if f.is_complex else 2), np.abs(np.fft.fft(_coset_input(c, N, G, s)))


def _grid_power_sum(f: CoeffSeq, oversample: int, G: int, p: float, scale: float = 1.0):
    """(sum of (|f| / scale)^p over the G-point grid, the grid maximum of
    |f|), from one pass over _grid_moduli's parts, each taken in place.
    The sum is nan or inf when the powers overflow, 0 when they underflow."""
    maxima, total = [], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for weight, mags in _grid_moduli(f, oversample, G):
            maxima.append(mags.max())
            if not math.isinf(p):
                if scale != 1.0:
                    mags /= scale
                powers = mags if p == 1 else np.power(mags, p, out=mags)
                total += 2 * powers.sum() - powers[0] - powers[-1] if weight is None else weight * powers.sum()
    return total, float(np.max(maxima))


def lp_norm_detail(
    f: CoeffSeq, p: float, oversample: int = DEFAULT_OVERSAMPLE
) -> tuple[float, float, int]:
    """Grid L^p norm of f on the unit circle, a two-sided bound, and G.

    The value is the normalized p-mean of |f| over G equispaced points, G the
    smallest power of two >= oversample * (D + 1), D = deg f; p = inf takes
    the grid maximum.  For real f the half grid of `grid_values` stands for
    the whole: its end points j = 0 and G/2 count once and every interior
    point twice.  A grid of more than _FFT_POINTS points is taken one coset
    at a time (see _grid_moduli), which changes only the order of the sum.

    p = 2 needs no grid: on any grid of G > D points the mean of |f|^2 is
    sum |c_k|^2 (discrete Parseval), as is the circle's, so the value is
    sqrt(sum |c_k|^2) and the bound 0, as for f = 0; G is still checked.

    A sum of squares or of |f|^p that under- or overflows is taken again
    divided by the peak (the largest modulus), so the value scales with f.
    A peak that is not a normal float (the FFT overflowed, or ran among
    subnormals, where rounding is absolute) is taken again on f times 2^-e,
    e the binary exponent of the largest |c_k|, and value and bound are
    scaled back by 2^e; they read inf only past the float range.

    For other p, |true norm - value| <= bound = (kappa - 1) * value + rho,
    kappa = G / (G - 2m), m = ceil(D / 2), at most 2 as G >= 2(D + 1).
    z^-m f has degree m and the modulus of f, and the de la Vallee-Poussin
    kernel for m and G - m maps its grid samples to it and it to them, with
    translates summing in modulus to at most kappa, so grid_p / kappa <=
    ||f||_p <= kappa * grid_p for every p (Marcinkiewicz-Zygmund; Zygmund,
    Trigonometric Series I, ch. X).  With u = 2^-53 and r = log2 G +
    G / _FFT_POINTS + 4, each grid value lies within 8ur sum |c_k| <=
    8ur sqrt(G) peak of f(w_j) (Higham, Accuracy and Stability of Numerical
    Algorithms, 24.1; a coset folds in at most G / _FFT_POINTS steps), the
    powers, sum and root add a relative ru (Higham's model, without
    underflow), and kappa doubles both at most: rho = 32ur sqrt(G) peak,
    from no pass over the coefficients or the grid.
    """
    p = _validate_exponent(p)
    G = grid_size(len(f), oversample)
    if p == 2:
        # numpy's own loop, not a BLAS dot: no thread hand-off per block when
        # BLAS is multithreaded, and the same sum whatever its thread count
        v = f.coeffs.view(np.float64)  # complex entries as (re, im) pairs
        total = np.einsum("i,i->", v, v)
        value = math.sqrt(total) if _TINY <= total < math.inf else _power_root(np.abs(v), 2, np.sqrt)
        return value, 0.0, G
    total, peak = _grid_power_sum(f, oversample, G, p) if f.coeffs.any() else (0.0, 0.0)
    if peak and not _TINY <= peak < math.inf:  # again on f / 2^e, exactly scaled
        scaled, e = _binary_rescale(f.coeffs)
        value, bound, _ = lp_norm_detail(CoeffSeq._adopt(scaled), p, oversample)
        with np.errstate(over="ignore"):  # inf past the float range
            return float(np.ldexp(value, e)), float(np.ldexp(bound, e)), G
    if math.isinf(p) or peak == 0:
        value = peak
    elif _TINY <= total < math.inf:
        value = float((total / G) ** (1.0 / p))
    else:  # |f|^p under- or overflows: a second pass, scaled by the peak
        value = peak * float((_grid_power_sum(f, oversample, G, p, peak)[0] / G) ** (1.0 / p))
    m2 = 2 * ((f.degree + 1) // 2)  # kappa - 1 = 2m / (G - 2m)
    rho = 2.0**-48 * math.sqrt(G) * (math.log2(G) + G / _FFT_POINTS + 4) * peak
    return value, m2 / (G - m2) * value + rho, G


def lp_norm_circle(f: CoeffSeq, p: float, oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """Grid L^p norm of f on the unit circle (see lp_norm_detail)."""
    return lp_norm_detail(f, p, oversample)[0]


@dataclass(frozen=True)
class DyadicProfile:
    """The weighted block-norm sequence 2^(n*s) * ||f * W_n||_p, n = 0..nmax;
    error_bounds[n] bounds |true block norm - values[n]| on both sides."""

    s: float
    p: float
    nmax: int
    values: np.ndarray
    error_bounds: np.ndarray
    grid: int
    truncated: bool


def dyadic_profile(
    f: CoeffSeq,
    s: float,
    p: float,
    nmax: int,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> DyadicProfile:
    """Dyadic block profile of f.

    Block n is the coefficient-wise product of f with the n-th kernel,
    evaluated on a grid of at least oversample * 2^(n+1) points.  If
    2^(nmax+1) cannot cover f's nonzero degree the profile is marked
    truncated and downstream norms are lower bounds.  At p = 2 every block
    value is exact (Parseval) and every error bound is 0; `grid` is still
    the top block's grid.
    """
    if nmax < 0:
        raise InvalidParameter("nmax must be nonnegative")
    check_size(nmax + 1, f"profile to block {nmax}")
    top_grid = grid_size(1 << (nmax + 1), oversample)  # the top block's, the largest G_n
    _validate_exponent(p)
    try:
        top_weight = 2.0 ** (nmax * s)  # the largest weight when s > 0
    except OverflowError:
        top_weight = math.inf
    if not (math.isfinite(s) and math.isfinite(top_weight)):
        raise InvalidParameter(f"s = {s!r} must be finite with a finite top block weight 2^(nmax*s)")
    values = np.zeros(nmax + 1)
    bounds = np.zeros(nmax + 1)
    for n in range(nmax + 1):
        block = f.padded(2 << n)  # the kernel's length
        block *= dyadic_kernel(n).coeffs
        v, e, _ = lp_norm_detail(CoeffSeq._adopt(block), p, oversample)
        weight = 2.0 ** (n * s)
        values[n] = weight * v
        bounds[n] = weight * e
    return DyadicProfile(
        s=float(s),
        p=float(p),
        nmax=nmax,
        values=values,
        error_bounds=bounds,
        grid=top_grid,
        truncated=bool(np.any(f.coeffs[1 << (nmax + 1):])),
    )


def _power_root(a: np.ndarray, q: float, root) -> float:
    """root(sum of a^q) for a nonnegative array a.  When that sum under- or
    overflows though the largest entry top is positive and finite, it is
    taken as top * root(sum of (a / top)^q), whose largest term is 1."""
    with np.errstate(over="ignore"):
        total = np.sum(a**q)
    if _TINY <= total < math.inf or not 0 < (top := float(a.max())) < math.inf:
        return float(root(total))
    return top * float(root(np.sum((a / top) ** q)))


def _lq_aggregate(values: np.ndarray, q: float) -> float:
    if math.isinf(q):
        return float(values.max())
    return _power_root(values, q, lambda total: total ** (1.0 / q))


def besov_detail(
    f: CoeffSeq,
    s: float,
    p: float,
    q: float,
    nmax: int,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> tuple[float, float, DyadicProfile]:
    """Besov norm with its aggregated quadrature error bound and profile.

    The norm is the l^q aggregation of the profile values (max for q = inf,
    which is a lower bound for the true sup under truncation).  The error
    bound aggregates the per-block two-sided bounds the same way, so by the
    triangle inequality in l^q it bounds |true norm - norm| on both sides.
    At p = 2 the profile is exact and the bound is 0.
    """
    q = _validate_exponent(q)
    prof = dyadic_profile(f, s, p, nmax, oversample)
    return _lq_aggregate(prof.values, q), _lq_aggregate(prof.error_bounds, q), prof


def besov_norm(
    f: CoeffSeq,
    s: float,
    p: float,
    q: float,
    nmax: int,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> float:
    """l^q norm of the dyadic profile of f (see besov_detail)."""
    return besov_detail(f, s, p, q, nmax, oversample)[0]


def hard_block_bound(gamma: CoeffSeq, nmax: int) -> float:
    """|gamma_0| plus the weighted sum of hard-block l2 norms.

    Returns |g_0| + sum over n <= nmax of 2^n * (sum_{k in block n} |g_k|^2)^(1/2).
    The index-0 modulus is carried as a separate term so the bound covers
    every index; the block sum proper starts at k = 1.  Only blocks that hold
    coefficients are visited, so the time does not grow with nmax.
    """
    if nmax < 0:
        raise InvalidParameter("nmax must be nonnegative")
    c = gamma.coeffs
    total = float(abs(c[0]))
    for n in range(min(nmax, gamma.degree.bit_length() - 1) + 1):
        total += (2.0**n) * _power_root(np.abs(c[1 << n : 2 << n]), 2, np.sqrt)
    return total
