"""Dyadic trapezoidal kernels, circle L^p quadrature, Besov-type profiles,
and hard-block coefficient bounds.

Space membership is never reported as a boolean: sequences here are finite
truncations, so callers get a profile plus fitted trends and decide from
those.  Profiles whose top block cannot cover the polynomial's degree are
flagged as truncated and the associated norms are lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CoeffSeq, check_size
from .errors import InvalidExponent, InvalidParameter

DEFAULT_OVERSAMPLE = 8


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
        return CoeffSeq(np.array([1.0, 1.0]))
    lo, mid, hi = 1 << (n - 1), 1 << n, 1 << (n + 1)
    c = np.zeros(hi)
    c[lo + 1 : mid + 1] = (np.arange(lo + 1, mid + 1) - lo) / (mid - lo)
    c[mid:hi] = (hi - np.arange(mid, hi)) / (hi - mid)
    return CoeffSeq(c)


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
        return np.fft.ifft(f.coeffs, n=G) * G
    out = np.fft.rfft(f.coeffs, n=G)
    return np.conjugate(out, out=out)


def lp_norm_detail(
    f: CoeffSeq, p: float, oversample: int = DEFAULT_OVERSAMPLE
) -> tuple[float, float, int]:
    """Grid L^p norm of f on the unit circle plus an a-priori error bound.

    The norm is the normalized p-mean of |f| over G equispaced points, G the
    smallest power of two >= oversample * (deg + 1); p = inf takes the grid
    maximum (a lower estimate of the true sup).  For real f the half grid of
    `grid_values` stands for the whole: its end points j = 0 and G/2 count
    once and every interior point twice, for its mirror image.

    p = 2 is exact and needs no grid: the value is sqrt(sum |c_k|^2) and the
    bound is 0.  On any grid of G > D points the grid mean of |f|^2 is
    sum_{j,k} c_j conj(c_k) * (mean of w^(j-k)), and the mean of w^m over the
    G-th roots of unity vanishes for 0 < |m| <= D < G, so it equals
    sum |c_k|^2 (discrete Parseval, no aliasing), as does the circle's
    squared L^2 norm.  G is still reported, and still checked first.

    For other p the bound pi * D * peak / (G - pi * D), for degree D and grid
    peak `peak`, covers the gap between the grid value and the true norm.
    Every point of the circle lies within pi / G of the grid and
    |f'| <= D * sup|f| (Bernstein), so sup|f| <= peak + pi * D * sup|f| / G,
    hence sup|f| <= peak * G / (G - pi * D), and both the grid p-mean and
    the grid maximum lie within pi * D * sup|f| / G of the true norm.  When
    G <= pi * D the estimate gives nothing and the bound is inf.  Callers
    add it to their tolerance accounting, never silently absorb it.
    """
    p = _validate_exponent(p)
    G = grid_size(len(f), oversample)
    if p == 2:
        # numpy's own loop, not a BLAS dot: no thread hand-off per block when
        # BLAS is multithreaded, and the same sum whatever its thread count
        v = f.coeffs.view(np.float64)  # complex entries as (re, im) pairs
        return math.sqrt(np.einsum("i,i->", v, v)), 0.0, G
    mags = np.abs(grid_values(f, oversample))
    peak = float(mags.max())
    if math.isinf(p):
        value = peak
    else:
        powers = mags if p == 1 else np.power(mags, p, out=mags)  # in place: one grid array
        total = powers.sum() if f.is_complex else 2 * powers.sum() - powers[0] - powers[-1]
        value = float((total / G) ** (1.0 / p))
    slack = G - math.pi * f.degree
    bound = math.pi * f.degree * peak / slack if slack > 0 else math.inf
    return value, bound, G


def lp_norm_circle(f: CoeffSeq, p: float, oversample: int = DEFAULT_OVERSAMPLE) -> float:
    """Grid L^p norm of f on the unit circle (see lp_norm_detail)."""
    return lp_norm_detail(f, p, oversample)[0]


@dataclass(frozen=True)
class DyadicProfile:
    """The weighted block-norm sequence 2^(n*s) * ||f * W_n||_p, n = 0..nmax."""

    s: float
    p: float
    nmax: int
    values: np.ndarray
    error_bounds: np.ndarray
    grid: int
    degree: int
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
    grid_size(1 << (nmax + 1), oversample)  # the top block's grid, checked before any block
    _validate_exponent(p)
    values = np.zeros(nmax + 1)
    bounds = np.zeros(nmax + 1)
    top_grid = 0
    for n in range(nmax + 1):
        w = dyadic_kernel(n).coeffs
        block = f.padded(w.size) * w
        v, e, g = lp_norm_detail(CoeffSeq(block), p, oversample)
        weight = 2.0 ** (n * s)
        values[n] = weight * v
        bounds[n] = weight * e
        top_grid = max(top_grid, g)
    degree = f.last_nonzero()
    return DyadicProfile(
        s=float(s),
        p=float(p),
        nmax=nmax,
        values=values,
        error_bounds=bounds,
        grid=top_grid,
        degree=degree,
        truncated=(1 << (nmax + 1)) <= degree,
    )


def _lq_aggregate(values: np.ndarray, q: float) -> float:
    if math.isinf(q):
        return float(values.max()) if values.size else 0.0
    return float(np.sum(values**q) ** (1.0 / q))


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
    bound aggregates the per-block bounds the same way, which dominates the
    norm perturbation by the triangle inequality.  At p = 2 the profile is
    exact and the bound is 0.
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
    every index; the block sum proper starts at k = 1.
    """
    if nmax < 0:
        raise InvalidParameter("nmax must be nonnegative")
    c = gamma.coeffs
    total = float(abs(c[0]))
    for n in range(nmax + 1):
        blk = c[1 << n : 1 << (n + 1)]
        if blk.size:
            total += (2.0**n) * float(np.sqrt(np.sum(np.abs(blk) ** 2)))
    return total
