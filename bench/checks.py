"""Checks of the program's outputs.

Each check compares an output with a computation made here, apart from the
program (closed forms, direct evaluation, brute-force scans), or with a
property the method must have.  None compares with a stored copy of an
earlier output.  A failed check raises CheckError.
"""

from __future__ import annotations

import csv
import math

import numpy as np

REL = 1e-9
ORACLE_MAX = 16  # brute-force scans enumerate 2^(n-1) sign vectors, n <= this


class CheckError(AssertionError):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a, b, what: str, rel: float = REL, scale: float = 1.0) -> None:
    a, b = float(a), float(b)
    tol = rel * max(abs(a), abs(b), scale)
    require(abs(a - b) <= tol, f"{what}: {a!r} != {b!r} (tol {tol:.3g})")


# ---------------------------------------------------------------------------
# Independent computations.
# ---------------------------------------------------------------------------


def kernel_multiplier(n: int, length: int) -> np.ndarray:
    """Trapezoid multiplier of the n-th dyadic block at indices 0..length-1."""
    k = np.arange(length, dtype=float)
    if n == 0:
        return (k <= 1).astype(float)
    lo, mid, hi = 2.0 ** (n - 1), 2.0**n, 2.0 ** (n + 1)
    return np.interp(k, [lo, mid, hi], [0.0, 1.0, 0.0])


def direct_values(c: np.ndarray, G: int, js) -> np.ndarray:
    """f(e^(2 pi i j / G)) = sum_k c_k e^(2 pi i j k / G), summed directly."""
    k = np.arange(c.size)
    return np.array([np.sum(c * np.exp(2j * np.pi * ((j * k) % G) / G)) for j in js])


def signform_oracle(A: np.ndarray) -> float:
    """max |x^T A y| over sign vectors by scanning the shorter side only."""
    if A.shape[1] < A.shape[0]:
        A = A.T
    n = A.shape[0]
    require(n <= ORACLE_MAX, f"oracle scan over {n} signs is too large")
    bits = (np.arange(1 << max(n - 1, 0))[:, None] >> np.arange(n - 1)[None, :]) & 1
    X = np.hstack([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits])
    return float(np.abs(X @ A).sum(axis=1).max())


def witness88_target(t: float, n: int) -> float:
    g = (1.0 + 1.0 / t) / 2.0
    return math.pow(2.0, -1.5 * n) * math.pow(n + 1.0, -g)


def coeffs_from_csv(path) -> np.ndarray:
    """A coefficient CSV read with the csv module alone."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, rows = rows[0], rows[1:]
    require(header[:2] == ["k", "re"], f"{path}: unexpected header {header}")
    size = int(rows[-1][0]) + 1
    out = np.zeros(size, dtype=complex if len(header) == 3 else float)
    for r in rows:
        out[int(r[0])] = complex(float(r[1]), float(r[2])) if len(header) == 3 else float(r[1])
    return out


# ---------------------------------------------------------------------------
# Dyadic profiles and grids.
# ---------------------------------------------------------------------------


def _blocks(c: np.ndarray, nmax: int):
    for n in range(nmax + 1):
        m = kernel_multiplier(n, min(c.size, 1 << (n + 1)))
        yield n, c[: m.size] * m


def grid_pmeans(blk: np.ndarray, G: int, p: float) -> tuple[float, float, float]:
    """p-means of |blk| on the G-point and on the 2G-point circle grid, by a
    forward FFT of its own, and the peak on the finer grid.  The G points are
    every second point of the 2G grid."""
    if np.iscomplexobj(blk):
        mags = np.abs(np.fft.fft(blk, 2 * G))
    else:  # |values| of a real block are symmetric: the half spectrum suffices
        half = np.abs(np.fft.rfft(blk, 2 * G))
        mags = np.concatenate([half, half[-2:0:-1]])

    def mean(m):
        return float(m.max()) if math.isinf(p) else float(np.mean(m**p) ** (1.0 / p))

    return mean(mags[::2]), mean(mags), float(mags.max())


def check_profile(c: np.ndarray, s: float, p: float, values, error_bounds=None,
                  oversample: int = 8) -> None:
    """Block n of the profile is 2^(ns) ||f * W_n||_p.

    p = 2 is Parseval (the grid mean equals the coefficient l2 sum exactly).
    For other p the block's p-mean is recomputed here on the grid the
    profile promises, the smallest power of two >= oversample * 2^(n+1)
    points, and must match to rounding; on a grid twice as fine it must lie
    within the profile's own error bound plus the finer grid's (pi D peak / G
    each, D the block's degree).  Every p-mean of |f| also lies between
    l2^2 / l1 and l2 (p = 1), or between max(l2, |f(1)|) and l1 (p = inf).
    """
    values = np.asarray(values, dtype=float)
    for n, blk in _blocks(np.asarray(c), values.size - 1):
        weight = 2.0 ** (n * s)
        v = values[n] / weight
        l1 = float(np.abs(blk).sum())
        l2 = float(np.sqrt(np.sum(np.abs(blk) ** 2)))
        what = f"profile p={p} block {n}"
        if p == 2:
            close(v, l2, what, scale=1e-300)
            continue
        if p == 1:
            lo, hi = (l2 * l2 / l1 if l1 else 0.0), l2
        else:
            lo, hi = max(l2, abs(complex(blk.sum()))), l1
        require(lo * (1 - REL) <= v <= hi * (1 + REL), f"{what}: {v} outside [{lo}, {hi}]")
        size = 2 if n == 0 else 1 << (n + 1)  # the kernel's length
        G = 1 << max(1, (oversample * size - 1).bit_length())
        same, fine, peak = grid_pmeans(blk, G, p)
        close(v, same, f"{what} vs its {G}-point grid", scale=l1)
        if error_bounds is not None:
            D = size - 1
            tol = error_bounds[n] / weight + math.pi * D * peak / (2 * G) + REL * l1
            require(abs(v - fine) <= tol,
                    f"{what}: {v} is {abs(v - fine):.3g} from the {2 * G}-point grid, over {tol:.3g}")


def check_aggregate(values, q: float, norm: float) -> None:
    values = np.asarray(values, dtype=float)
    want = values.max() if math.isinf(q) else float(np.sum(values**q) ** (1.0 / q))
    close(norm, want, f"l^{q} aggregate of the profile")


def check_grid_values(c: np.ndarray, grid: np.ndarray, js) -> None:
    G = grid.size
    want = direct_values(np.asarray(c), G, js)
    scale = float(np.abs(c).sum())
    for j, w in zip(js, want):
        require(abs(grid[j] - w) <= REL * scale, f"grid value {j}/{G}: {grid[j]} != {w}")


# ---------------------------------------------------------------------------
# Witnesses, majorants and flat polynomials.
# ---------------------------------------------------------------------------


def check_rs_blocks(blocks) -> None:
    """Rudin-Shapiro blocks: grid L1 >= l2^2 / sup >= 2^(n/2) / ((n+1) sqrt 2)."""
    for b in blocks:
        n = b["n"]
        bound = 2.0 ** (n / 2) / ((n + 1) * math.sqrt(2.0))
        require(b["l1"] >= bound * (1 - 1e-12), f"RS block {n}: L1 {b['l1']} < {bound}")


def check_random_witness(z: np.ndarray, blocks) -> None:
    require(z[0] == 0.0, "witness index 0 must be zero")
    for b in blocks:
        n = b["n"]
        blk = z[1 << n : 1 << (n + 1)]
        require(np.all(np.abs(blk) == 1.0 / (n + 1)), f"witness block {n} moduli")
        close(b["l2"], 2.0 ** (n / 2) / (n + 1), f"witness block {n} l2")
        close(b["linf"], 1.0 / (n + 1), f"witness block {n} linf")
        require(b["l1"] <= b["l2"] * (1 + REL), f"witness block {n}: L1 > L2")


def check_witness88_targets(alpha: np.ndarray, t: float, nmax: int) -> None:
    require(alpha.size == 1 << (nmax + 1), f"target length {alpha.size}")
    require(alpha[0] == 0.0, "target index 0 must be zero")
    for n in range(nmax + 1):
        blk = alpha[1 << n : 1 << (n + 1)]
        want = witness88_target(t, n)
        require(np.all(np.abs(blk - want) <= 1e-12 * want), f"target block {n} != {want}")


def check_majorant(alpha: np.ndarray, phi: np.ndarray, report: dict) -> None:
    require(report["fidelity_exact"] is True, "majorant fidelity_exact is not true")
    require(np.array_equal(np.abs(phi[: alpha.size]), alpha), "|phi| differs from the targets")
    require(not np.any(phi[alpha.size :]), "phi has coefficients past the targets")
    require(report["besov_value"] <= report["chain_bound"] * (1 + REL),
            f"besov {report['besov_value']} > chain bound {report['chain_bound']}")
    require(report["k_achieved"] >= 1 - REL, f"flatness {report['k_achieved']} < 1")


def check_flat(beta: np.ndarray, f: np.ndarray, report: dict) -> None:
    require(np.array_equal(np.abs(f), beta), "|f_hat(j)| differs from the targets")
    l2 = float(np.sqrt(np.sum(beta**2)))
    l1 = float(np.abs(beta).sum())
    sup = report["sup_norm"]
    close(report["targets_l2"], l2, "targets l2")
    lo = max(l2, abs(float(f.sum())))
    require(lo * (1 - REL) <= sup <= l1 * (1 + REL), f"sup {sup} outside [{lo}, {l1}]")
    close(report["ratio"], sup / l2, "flatness ratio")


def check_range(z: np.ndarray, limit, classification: str, expected: str) -> None:
    close(limit, np.mean(z[-(z.size // 4):]), "estimated limit")
    require(classification == expected, f"range class {classification}, expected {expected}")


# ---------------------------------------------------------------------------
# Sign-form norms and brackets.
# ---------------------------------------------------------------------------


def check_signform(A: np.ndarray, value: float, x, y, exact: bool) -> None:
    """The (x, y) certificate re-evaluates; exact values match the oracle."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    require(np.all(np.abs(x) == 1) and np.all(np.abs(y) == 1), "certificate is not a sign pair")
    scale = float(np.abs(A).max())
    close(abs(x @ A @ y), value, "certificate |x^T A y|", scale=scale)
    if exact and min(A.shape) <= ORACLE_MAX:
        close(value, signform_oracle(A), "exact value vs brute-force scan", scale=scale)


def check_bracket(A: np.ndarray, lower, upper, lower_cert: dict, pairs, rng, trials=3) -> None:
    """Both certificates re-evaluate, and |<A, T>| <= upper * ||T|| on random T."""
    scale = max(float(np.abs(A).max()), 1e-300)
    require(0.0 <= lower <= upper * (1 + 1e-12), f"bracket [{lower}, {upper}] out of order")
    total = np.zeros_like(A)
    cost = 0.0
    for a, b in pairs:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        total += np.outer(a, b)
        cost += float(np.abs(a).max() * np.abs(b).max())
    require(np.allclose(total, A, rtol=0, atol=REL * scale), "upper certificate does not sum to A")
    close(cost, upper, "upper certificate cost", scale=scale)

    if lower_cert["kind"] == "zero":
        require(not np.any(A) and upper == 0.0, "zero bracket of a nonzero matrix")
        return
    # Kinds not listed here still have to satisfy lower = |pairing| / denominator.
    kind, pairing, denom = lower_cert["kind"], lower_cert["pairing"], lower_cert["denominator"]
    if kind == "entry":
        close(pairing, A[lower_cert["j"], lower_cert["k"]], "entry pairing", scale=scale)
        close(denom, 1.0, "entry denominator")
    elif kind == "identity":
        m = lower_cert["size"]
        close(pairing, np.trace(A[:m, :m]), "identity pairing", scale=scale)
        close(denom, m, "identity denominator")
    elif kind == "self-exact":
        close(pairing, np.sum(A * A), "self pairing", scale=scale * scale)
        if min(A.shape) <= ORACLE_MAX:
            close(denom, signform_oracle(A), "self denominator vs scan", scale=scale)
    elif kind == "self-abs-sum":
        close(pairing, np.sum(A * A), "self pairing", scale=scale * scale)
        close(denom, np.abs(A).sum(), "absolute-sum denominator", scale=scale)
    close(lower, abs(pairing) / denom, "lower = |pairing| / denominator", scale=scale)

    if min(A.shape) <= ORACLE_MAX:
        for _ in range(trials):
            T = rng.integers(-3, 4, A.shape).astype(float)
            lhs = abs(float(np.sum(A * T)))
            require(lhs <= upper * signform_oracle(T) * (1 + REL) + REL * scale,
                    f"duality: |<A,T>| = {lhs} > upper * ||T||")


def check_corner_monotone(lowers, uppers) -> None:
    """Corners are restrictions, so lower_n <= true_n <= true_m <= upper_m."""
    best_upper = math.inf
    for n in range(len(lowers) - 1, -1, -1):
        best_upper = min(best_upper, uppers[n])
        require(lowers[n] <= best_upper * (1 + REL), f"corner {n}: lower above a later upper")


# ---------------------------------------------------------------------------
# Averaging, moments and the regime boundary.
# ---------------------------------------------------------------------------


def check_antidiagonal(A: np.ndarray, seq: np.ndarray) -> None:
    flipped = np.fliplr(A)
    J, K = A.shape
    want = np.array([flipped.diagonal(K - 1 - n).sum() / (n + 1) for n in range(J + K - 1)])
    require(seq.size == want.size, f"antidiagonal length {seq.size} != {want.size}")
    scale = float(np.abs(A).max())
    require(np.allclose(seq, want, rtol=1e-12, atol=1e-12 * scale), "antidiagonal averages")


def check_cesaro(x: np.ndarray, y: np.ndarray, seq: np.ndarray) -> None:
    conv = np.convolve(x, y)  # direct summation, never FFT
    want = conv / (np.arange(conv.size) + 1.0)
    scale = float(np.abs(x).max() * np.abs(y).max())
    require(seq.size == want.size, f"product length {seq.size} != {want.size}")
    require(np.allclose(seq, want, rtol=0, atol=1e-9 * scale), "Cesaro product")


def check_moment(alpha: np.ndarray, t: float, beta: float, checkpoints) -> None:
    k = np.arange(alpha.size, dtype=float)
    terms = np.where(alpha > 0, np.abs(alpha) ** t * (1.0 + k) ** beta, 0.0)
    cum = np.cumsum(terms)
    for K, S in checkpoints:
        close(S, cum[min(K, alpha.size - 1)], f"moment partial sum at K={K}")


def check_psi(t: float, value: float) -> None:
    want = 1.5 * t - 1.0 if t <= 2.0 else t
    close(value, want, f"psi({t})")
