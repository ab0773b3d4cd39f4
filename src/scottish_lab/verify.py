"""Verification suites.

Each suite implements one acceptance criterion at its stated size and
tolerance: suite(seed, th) returns one case per checked assertion, which
depends only on the seed and the merged thresholds th.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import core, dyadic, extremal, mazur, tensornorm
from .errors import InvalidParameter

# log2 of the most coefficients whose grid at the default oversample fits
# the size cap (dyadic.grid_size)
_GRID_LOG2 = core.SIZE_CAP_LOG2 - (dyadic.DEFAULT_OVERSAMPLE - 1).bit_length()
_TINY = math.ulp(0.0)  # the least float above 0
_BIG = sys.float_info.max  # the largest finite float

# Every threshold once: its default and the closed range an override must lie
# in, checked before any suite runs.  The upper end of a size is the largest
# value the library's caps admit for the calls its suite makes.
THRESHOLDS = {
    "kernel.nmax": (16, 0, _GRID_LOG2 - 1),  # W_n has 2^(n+1) coefficients
    "kernel.l1_bound": (1.5 + 1e-3, 0.0, math.inf),
    "kernel.w0_tol": (1e-4, 0.0, math.inf),
    "kernel.w0_oversample": (2048, 2, 1 << (core.SIZE_CAP_LOG2 - 1)),  # W_0 has 2 coefficients
    "kernel.partition_kmax": (1 << 17, 0, 1 << (core.SIZE_CAP_LOG2 - 1)),  # W_n to n = bitlen(kmax - 1)
    "kernel.partition_tol": (1e-12, 0.0, math.inf),
    "besov.jmax": (14, 0, _GRID_LOG2 - 2),  # the profile of z^(2^j) to block j + 1
    "besov.rel_tol": (1e-6, 0.0, math.inf),
    "inj.cases": (200, 1, math.inf),
    "inj.match_min": (0.95, 0.0, 1.0),
    "hankel.mmax": (16, 0, tensornorm.EXACT_ENUM_CAP - 1),  # scans of (m+1) x (m+1)
    "re.cases": (1000, 1, math.inf),
    "re.constant": (5.0, _TINY, math.inf),
    "w88.tail_nmax": (30, 0, math.inf),
    "w88.tail_factor": (2.0, _TINY, math.inf),
    "w88.exp_lo": (0.15, -_BIG, _BIG),
    "w88.exp_hi": (0.35, -_BIG, _BIG),
    "w88.m_lo": (12, 0, math.inf),
    "w88.m_hi": (22, 0, core.SIZE_CAP_LOG2 - 1),  # a witness of 2^(m_hi+1) entries
    "w88.lkk_nmax": (14, 0, _GRID_LOG2 - 2),  # its majorant's profile to block lkk_nmax + 1
    "w88.chain_slack": (1e-6, 0.0, math.inf),
    "w8.nmax": (16, 1, _GRID_LOG2 - 1),  # the fit needs blocks 0 and 1; the profile to block nmax
    "w8.block_lo": (8, 0, math.inf),
    "w8.exp_lo": (0.35, -_BIG, _BIG),
    "w8.exp_hi": (0.65, -_BIG, _BIG),
    "w8.seeds": (5, 1, math.inf),
    "w8.pairs": (100, 1, math.inf),
    "w8.notgrow_min": (95, 0, math.inf),
    "dual.pairs": (100, 1, math.inf),
    "dual.tol": (1e-9, 0.0, math.inf),
    "dual.rank1": (50, 1, math.inf),
    "mazur.seeds": (100, 1, math.inf),
    "mazur.b_tol": (1e-12, 0.0, math.inf),
    "mazur.flat_kmax": (12, 0, _GRID_LOG2),  # the grid of P with 2^k coefficients
    "mazur.flat_tol": (1e-9, 0.0, math.inf),
}
DEFAULT_THRESHOLDS = {key: default for key, (default, _, _) in THRESHOLDS.items()}

# (low key, high key, least gap): the witness8 bound checks blocks
# w8.block_lo..w8.nmax, and the growth fit needs two increments past w88.m_lo.
_WINDOWS = (("w8.block_lo", "w8.nmax", 0), ("w88.m_lo", "w88.m_hi", 2))


@dataclass(frozen=True)
class CaseResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    cases: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)


def merged_thresholds(overrides: dict | None) -> dict:
    """The defaults with each override applied and checked against its range,
    then every window checked."""
    th = dict(DEFAULT_THRESHOLDS)
    for key, value in (overrides or {}).items():
        if key not in th:
            raise InvalidParameter(f"unknown threshold {key!r}")
        default, lo, hi = THRESHOLDS[key]
        kind = type(default)
        try:
            th[key] = kind(value)
            # no threshold is a bool, and an int one takes no fraction
            if isinstance(value, (bool, np.bool_)) or (
                kind is int and not isinstance(value, str) and th[key] != value
            ):
                raise ValueError
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameter(
                f"threshold {key!r} expects {kind.__name__}, got {value!r}"
            ) from exc
        if not lo <= th[key] <= hi:  # nan fails too
            raise InvalidParameter(f"threshold {key!r} must lie in [{lo}, {hi}], got {value!r}")
    for lo_key, hi_key, gap in _WINDOWS:
        if th[hi_key] - th[lo_key] < gap:
            raise InvalidParameter(
                f"thresholds {lo_key!r} and {hi_key!r} need {hi_key} - {lo_key} >= {gap}, "
                f"got {th[hi_key]} - {th[lo_key]}"
            )
    return th


# ---------------------------------------------------------------------------
# Criterion 1: kernel norms, the n = 0 closed form, partition of unity.
# ---------------------------------------------------------------------------


def suite_kernel(seed: int, th: dict) -> list:
    cases = []
    nmax = th["kernel.nmax"]
    worst = 0.0  # the upper side of each enclosure: grid value plus its bound
    for n in range(nmax + 1):
        v, bound, _ = dyadic.lp_norm_detail(dyadic.dyadic_kernel(n), 1)
        worst = max(worst, v + bound)
    cases.append(
        CaseResult(
            "kernel-l1",
            worst <= th["kernel.l1_bound"],
            f"max ||W_n||_1 over n<={nmax} is at most {worst:.6f} (bound {th['kernel.l1_bound']})",
        )
    )

    w0 = dyadic.lp_norm_circle(dyadic.dyadic_kernel(0), 1, oversample=th["kernel.w0_oversample"])
    target = 4.0 / math.pi
    cases.append(
        CaseResult(
            "kernel-w0",
            abs(w0 - target) <= th["kernel.w0_tol"],
            f"grid estimate ||W_0||_1 = {w0:.8f} vs 4/pi = {target:.8f}",
        )
    )

    kmax = th["kernel.partition_kmax"]
    acc = np.zeros(kmax + 1)
    # W_n (n >= 1) is zero below 2^(n-1) + 1: stop at the last that reaches kmax.
    for n in range((kmax - 1).bit_length() + 1):
        w = dyadic.dyadic_kernel(n).coeffs[: kmax + 1]
        acc[: w.size] += w
    dev = float(np.abs(acc - 1.0).max())
    cases.append(
        CaseResult(
            "kernel-partition",
            dev <= th["kernel.partition_tol"],
            f"max |sum_n W_n_hat(k) - 1| over k<={kmax} is {dev:.3e}",
        )
    )
    return cases


# ---------------------------------------------------------------------------
# Criterion 2: weighted-profile norms of monomials and a two-block sum.
# ---------------------------------------------------------------------------


def suite_besov(seed: int, th: dict) -> list:
    cases = []
    rel = th["besov.rel_tol"]
    worst = 0.0
    for j in range(th["besov.jmax"] + 1):
        e = np.zeros((1 << j) + 1)
        e[-1] = 1.0
        v = dyadic.besov_norm(core.CoeffSeq(e), 1.0, math.inf, 1.0, j + 1)
        worst = max(worst, abs(v - float(1 << j)) / float(1 << j))
    cases.append(
        CaseResult(
            "besov-monomials",
            worst <= rel,
            f"max relative error of besov(z^(2^j)) over j<={th['besov.jmax']} is {worst:.3e}",
        )
    )

    f = np.zeros(9)
    f[2] = 1.0
    f[8] = 1.0
    v = dyadic.besov_norm(core.CoeffSeq(f), 1.0, math.inf, 1.0, 4)
    cases.append(
        CaseResult(
            "besov-two-blocks",
            abs(v - 10.0) <= rel,
            f"besov(z^2 + z^8) = {v:.9f} (target 10)",
        )
    )
    return cases


# ---------------------------------------------------------------------------
# Criterion 3: exact enumeration vs brute force, and the search heuristic.
# ---------------------------------------------------------------------------


def _all_signs(n: int) -> np.ndarray:
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    return 1.0 - 2.0 * bits


def brute_force_norm(A: np.ndarray) -> float:
    """Independent oracle: scan every (x, y) sign pair."""
    X = _all_signs(A.shape[0])
    Y = _all_signs(A.shape[1])
    return float(np.abs(X @ A @ Y.T).max())


def suite_inj_oracle(seed: int, th: dict) -> list:
    cases = th["inj.cases"]
    rng = core.make_rng(core.derive_seed(seed, 3001))
    exact_bad = 0
    search_hits = 0
    for i in range(cases):
        J = int(rng.integers(1, 9))
        K = int(rng.integers(1, 9))
        A = rng.integers(-3, 4, (J, K)).astype(float)
        Q = core.DenseMatrix(A)
        value, x, y = tensornorm.injective_norm_exact(Q)
        oracle = brute_force_norm(A)
        if value != oracle:
            exact_bad += 1
        certificate = float(
            x.entries.astype(float) @ A @ y.entries.astype(float)
        )
        if certificate != value:
            exact_bad += 1
        out = tensornorm.injective_norm_search(Q, budget=4 * (1 << J), seed=core.derive_seed(seed, i))
        if out.value == value:
            search_hits += 1
    frac = search_hits / cases
    return [
        CaseResult(
            "exact-vs-brute",
            exact_bad == 0,
            f"{cases - exact_bad}/{cases} exact values match the (x, y) scan",
        ),
        CaseResult(
            "search-hit-rate",
            frac >= th["inj.match_min"],
            f"search matched exact on {search_hits}/{cases} = {frac:.3f}",
        ),
    ]


# ---------------------------------------------------------------------------
# Criterion 4: antidiagonal matrices vs monomial profile norms.
# ---------------------------------------------------------------------------


def suite_hankel_shadow(seed: int, th: dict) -> list:
    mmax = th["hankel.mmax"]
    ok_norm = True
    ok_ratio = True
    worst_ratio = (1.0, 0)
    for m in range(mmax + 1):
        e = np.zeros(m + 1)
        e[m] = 1.0
        Q = core.hankel_matrix(core.CoeffSeq(e), m + 1)
        value, _, _ = tensornorm.injective_norm_exact(Q)
        if value != float(m + 1):
            ok_norm = False
        nmax = 1 if m == 0 else (m.bit_length() - 1) + 1
        b = dyadic.besov_norm(core.CoeffSeq(e), 1.0, math.inf, 1.0, nmax)
        ratio = b / (m + 1)
        if not 0.5 <= ratio <= 2.0:
            ok_ratio = False
        if abs(math.log(ratio)) > abs(math.log(worst_ratio[0])):
            worst_ratio = (ratio, m)
    return [
        CaseResult("hankel-antidiagonal-norm", ok_norm, f"norm of the unit antidiagonal equals m+1 for m<={mmax}"),
        CaseResult(
            "monomial-comparability",
            ok_ratio,
            f"besov(z^m)/(m+1) within [1/2, 2]; extreme {worst_ratio[0]:.4f} at m={worst_ratio[1]}",
        ),
    ]


# ---------------------------------------------------------------------------
# Criterion 5: the weighted-moment chain inequality on random data.
# ---------------------------------------------------------------------------


def _random_nonneg_sequence(rng: np.random.Generator) -> np.ndarray:
    length = int(rng.integers(1, (1 << 12) + 1))
    kind = int(rng.integers(0, 5))
    if kind == 0:
        seq = rng.random(length)
    elif kind == 1:
        seq = rng.random(length) ** 4 * 10.0  # heavy spread
    elif kind == 2:
        seq = rng.random(length) * (rng.random(length) < 0.1)  # sparse
    elif kind == 3:
        seq = 2.0 ** (-rng.integers(0, 40, length).astype(float))
    else:
        seq = 1.0 / (1.0 + np.arange(length, dtype=float))
    if not np.any(seq):
        seq[0] = 1.0
    return seq


def suite_theorem_re(seed: int, th: dict) -> list:
    total = th["re.cases"]
    const = th["re.constant"]
    ts = (1.0, 1.1, 1.25, 1.33)
    rng = core.make_rng(core.derive_seed(seed, 5001))
    violations = 0
    worst = 0.0
    for i in range(total):
        t = ts[i % len(ts)]
        g = _random_nonneg_sequence(rng)
        k = np.arange(g.size, dtype=float)
        lhs = float(np.sum(g**t * (1.0 + k) ** (1.5 * t - 1.0)))
        nmax = 0 if g.size <= 1 else (g.size - 1).bit_length() - 1
        M = dyadic.hard_block_bound(core.CoeffSeq(g), nmax)
        rhs = const * M**t
        if lhs > rhs * (1 + 1e-12):
            violations += 1
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return [
        CaseResult(
            "chain-inequality",
            violations == 0,
            f"{total - violations}/{total} cases satisfy moment <= {const} * M^t; worst ratio {worst:.4f}",
        )
    ]


# ---------------------------------------------------------------------------
# Criterion 6: the slow-decay witness: tails, divergence exponent, assembly.
# ---------------------------------------------------------------------------


# B_2, B_4, ..., B_14: the Bernoulli numbers of the Euler-Maclaurin tail
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta(s, a) = sum over k >= 0 of (k + a)^(-s), for s > 1 and
    a > 0: twelve terms summed directly, then the Euler-Maclaurin expansion
    of the rest through B_14 (DLMF 25.11), whose remainder is below 1e-16 of
    the sum for a >= 2 and s <= 3."""
    x = a + 12.0
    total = math.fsum((a + k) ** -s for k in range(12))
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x**-s
    term = s * x ** (-s - 1.0) / 2.0  # s(s+1)...(s+2j-2) x^(-s-2j+1) / (2j)! at j = 1
    for j, b in enumerate(_BERNOULLI, start=1):
        tail += b * term
        term *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2) * x * x)
    return total + tail


def suite_witness88(seed: int, th: dict) -> list:
    cases = []
    t = 0.5
    m_lo = th["w88.m_lo"]
    m_hi = th["w88.m_hi"]

    params = extremal.problem88_params(t, nmax=m_hi)
    g = params.g

    tail_nmax = th["w88.tail_nmax"]
    factor = th["w88.tail_factor"]
    tail_ok = True
    worst = (1.0, 0)
    for n in range(tail_nmax + 1):
        tail = _hurwitz_zeta(g, n + 2)  # exact tail of sum (m+1)^(-g) beyond n
        estimate = (n + 1.0) ** (1.0 - g) / (g - 1.0)
        r = tail / estimate
        if not (1.0 / factor <= r <= factor):
            tail_ok = False
        if abs(math.log(r)) > abs(math.log(worst[0])):
            worst = (r, n)
    cases.append(
        CaseResult(
            "block-bound-tails",
            tail_ok,
            f"tail/integral-estimate ratios in [1/{factor}, {factor}] for n<={tail_nmax}; extreme {worst[0]:.4f} at n={worst[1]}",
        )
    )

    rep = extremal.weighted_moment(params, t, 1.5 * t - 1.0, kmax=1 << m_hi)  # streamed, never built
    p = extremal.fit_growth_exponent(rep.checkpoints, m_lo + 1, m_hi)
    cases.append(
        CaseResult(
            "moment-growth-exponent",
            th["w88.exp_lo"] <= p <= th["w88.exp_hi"] and rep.diagnosis.label == "divergent",
            f"fitted growth exponent {p:.4f} over K=2^{m_lo}..2^{m_hi} (law 1/4); diagnosis {rep.diagnosis.label}",
        )
    )

    alpha14, _ = extremal.problem88_witness(t, nmax=th["w88.lkk_nmax"])
    phi, mrep = extremal.assemble_majorant(alpha14, seed=core.derive_seed(seed, 88))
    besov_upper = mrep.besov_value + mrep.besov_bound
    chain_ok = besov_upper <= mrep.chain_bound + th["w88.chain_slack"]
    cases.append(
        CaseResult(
            "majorant-fidelity",
            mrep.fidelity_exact,
            "assembled coefficients reproduce the targets exactly",
        )
    )
    cases.append(
        CaseResult(
            "majorant-chain-bound",
            chain_ok,
            f"besov at most {besov_upper:.6f} <= 4.5 * K * M = {mrep.chain_bound:.6f}",
        )
    )
    return cases


# ---------------------------------------------------------------------------
# Criterion 7: the decaying witness with growing block norms.
# ---------------------------------------------------------------------------


def suite_witness8(seed: int, th: dict) -> list:
    cases = []
    nmax = th["w8.nmax"]
    lo = th["w8.block_lo"]

    z_rs, rep_rs = mazur.problem8_witness(nmax, seed=seed, sign_mode="rudin_shapiro")
    bound_ok = True
    worst_margin = math.inf
    for n in range(lo, nmax + 1):
        l1 = rep_rs.blocks[n]["l1"] - rep_rs.blocks[n]["l1_bound"]  # the lower side
        bound = 2.0 ** (n / 2) / ((n + 1) * math.sqrt(2.0))
        worst_margin = min(worst_margin, l1 / bound)
        if l1 < bound:
            bound_ok = False
    cases.append(
        CaseResult(
            "rs-block-lower-bound",
            bound_ok,
            f"block L1 lower side >= 2^(n/2)/((n+1) sqrt 2) for n={lo}..{nmax}; min margin {worst_margin:.4f}",
        )
    )

    slopes = []
    ok_slopes = True
    for s in range(th["w8.seeds"]):
        _, rep = mazur.problem8_witness(nmax, seed=core.derive_seed(seed, 700 + s), sign_mode="random")
        slopes.append(rep.fit["slope"])
        if not th["w8.exp_lo"] <= rep.fit["slope"] <= th["w8.exp_hi"]:
            ok_slopes = False
    cases.append(
        CaseResult(
            "random-fitted-exponent",
            ok_slopes,
            "fitted exponents " + ", ".join(f"{v:.3f}" for v in slopes) + f" within [{th['w8.exp_lo']}, {th['w8.exp_hi']}]",
        )
    )

    diag = mazur.range_diagnostic(z_rs, nmax)
    growing, ratio = diag.classification == "growing", diag.growth_ratio
    ratio_text = "none" if ratio is None else f"{ratio:.3f} {'>=' if growing else '<'} {mazur._GROWTH_FACTOR}"
    cases.append(
        CaseResult(
            "witness-classified-growing",
            growing,
            f"witness profile classified {diag.classification} (certified top/early ratio {ratio_text})",
        )
    )

    pairs = th["w8.pairs"]
    not_growing, largest = 0, 0.0
    L = 1 << 12
    n_idx = np.arange(L, dtype=float)
    for i in range(pairs):
        rng = core.make_rng(core.derive_seed(seed, 9000 + i))
        x = 1.0 + rng.uniform(-1.0, 1.0, L) / (n_idx + 1.0)
        y = 1.0 + rng.uniform(-1.0, 1.0, L) / (n_idx + 1.0)
        img = mazur.cesaro_product(core.CoeffSeq(x), core.CoeffSeq(y))
        diag = mazur.range_diagnostic(img, 12)
        not_growing += diag.classification != "growing"
        largest = max(largest, diag.growth_ratio or 0.0)
    cases.append(
        CaseResult(
            "product-images-not-growing",
            not_growing >= th["w8.notgrow_min"],
            f"{not_growing}/{pairs} product images classified not-growing; "
            f"largest certified top/early ratio {largest:.3f}",
        )
    )
    return cases


# ---------------------------------------------------------------------------
# Criterion 8: duality pairing and tight rank-one brackets.
# ---------------------------------------------------------------------------


def suite_duality(seed: int, th: dict) -> list:
    tol = th["dual.tol"]
    rng = core.make_rng(core.derive_seed(seed, 8001))
    bad_pairing = 0
    for _ in range(th["dual.pairs"]):
        J = int(rng.integers(1, 9))
        K = int(rng.integers(1, 9))
        A = rng.integers(-3, 4, (J, K)).astype(float)
        B = rng.integers(-3, 4, (J, K)).astype(float)
        pairing = abs(float(np.sum(A * B)))
        upper = tensornorm.projective_bracket(core.DenseMatrix(A)).upper
        value, _, _ = tensornorm.injective_norm_exact(core.DenseMatrix(B))
        if pairing > upper * value + tol:
            bad_pairing += 1
    bad_rank1 = 0
    for _ in range(th["dual.rank1"]):
        J = int(rng.integers(1, 9))
        K = int(rng.integers(1, 9))
        a = rng.integers(-3, 4, J).astype(float)
        b = rng.integers(-3, 4, K).astype(float)
        if not np.any(a):
            a[0] = 1.0
        if not np.any(b):
            b[0] = 1.0
        br = tensornorm.projective_bracket(core.DenseMatrix(np.outer(a, b)))
        v = float(np.abs(a).max() * np.abs(b).max())
        if abs(br.upper - br.lower) > tol or abs(br.lower - v) > tol:
            bad_rank1 += 1
    return [
        CaseResult(
            "pairing-bound",
            bad_pairing == 0,
            f"{th['dual.pairs'] - bad_pairing}/{th['dual.pairs']} pairings within upper * norm",
        ),
        CaseResult(
            "rank-one-tight",
            bad_rank1 == 0,
            f"{th['dual.rank1'] - bad_rank1}/{th['dual.rank1']} rank-one brackets tight",
        ),
    ]


# ---------------------------------------------------------------------------
# Criterion 9: averaging identities and the flatness identity.
# ---------------------------------------------------------------------------


def suite_mazur(seed: int, th: dict) -> list:
    cases = []
    rng = core.make_rng(core.derive_seed(seed, 9001))

    bad = 0
    for _ in range(th["mazur.seeds"]):
        N = int(rng.integers(1, 65))
        z = rng.integers(-1000, 1001, 2 * N - 1).astype(float) / 256.0
        avg = mazur.antidiagonal_average(core.hankel_matrix(core.CoeffSeq(z), N))
        if not np.array_equal(avg.coeffs[:N], z[:N]):
            bad += 1
    cases.append(
        CaseResult(
            "average-of-hankel",
            bad == 0,
            f"{th['mazur.seeds'] - bad}/{th['mazur.seeds']} exact round trips",
        )
    )

    worst = 0.0
    for i in range(20):
        lx = int(rng.integers(1, 257))
        ly = int(rng.integers(1, 257))
        x = rng.standard_normal(lx)
        y = rng.standard_normal(ly)
        direct = mazur.antidiagonal_average(core.DenseMatrix(np.outer(x, y)))
        fast = mazur.cesaro_product(core.CoeffSeq(x), core.CoeffSeq(y))
        worst = max(worst, float(np.abs(direct.coeffs - fast.coeffs).max()))
    cases.append(
        CaseResult(
            "product-consistency",
            worst <= th["mazur.b_tol"],
            f"max |product - averaged outer| = {worst:.2e}",
        )
    )

    flat_ok = True
    worst_rel = 0.0
    for k in range(th["mazur.flat_kmax"] + 1):
        P, Q = extremal.rudin_shapiro(k)
        # Real P and Q give the upper half of the grid; |P|^2 + |Q|^2 on the
        # lower half is its mirror image, so every grid point is checked.
        total = np.abs(dyadic.grid_values(P)) ** 2 + np.abs(dyadic.grid_values(Q)) ** 2
        rel = float(np.abs(total - 2.0 ** (k + 1)).max()) / 2.0 ** (k + 1)
        worst_rel = max(worst_rel, rel)
        if rel > th["mazur.flat_tol"]:
            flat_ok = False
    cases.append(
        CaseResult(
            "flatness-identity",
            flat_ok,
            f"max relative deviation of |P|^2 + |Q|^2 from 2^(k+1) is {worst_rel:.2e}",
        )
    )
    return cases


# ---------------------------------------------------------------------------
# Criterion 10: CLI schemas, byte-identical reruns, exit-code semantics.
# ---------------------------------------------------------------------------


def suite_cli_roundtrip(seed: int, th: dict) -> list:
    from . import cli  # only this suite needs the CLI

    return cli.self_check()


SUITES = {
    "kernel": suite_kernel,
    "besov": suite_besov,
    "inj-oracle": suite_inj_oracle,
    "hankel-shadow": suite_hankel_shadow,
    "theorem-re": suite_theorem_re,
    "witness88": suite_witness88,
    "witness8": suite_witness8,
    "duality": suite_duality,
    "mazur-id": suite_mazur,
    "cli-roundtrip": suite_cli_roundtrip,
}


# Every suite once, the costliest first: seconds per warm call in process at
# the default thresholds, the median of 5 on one CPU with BLAS on one thread
# (the middle of three such runs), were witness8 0.33, inj-oracle 0.13,
# theorem-re 0.11, witness88 0.053, cli-roundtrip 0.029, kernel 0.027,
# duality 0.026, mazur-id 0.012, hankel-shadow 0.011 and besov 0.009.
# Started longest first, the short suites fill in behind witness8; in table
# order witness8 would start seventh and end last.
_COST_ORDER = ("witness8", "inj-oracle", "theorem-re", "witness88", "cli-roundtrip",
               "kernel", "duality", "mazur-id", "hankel-shadow", "besov")


def _run_one(name: str, seed: int, th: dict) -> SuiteReport:
    """One suite's report; a pool worker calls it by name, so it is module-level."""
    return SuiteReport(name, SUITES[name](seed, th))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_suites(names, seed: int = 0, thresholds: dict | None = None) -> list[SuiteReport]:
    """One SuiteReport per name, in the order asked.  The overrides are merged
    once and every name is checked before any suite runs.

    Several suites on a machine with more than one usable CPU run in
    min(suites, usable CPUs) worker processes forked from the caller, the
    heaviest suite first; each worker's peak memory is about one suite's
    peak (41-44 MB at the defaults, measured).  A suite is a pure function of
    (seed, th), so the reports are the ones an in-process run gives, byte for
    byte.  One suite, one CPU, no fork, or other threads running in the
    caller (a fork would copy their locks mid-use) runs the suites in process,
    one after another.  Every worker has exited when this returns or raises;
    a suite's exception reaches the caller with its class and message.
    """
    th = merged_thresholds(thresholds)
    names = list(names)
    for name in names:
        if name not in SUITES:
            raise InvalidParameter(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    workers = min(len(names), _usable_cpus())
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_run_one(name, seed, th) for name in names]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {i: pool.submit(_run_one, names[i], seed, th)
                   for i in sorted(range(len(names)), key=lambda i: _COST_ORDER.index(names[i]))}
        try:
            return [futures[i].result() for i in range(len(names))]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_suite(name: str, seed: int = 0, thresholds: dict | None = None) -> SuiteReport:
    return run_suites([name], seed, thresholds)[0]
