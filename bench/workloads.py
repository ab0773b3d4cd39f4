"""The four workloads: how each job's inputs are made from its seed, which
program calls one job makes, and how its outputs are checked.

A job is one round of the same operations at the same sizes with fresh
inputs, so the median job is the same kind of job in every run.  The
library is reached through module attributes at call time, so the wrappers
of a traced run see every call.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import checks

# spectral: a real polynomial of length 2^15 profiled up to block 15, whose
# grids run from 16 points to 2^19 complex values (8 MiB, past the 4 MiB L2);
# a complex one of length 2^12 stays within 2^16 points (1 MiB).
SPECTRAL_NMAX = 15
COMPLEX_NMAX = 12
WITNESS_NMAX = 13
RS_NMAX = 12  # at 12 and above the Rudin-Shapiro witness also profiles itself
MAJORANT_NMAX = 12
FLAT_LEN = 64
FLAT_BUDGET = 200

# signform
SQUARE_J = 22
HANKEL_J = 20
ORACLE_J = 16
SEARCH_J = 40  # past the enumeration cap of 26
HILBERT_J = 12
V2_J = 14
# 30 rows and 3 columns: refused by the exact method although its transpose
# is tiny.  The matrix is fixed so that it fails in every run and every seed.
WIDE_FAIL = np.random.default_rng(303).integers(-3, 4, (30, 3)).astype(float)


def job_rng(seed: int, job: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, job]))


class Ops:
    """Runs operations, counting those attempted and those that raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}

    def __call__(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            key = f"{name}: {type(exc).__name__}: {exc}"
            self.errors[key] = self.errors.get(key, 0) + 1
            return None


def witness_symbol(rng, length: int) -> np.ndarray:
    """Problem-8 style symbol: modulus 1/(n+1) on block n, random signs."""
    z = np.zeros(length)
    for k in range(1, length):
        z[k] = 1.0 / (k.bit_length())
    return z * rng.choice([-1.0, 1.0], length)


def witness88_targets(t: float, nmax: int) -> np.ndarray:
    """The Problem-88 targets from their closed form."""
    alpha = np.zeros(1 << (nmax + 1))
    for n in range(nmax + 1):
        alpha[1 << n : 1 << (n + 1)] = checks.witness88_target(t, n)
    return alpha


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def spectral_inputs(rng) -> dict:
    return {
        "f": rng.standard_normal(1 << SPECTRAL_NMAX),
        "fc": rng.standard_normal(1 << COMPLEX_NMAX) + 1j * rng.standard_normal(1 << COMPLEX_NMAX),
        "beta": rng.uniform(0.5, 1.5, FLAT_LEN),
        "t": float(rng.uniform(0.3, 0.8)),
        "seed": int(rng.integers(0, 1 << 62)),
    }


def spectral_job(lab, inp, ops: Ops) -> dict:
    core, dyadic, mazur, extremal = lab.core, lab.dyadic, lab.mazur, lab.extremal
    f = core.CoeffSeq(inp["f"])
    out = {
        "p1": ops("profile-p1", dyadic.dyadic_profile, f, 0.0, 1.0, SPECTRAL_NMAX),
        "p2": ops("besov-p2", dyadic.besov_detail, f, 0.5, 2.0, 2.0, SPECTRAL_NMAX),
        "pinf": ops("besov-pinf", dyadic.besov_detail, f, 1.0, math.inf, 1.0, SPECTRAL_NMAX),
        "complex": ops("profile-complex", dyadic.dyadic_profile,
                       core.CoeffSeq(inp["fc"]), 0.0, 2.0, COMPLEX_NMAX),
        "random": ops("witness8-random", mazur.problem8_witness, WITNESS_NMAX,
                      seed=inp["seed"], sign_mode="random"),
        "rs": ops("witness8-rs", mazur.problem8_witness, RS_NMAX, sign_mode="rudin_shapiro"),
        "majorant": ops("majorant", lambda: extremal.assemble_majorant(
            extremal.problem88_witness(inp["t"], MAJORANT_NMAX)[0], seed=inp["seed"])),
        "flat": ops("flatpoly", extremal.flat_polynomial, core.CoeffSeq(inp["beta"]),
                    seed=inp["seed"], descent_budget=FLAT_BUDGET),
    }
    if out["random"] is not None:
        out["range"] = ops("range", mazur.range_diagnostic, out["random"][0], WITNESS_NMAX)
    return out


def spectral_check(lab, inp, out, rng) -> None:
    f, fc = inp["f"], inp["fc"]
    if out["p1"] is not None:
        checks.check_profile(f, 0.0, 1.0, out["p1"].values, out["p1"].error_bounds)
    if out["p2"] is not None:
        norm, _, prof = out["p2"]
        checks.check_profile(f, 0.5, 2.0, prof.values)
        checks.check_aggregate(prof.values, 2.0, norm)
    if out["pinf"] is not None:
        norm, _, prof = out["pinf"]
        checks.check_profile(f, 1.0, math.inf, prof.values, prof.error_bounds)
        checks.check_aggregate(prof.values, 1.0, norm)
    if out["complex"] is not None:
        checks.check_profile(fc, 0.0, 2.0, out["complex"].values)
        grid = lab.dyadic.grid_values(lab.core.CoeffSeq(fc))
        checks.check_grid_values(fc, grid, [0, 1, grid.size // 3, grid.size - 1])
    if out["random"] is not None:
        z, rep = out["random"]
        checks.check_random_witness(z.coeffs, rep.blocks)
    if out["rs"] is not None:
        checks.check_rs_blocks(out["rs"][1].blocks)
    if out["majorant"] is not None:
        phi, rep = out["majorant"]
        alpha = witness88_targets(inp["t"], MAJORANT_NMAX)
        checks.check_majorant(alpha, phi.coeffs, vars(rep))
    if out["flat"] is not None:
        g, rep = out["flat"]
        checks.check_flat(inp["beta"], g.coeffs, vars(rep))
    if out.get("range") is not None:
        d = out["range"]
        checks.check_range(out["random"][0].coeffs, d.limit, d.classification, "growing")


# ---------------------------------------------------------------------------
# signform
# ---------------------------------------------------------------------------


def signform_inputs(rng) -> dict:
    return {
        "square": rng.integers(-3, 4, (SQUARE_J, SQUARE_J)).astype(float),
        "hankel_sym": rng.integers(-5, 6, 2 * HANKEL_J - 1).astype(float),
        "tall": rng.integers(-3, 4, (24, 3)).astype(float),
        "oracle_sym": witness_symbol(rng, 2 * ORACLE_J - 1),
        "gauss": rng.standard_normal((SEARCH_J, SEARCH_J)),
        "v2_sym": witness_symbol(rng, 2 * V2_J - 1),
        "t": float(rng.uniform(0.3, 0.8)),
        "seed": int(rng.integers(0, 1 << 62)),
    }


def signform_job(lab, inp, ops: Ops) -> dict:
    core, tn, extremal = lab.core, lab.tensornorm, lab.extremal
    M = core.DenseMatrix

    def hankel(sym, size):
        return core.hankel_matrix(core.CoeffSeq(sym), size)

    def hankel_exact(sym, size):
        Q = hankel(sym, size)
        return Q, tn.injective_norm_exact(Q)

    def hilbert_bracket():
        Q = hankel(1.0 / np.arange(1.0, 2 * HILBERT_J), HILBERT_J)
        return Q, tn.projective_bracket(Q)

    def witness_bracket():
        Q = hankel(extremal.problem88_witness(inp["t"], 4)[0].coeffs, ORACLE_J)
        return Q, tn.projective_bracket(Q)

    def v2():
        Q = hankel(inp["v2_sym"], V2_J)
        return Q, tn.v2_profile(Q, V2_J - 1)

    square = M(inp["square"])
    return {
        "square": ops("exact-square", tn.injective_norm_exact, square),
        "hankel": ops("exact-hankel", hankel_exact, inp["hankel_sym"], HANKEL_J),
        "tall": ops("exact-24x3", tn.injective_norm_exact, M(inp["tall"])),
        "wide_fail": ops("exact-30x3", tn.injective_norm_exact, M(WIDE_FAIL)),
        "oracle": ops("exact-hankel16", hankel_exact, inp["oracle_sym"], ORACLE_J),
        "search_square": ops("search-square", tn.injective_norm_search, square, 2048, inp["seed"]),
        "search_big": ops("search-40", tn.injective_norm_search, M(inp["gauss"]), 4096, inp["seed"]),
        "hilbert": ops("bracket-hilbert", hilbert_bracket),
        "witness": ops("bracket-witness", witness_bracket),
        "v2": ops("v2-witness", v2),
    }


def _check_library_bracket(A, br, rng):
    checks.check_bracket(A, br.lower, br.upper, br.lower_certificate, br.upper_certificate, rng)


def signform_check(lab, inp, out, rng) -> None:
    def exact(A, res):
        value, x, y = res
        checks.check_signform(A, value, x.entries, y.entries, exact=True)

    if out["square"] is not None:
        exact(inp["square"], out["square"])
    if out["search_square"] is not None:
        s = out["search_square"]
        checks.check_signform(inp["square"], s.value, s.x.entries, s.y.entries, exact=False)
        if out["square"] is not None:
            checks.require(s.value <= out["square"][0] * (1 + checks.REL), "search above exact")
    if out["search_big"] is not None:
        s = out["search_big"]
        checks.check_signform(inp["gauss"], s.value, s.x.entries, s.y.entries, exact=False)
    for key in ("hankel", "oracle"):
        if out[key] is not None:
            Q, res = out[key]
            exact(Q.entries, res)
    if out["tall"] is not None:
        exact(inp["tall"], out["tall"])
    if out["wide_fail"] is not None:
        exact(WIDE_FAIL, out["wide_fail"])
    for key in ("hilbert", "witness"):
        if out[key] is not None:
            Q, br = out[key]
            _check_library_bracket(Q.entries, br, rng)
    if out["v2"] is not None:
        Q, brs = out["v2"]
        for n, br in enumerate(brs):
            _check_library_bracket(Q.entries[: n + 1, : n + 1], br, rng)
        checks.check_corner_monotone([b.lower for b in brs], [b.upper for b in brs])


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def verify_inputs(rng) -> dict:
    return {"seed": int(rng.integers(0, 1 << 31))}


def verify_job(lab, inp, ops: Ops) -> dict:
    names = list(lab.verify.SUITES)
    reports = ops("run_suites", lab.verify.run_suites, names, seed=inp["seed"])
    ops.attempted += len(names) - 1  # one operation per suite
    if reports is None:
        ops.failed += len(names) - 1
    return {"reports": reports}


def verify_check(lab, inp, out, rng) -> None:
    if out["reports"] is None:
        return
    bad = [f"{r.suite}/{c.name}: {c.detail}" for r in out["reports"] for c in r.cases if not c.passed]
    checks.require(not bad, f"verify seed {inp['seed']} failed: {bad}")
    checks.require(len(out["reports"]) == len(lab.verify.SUITES), "a suite did not report")


IN_PROCESS = {
    "spectral": (spectral_inputs, spectral_job, spectral_check),
    "signform": (signform_inputs, signform_job, signform_check),
    "verify-all": (verify_inputs, verify_job, verify_check),
}


# ---------------------------------------------------------------------------
# cli-cold: one job is one CLI call; a round is every call below, in order.
# ---------------------------------------------------------------------------

CLI_BIG_NMAX = 18  # witness88 writes 2^19 rows that moment reads back


def _write_coeffs(path, c: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if np.iscomplexobj(c):
            fh.write("k,re,im\n")
            fh.writelines(f"{k},{v.real!r},{v.imag!r}\n" for k, v in enumerate(c.tolist()))
        else:
            fh.write("k,re\n")
            fh.writelines(f"{k},{v!r}\n" for k, v in enumerate(c.tolist()))


def _write_matrix(path, A: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(repr(v) for v in row) + "\n" for row in A.tolist())


def cli_round(rng, workdir: str) -> tuple[list, dict]:
    """Write this round's input files; return the calls and what checks need."""
    p = lambda name: os.path.join(workdir, name)  # noqa: E731
    t = float(rng.uniform(0.3, 0.8))
    inp = {
        "f": rng.standard_normal(1 << 14),
        "fc": rng.standard_normal(1 << 12) + 1j * rng.standard_normal(1 << 12),
        "q": rng.integers(-3, 4, (16, 16)).astype(float),
        "m": rng.standard_normal((64, 48)),
        "x": rng.standard_normal(5000),
        "y": rng.standard_normal(4000),
        "beta": rng.uniform(0.5, 1.5, FLAT_LEN),
        "t": t,
        "psi_t": float(rng.uniform(0.2, 2.0)),
        "seed": int(rng.integers(0, 1 << 31)),
    }
    sym = witness_symbol(rng, 23)
    inp["h"] = sym[np.add.outer(np.arange(12), np.arange(12))]
    inp["alpha"] = witness88_targets(t, MAJORANT_NMAX)
    for key in ("f", "fc", "x", "y", "beta", "alpha"):
        _write_coeffs(p(key + ".csv"), inp[key])
    for key in ("q", "h", "m"):
        _write_matrix(p(key + ".csv"), inp[key])

    s = str(inp["seed"])
    calls = [
        ("psi", ["psi", "--t", repr(inp["psi_t"])]),
        ("wn", ["wn", "--n", "10", "--out", p("w.csv")]),
        ("besov", ["besov", "--input", p("f.csv"), "--s", "0.5", "--p", "2", "--q", "2", "--nmax", "13"]),
        ("profile", ["profile", "--input", p("fc.csv"), "--s", "0", "--p", "2", "--nmax", "12"]),
        ("inj-norm", ["inj-norm", "--input", p("q.csv")]),
        ("proj-norm", ["proj-norm", "--input", p("h.csv")]),
        ("v2", ["v2", "--input", p("h.csv"), "--nmax", "11"]),
        ("mazur-a", ["mazur-a", "--input", p("m.csv")]),
        ("mazur-b", ["mazur-b", "--input", p("x.csv"), "--input2", p("y.csv")]),
        ("witness8", ["witness8", "--nmax", "12", "--sign-mode", "rudin_shapiro", "--seed", s]),
        ("lkk", ["lkk", "--input", p("alpha.csv"), "--seed", s, "--coeffs-out", p("phi.csv")]),
        ("flatpoly", ["flatpoly", "--input", p("beta.csv"), "--seed", s, "--budget", str(FLAT_BUDGET),
                      "--coeffs-out", p("flat.csv")]),
        ("witness88", ["witness88", "--t", repr(t), "--nmax", str(CLI_BIG_NMAX), "--out", p("big.csv"),
                       "--format", "csv"]),
        ("moment", ["moment", "--input", p("big.csv"), "--t", repr(t), "--beta", repr(1.5 * t - 1.0),
                    "--kmax", str(1 << (CLI_BIG_NMAX + 1))]),
    ]
    calls = [(name, argv if "--out" in argv else argv + ["--out", p(name + ".json")])
             for name, argv in calls]
    return calls, inp


def _json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_check(name: str, argv: list, inp: dict, workdir: str, rng) -> None:
    """Check the files one CLI call wrote."""
    p = lambda n: os.path.join(workdir, n)  # noqa: E731
    out = argv[argv.index("--out") + 1]
    if name == "psi":
        checks.check_psi(inp["psi_t"], _json(out)["value"])
    elif name == "wn":
        c = checks.coeffs_from_csv(out)
        checks.require(c.size == 1 << 11, f"W_10 length {c.size}")
        checks.require(np.array_equal(c, checks.kernel_multiplier(10, c.size)), "W_10 coefficients")
    elif name == "besov":
        doc = _json(out)
        checks.check_profile(inp["f"], 0.5, 2.0, doc["values"])
        checks.check_aggregate(doc["values"], 2.0, doc["norm"])
    elif name == "profile":
        checks.check_profile(inp["fc"], 0.0, 2.0, _json(out)["values"])
    elif name == "inj-norm":
        doc = _json(out)
        checks.check_signform(inp["q"], doc["value"], doc["x"], doc["y"], exact=True)
    elif name in ("proj-norm", "v2"):
        doc = _json(out)
        brackets = doc["brackets"] if name == "v2" else [doc]
        for n, br in enumerate(brackets):
            A = inp["h"][: n + 1, : n + 1] if name == "v2" else inp["h"]
            pairs = [(u["a"], u["b"]) for u in br["upper_cert"]]
            checks.check_bracket(A, br["lower"], br["upper"], br["lower_cert"], pairs, rng)
        if name == "v2":
            checks.check_corner_monotone([b["lower"] for b in brackets], [b["upper"] for b in brackets])
    elif name in ("mazur-a", "mazur-b"):
        doc = _json(out)
        seq = np.zeros(doc["length"])
        for k, v in doc["sequence"]:
            seq[k] = v
        if name == "mazur-a":
            checks.check_antidiagonal(inp["m"], seq)
        else:
            checks.check_cesaro(inp["x"], inp["y"], seq)
    elif name == "witness8":
        doc = _json(out)
        checks.check_rs_blocks(doc["blocks"])
        checks.require(doc["flags"].get("profile_growth") is True, "witness8 profile_growth flag")
    elif name == "lkk":
        checks.check_majorant(inp["alpha"], checks.coeffs_from_csv(p("phi.csv")), _json(out))
    elif name == "flatpoly":
        checks.check_flat(inp["beta"], checks.coeffs_from_csv(p("flat.csv")), _json(out))
    elif name == "witness88":
        checks.check_witness88_targets(checks.coeffs_from_csv(out), inp["t"], CLI_BIG_NMAX)
    elif name == "moment":
        alpha = witness88_targets(inp["t"], CLI_BIG_NMAX)
        checks.check_moment(alpha, inp["t"], 1.5 * inp["t"] - 1.0, _json(out)["checkpoints"])
