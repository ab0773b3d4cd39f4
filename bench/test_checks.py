"""Each output check must accept the program's real output and reject a
deliberately corrupted copy of it; the tracer must see calls between modules
and put every function back.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from scottish_lab import cli, dyadic, extremal, mazur, tensornorm  # noqa: E402
from scottish_lab.core import CoeffSeq, DenseMatrix, hankel_matrix  # noqa: E402


def rejects(fn, *args):
    with pytest.raises(CheckError):
        fn(*args)


def bumped(values, i, factor=1.0 + 1e-6):
    out = np.array(values, dtype=float)
    out[i] *= factor
    return out


RNG = np.random.default_rng(7)
F = RNG.standard_normal(200)
FC = RNG.standard_normal(100) + 1j * RNG.standard_normal(100)


@pytest.mark.parametrize("c, p", [(F, 2.0), (FC, 2.0), (F, 1.0), (F, math.inf), (FC, 1.0)])
def test_profile(c, p):
    prof = dyadic.dyadic_profile(CoeffSeq(c), 0.5, p, 7)
    checks.check_profile(c, 0.5, p, prof.values, prof.error_bounds)
    rejects(checks.check_profile, c, 0.5, p, bumped(prof.values, 3))
    # The top block, the one whose cheap range check is widest.
    rejects(checks.check_profile, c, 0.5, p, bumped(prof.values, 7, 2.0), prof.error_bounds)
    rejects(checks.check_profile, c, 0.5, p, bumped(prof.values, 7, 1.0 + 1e-6))


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_profile_wrong_norm_or_grid(p):
    prof = dyadic.dyadic_profile(CoeffSeq(F), 0.0, p, 7)
    l2 = dyadic.dyadic_profile(CoeffSeq(F), 0.0, 2.0, 7)
    rejects(checks.check_profile, F, 0.0, p, l2.values, prof.error_bounds)
    coarse = dyadic.dyadic_profile(CoeffSeq(F), 0.0, p, 7, oversample=2)
    rejects(checks.check_profile, F, 0.0, p, coarse.values, prof.error_bounds)


def test_aggregate_and_grid():
    norm, _, prof = dyadic.besov_detail(CoeffSeq(F), 1.0, 2.0, 2.0, 7)
    checks.check_aggregate(prof.values, 2.0, norm)
    rejects(checks.check_aggregate, prof.values, 2.0, norm * (1 + 1e-6))
    grid = dyadic.grid_values(CoeffSeq(FC))
    js = [0, 5, grid.size - 1]
    checks.check_grid_values(FC, grid, js)
    bad = grid.copy()
    bad[5] += 1e-3
    rejects(checks.check_grid_values, FC, bad, js)


def test_witnesses():
    _, rs = mazur.problem8_witness(9, sign_mode="rudin_shapiro")
    checks.check_rs_blocks(rs.blocks)
    low = [dict(b) for b in rs.blocks]
    low[6]["l1"] = 0.9 * 2 ** 3 / (7 * math.sqrt(2))
    rejects(checks.check_rs_blocks, low)

    z, rep = mazur.problem8_witness(9, seed=3)
    checks.check_random_witness(z.coeffs, rep.blocks)
    bad = z.coeffs.copy()
    bad[40] *= 1.5
    rejects(checks.check_random_witness, bad, rep.blocks)
    wrong = [dict(b) for b in rep.blocks]
    wrong[4]["l2"] *= 1.01
    rejects(checks.check_random_witness, z.coeffs, wrong)

    d = mazur.range_diagnostic(z, 9)
    checks.check_range(z.coeffs, d.limit, d.classification, d.classification)
    rejects(checks.check_range, z.coeffs, d.limit + 1e-3, d.classification, d.classification)
    rejects(checks.check_range, z.coeffs, d.limit, "bounded-flat", "growing")


def test_targets_majorant_flat():
    alpha, _ = extremal.problem88_witness(0.5, 8)
    checks.check_witness88_targets(alpha.coeffs, 0.5, 8)
    rejects(checks.check_witness88_targets, bumped(alpha.coeffs, 100), 0.5, 8)
    assert np.allclose(workloads.witness88_targets(0.5, 8), alpha.coeffs, rtol=1e-12, atol=0)

    phi, rep = extremal.assemble_majorant(alpha, seed=1)
    report = vars(rep)
    checks.check_majorant(alpha.coeffs, phi.coeffs, report)
    rejects(checks.check_majorant, alpha.coeffs, bumped(phi.coeffs, 9), report)
    rejects(checks.check_majorant, alpha.coeffs, phi.coeffs, {**report, "fidelity_exact": False})
    rejects(checks.check_majorant, alpha.coeffs, phi.coeffs,
            {**report, "besov_value": 2 * report["chain_bound"]})

    beta = RNG.uniform(0.5, 1.5, 24)
    f, frep = extremal.flat_polynomial(CoeffSeq(beta), seed=2, descent_budget=30)
    report = vars(frep)
    checks.check_flat(beta, f.coeffs, report)
    rejects(checks.check_flat, beta, bumped(f.coeffs, 2), report)
    rejects(checks.check_flat, beta, f.coeffs, {**report, "sup_norm": 0.5 * report["targets_l2"]})
    rejects(checks.check_flat, beta, f.coeffs, {**report, "ratio": 1.01 * report["ratio"]})


def test_signform():
    A = RNG.integers(-3, 4, (9, 5)).astype(float)
    value, x, y = tensornorm.injective_norm_exact(DenseMatrix(A))
    checks.check_signform(A, value, x.entries, y.entries, exact=True)
    assert checks.signform_oracle(A) == checks.signform_oracle(A.T) == value
    rejects(checks.check_signform, A, value + 1, x.entries, y.entries, True)
    other = np.ones(5)
    weaker = abs(float(x.entries @ A @ other))
    if weaker != value:  # a consistent certificate that is not the maximum
        rejects(checks.check_signform, A, weaker, x.entries, other, True)
    rejects(checks.check_signform, A, value, x.entries * 0.5, y.entries, False)


def test_bracket_and_corners():
    Q = hankel_matrix(CoeffSeq(workloads.witness_symbol(RNG, 15)), 8)
    A = Q.entries
    brs = tensornorm.v2_profile(Q, 7)
    rng = np.random.default_rng(0)
    for n, br in enumerate(brs):
        checks.check_bracket(A[: n + 1, : n + 1], br.lower, br.upper, br.lower_certificate,
                             br.upper_certificate, rng)
    br = brs[-1]
    pairs = [(a.copy(), b.copy()) for a, b in br.upper_certificate]
    pairs[0][1][0] += 0.5
    rejects(checks.check_bracket, A, br.lower, br.upper, br.lower_certificate, pairs, rng)
    rejects(checks.check_bracket, A, br.lower, br.upper * 0.9, br.lower_certificate,
            br.upper_certificate, rng)
    cert = dict(br.lower_certificate, denominator=br.lower_certificate["denominator"] * 0.5)
    rejects(checks.check_bracket, A, br.lower, br.upper, cert, br.upper_certificate, rng)
    rejects(checks.check_bracket, A, br.lower * 1.01, br.upper, br.lower_certificate,
            br.upper_certificate, rng)

    lowers, uppers = [b.lower for b in brs], [b.upper for b in brs]
    checks.check_corner_monotone(lowers, uppers)
    rejects(checks.check_corner_monotone, [uppers[-1] * 2] + lowers[1:], uppers)


def test_averages_moment_psi():
    M = RNG.standard_normal((6, 4))
    checks.check_antidiagonal(M, mazur.antidiagonal_average(DenseMatrix(M)).coeffs)
    rejects(checks.check_antidiagonal, M, bumped(mazur.antidiagonal_average(DenseMatrix(M)).coeffs, 2))

    x, y = RNG.standard_normal(300), RNG.standard_normal(200)
    seq = mazur.cesaro_product(CoeffSeq(x), CoeffSeq(y)).coeffs
    checks.check_cesaro(x, y, seq)
    rejects(checks.check_cesaro, x, y, bumped(seq, 50, 1.01))

    alpha, _ = extremal.problem88_witness(0.5, 6)
    rep = extremal.weighted_moment(alpha, 0.5, -0.25, 1 << 7)
    checks.check_moment(alpha.coeffs, 0.5, -0.25, rep.checkpoints)
    bad = [(K, S * (1.001 if K == 16 else 1.0)) for K, S in rep.checkpoints]
    rejects(checks.check_moment, alpha.coeffs, 0.5, -0.25, bad)

    checks.check_psi(1.25, extremal.psi(1.25))
    rejects(checks.check_psi, 1.25, extremal.psi(1.25) + 1e-6)


def _scale_last_row(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    k, v = lines[-1].split(",")
    lines[-1] = f"{k},{float(v) * 1.001!r}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _scale_v2_upper(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["brackets"][3]["upper"] *= 1.01
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("name, corrupt", [("wn", _scale_last_row), ("v2", _scale_v2_upper),
                                           ("witness88", _scale_last_row)])
def test_cli_outputs(tmp_path, monkeypatch, name, corrupt):
    monkeypatch.setattr(workloads, "CLI_BIG_NMAX", 6)
    calls, inp = workloads.cli_round(np.random.default_rng(1), str(tmp_path))
    argv = dict(calls)[name]
    assert cli.run(argv) == 0
    check = lambda: workloads.cli_check(name, argv, inp, str(tmp_path), np.random.default_rng(0))  # noqa: E731
    check()
    corrupt(argv[argv.index("--out") + 1])
    rejects(check)


def test_rerun_check(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    out = str(tmp_path / "psi.json")
    assert cli.run(["psi", "--t", "0.75", "--out", out]) == 0
    worker.rerun_identical(out)
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["value"] = 0.0
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    rejects(worker.rerun_identical, out)


def test_tracer_wraps_every_binding_and_restores():
    tr = tracing.Tracer()
    before = extremal.lp_norm_circle
    restore = tracing.install(tr)
    try:
        assert extremal.lp_norm_circle is not before
        assert dyadic.lp_norm_circle is extremal.lp_norm_circle
        beta = np.random.default_rng(3).uniform(0.5, 1.5, 16)
        extremal.flat_polynomial(CoeffSeq(beta), seed=1, descent_budget=20)
    finally:
        restore()
    assert extremal.lp_norm_circle is before and dyadic.lp_norm_circle is before
    assert tr.counters["extremal.descent_evals"] == 19
    assert tr.calls["dyadic.grid_values"] == 20
    names = [tr.names[s[0]] for s in tr.spans]
    parents = {tr.names[s[0]]: tr.names[tr.spans[s[3]][0]] for s in tr.spans if s[3] >= 0}
    assert names[0] == "extremal.flat_polynomial"
    assert parents["dyadic.grid_values"] == "dyadic.lp_norm_detail"
    total = sum(tr.self_time.values())
    top = tr.spans[0]
    assert abs(total - (top[2] - top[1])) < 1e-9  # self times partition the outer span
