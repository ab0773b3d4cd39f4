"""Command-line front end.

Every run writes a JSON (or CSV) report that embeds its own run
configuration, so any output file can be reproduced byte-for-byte by
re-executing the embedded argv.  Exit codes: 0 success, 1 domain error in
the inputs, 2 verification failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from . import verify
from .core import (
    CoeffSeq,
    _row_chunks,
    read_coeff_csv,
    read_matrix_csv,
    write_coeff_csv,
    write_matrix_csv,
)
from .dyadic import (
    DEFAULT_OVERSAMPLE,
    besov_detail,
    dyadic_kernel,
    dyadic_profile,
    hard_block_bound,
)
from .errors import DomainError, InvalidParameter
from .extremal import (
    assemble_majorant,
    flat_polynomial,
    problem88_witness,
    psi,
    weighted_moment,
)
from .mazur import antidiagonal_average, cesaro_product, problem8_witness
from .tensornorm import injective_norm_exact, injective_norm_search, projective_bracket, v2_profile

class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _options(args) -> dict:
    return {k: _jsonable(v) for k, v in sorted(vars(args).items()) if k != "command"}


def _run_config(args, argv) -> dict:
    return {"subcommand": args.command, "argv": list(argv), "options": _options(args)}


def _write_json(fh, doc: dict) -> None:
    """Write json.dumps(doc, indent=2) and a newline.  A CoeffSeq under the
    top-level key "sequence" is written as the list of its nonzero [k, value]
    or [k, re, im] rows, chunk by chunk, never as one list or string."""
    seq = doc.get("sequence")
    if not isinstance(seq, CoeffSeq):
        fh.write(json.dumps(_jsonable(doc), indent=2) + "\n")
        return
    text = json.dumps(_jsonable(dict(doc, sequence=[])), indent=2) + "\n"
    key = '\n  "sequence":'
    head, _, tail = text.partition(key + " []")
    row = "\n    [\n      %d,\n      %s\n    ]"
    if seq.is_complex:
        row = "\n    [\n      %d,\n      %s,\n      %s\n    ]"
    fh.write(head + key)
    sep = " ["
    for rows, fields in _row_chunks(seq, pin_last=False):
        fh.write((sep + row + ("," + row) * (rows - 1)) % fields)
        sep = ","
    fh.write((" []" if sep == " [" else "\n  ]") + tail)


def _csv_output(args, has_csv: bool = False) -> bool:
    fmt = args.format or ("csv" if (args.out or "").endswith(".csv") else "json")
    if fmt == "csv" and not has_csv:
        raise InvalidParameter(f"{args.command} has no CSV form; use --format json")
    return fmt == "csv"


def _emit(args, argv, payload: dict, csv_payload=None) -> int:
    """Write the report; csv_payload is a CoeffSeq or (header, rows) table."""
    cfg = _run_config(args, argv)
    if not _csv_output(args, csv_payload is not None):
        doc = {"run_config": cfg}
        doc.update(payload)
        out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
        with out as fh:
            _write_json(fh, doc)
        return 0
    if not args.out:
        raise InvalidParameter("CSV output needs --out")
    comment = json.dumps(_jsonable(cfg))
    if isinstance(csv_payload, CoeffSeq):
        write_coeff_csv(args.out, csv_payload, comment=comment)
    else:
        header, rows = csv_payload
        write_matrix_csv(args.out, rows, comment=comment, header=header)
    return 0


def _maybe_export(args, seq: CoeffSeq, argv) -> None:
    if args.coeffs_out:
        write_coeff_csv(args.coeffs_out, seq, comment=json.dumps(_jsonable(_run_config(args, argv))))


# ---------------------------------------------------------------------------
# Handlers.
# ---------------------------------------------------------------------------


def _cmd_wn(args, argv):
    seq = dyadic_kernel(args.n)
    payload = {"n": args.n, "length": len(seq), "sequence": seq}
    return _emit(args, argv, payload, csv_payload=seq)


def _cmd_besov(args, argv):
    f = read_coeff_csv(args.input)
    q = getattr(args, "q", None)  # profile has no --q: no norm, the largest block bound
    if q is None:
        prof = dyadic_profile(f, args.s, args.p, args.nmax, args.oversample)
        norm, bound = None, float(prof.error_bounds.max())
    else:
        norm, bound, prof = besov_detail(f, args.s, args.p, q, args.nmax, args.oversample)
    payload = {
        "s": prof.s,
        "p": prof.p,
        "q": q,
        "nmax": prof.nmax,
        "grid": prof.grid,
        "values": prof.values,
        "norm": norm,
        "error_bound": bound,
        "truncated": prof.truncated,
    }
    rows = list(zip(range(prof.nmax + 1), prof.values.tolist()))
    return _emit(args, argv, payload, csv_payload=("n,value", rows))


def _cmd_inj_norm(args, argv):
    Q = read_matrix_csv(args.input)
    if args.method == "exact":
        value, x, y = injective_norm_exact(Q)
        evals = None
    else:
        out = injective_norm_search(Q, args.budget, args.seed)
        value, x, y, evals = out.value, out.x, out.y, out.evaluations
    payload = {
        "value": value,
        "method": args.method,
        "x": x.entries.tolist(),
        "y": y.entries.tolist(),
        "evaluations": evals,
    }
    return _emit(args, argv, payload)


def _bracket_json(br) -> dict:
    return {
        "lower": br.lower,
        "upper": br.upper,
        "lower_cert": br.lower_certificate,
        "upper_cert": [{"a": a.tolist(), "b": b.tolist()} for a, b in br.upper_certificate],
        "strategies": list(br.strategies),
    }


def _cmd_proj_norm(args, argv):
    Q = read_matrix_csv(args.input)
    br = projective_bracket(Q, args.budget, args.seed)
    return _emit(args, argv, _bracket_json(br))


def _cmd_v2(args, argv):
    Q = read_matrix_csv(args.input)
    brackets = v2_profile(Q, args.nmax)
    payload = {"nmax": args.nmax, "brackets": [_bracket_json(b) for b in brackets]}
    return _emit(args, argv, payload)


def _cmd_mazur_a(args, argv):
    Q = read_matrix_csv(args.input)
    seq = antidiagonal_average(Q)
    payload = {"length": len(seq), "sequence": seq}
    return _emit(args, argv, payload, csv_payload=seq)


def _cmd_mazur_b(args, argv):
    x = read_coeff_csv(args.input)
    y = read_coeff_csv(args.input2)
    seq = cesaro_product(x, y)
    payload = {"length": len(seq), "sequence": seq}
    return _emit(args, argv, payload, csv_payload=seq)


def _cmd_witness8(args, argv):
    z, report = problem8_witness(args.nmax, args.seed, args.sign_mode, oversample=args.oversample)
    _maybe_export(args, z, argv)
    payload = {
        "params": report.params,
        "blocks": report.blocks,
        "fit": report.fit,
        "flags": report.flags,
    }
    rows = [(b["n"], b["l1"]) for b in report.blocks]
    return _emit(args, argv, payload, csv_payload=("n,value", rows))


def _cmd_witness88(args, argv):
    alpha, params = problem88_witness(args.t, args.nmax)
    _maybe_export(args, alpha, argv)
    payload = {
        "t": params.t,
        "g": params.g,
        "nmax": params.nmax,
        "length": len(alpha),
        "block_bound": hard_block_bound(alpha, params.nmax),
    }
    return _emit(args, argv, payload, csv_payload=alpha)


def _cmd_flatpoly(args, argv):
    beta = read_coeff_csv(args.input)
    f, report = flat_polynomial(beta, args.seed, args.budget, args.oversample)
    _maybe_export(args, f, argv)
    return _emit(args, argv, asdict(report), csv_payload=f)


def _cmd_lkk(args, argv):
    alpha = read_coeff_csv(args.input)
    phi, report = assemble_majorant(alpha, args.seed, args.budget, args.oversample)
    _maybe_export(args, phi, argv)
    return _emit(args, argv, asdict(report), csv_payload=phi)


def _cmd_moment(args, argv):
    gamma = read_coeff_csv(args.input)
    rep = weighted_moment(gamma, args.t, args.beta, args.kmax)
    payload = {
        "t": rep.t,
        "beta": rep.beta,
        "kmax": args.kmax,
        "checkpoints": [[int(K), S] for K, S in rep.checkpoints],
        "diagnosis": asdict(rep.diagnosis),
    }
    rows = [(int(K), S) for K, S in rep.checkpoints]
    return _emit(args, argv, payload, csv_payload=("k,value", rows))


def _cmd_psi(args, argv):
    return _emit(args, argv, {"t": args.t, "value": psi(args.t)})


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise InvalidParameter(f"override must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _cmd_verify(args, argv):
    _csv_output(args)  # refuse a CSV report before any suite runs
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = verify.run_suites(names, seed=args.seed, thresholds=_parse_overrides(args.override))
    for rep in reports:
        for case in rep.cases:
            tag = "PASS" if case.passed else "FAIL"
            print(f"[{tag}] {rep.suite}/{case.name}: {case.detail}")
    all_passed = all(r.passed for r in reports)
    payload = {
        "suites": [
            {
                "suite": r.suite,
                "passed": r.passed,
                "cases": [asdict(c) for c in r.cases],
            }
            for r in reports
        ],
        "passed": all_passed,
    }
    rc = _emit(args, argv, payload) if args.out else 0
    return rc if all_passed else 2


# ---------------------------------------------------------------------------
# The command table.  FLAGS defines every flag once; each COMMANDS row names
# a subcommand's handler, help, flags, the top-level keys of its JSON report
# and an example argv that the cli-roundtrip suite runs ({f}, {m} and {x}
# stand for its coefficient, matrix and all-ones input files).
# ---------------------------------------------------------------------------

FLAGS = {
    "--n": dict(type=int, required=True),
    "--input": dict(required=True),
    "--input2": dict(required=True),
    "--s": dict(type=float, required=True),
    "--p": dict(type=float, required=True),
    "--q": dict(type=float, required=True),
    "--nmax": dict(type=int, required=True),
    "--t": dict(type=float, required=True),
    "--beta": dict(type=float, required=True),
    "--kmax": dict(type=int, required=True),
    "--method": dict(choices=("exact", "search"), default="exact"),
    "--sign-mode": dict(choices=("random", "rudin_shapiro"), default="random"),
    "--suite": dict(choices=tuple(verify.SUITES) + ("all",), default="all"),
    "--override": dict(action="append", default=None, metavar="KEY=VALUE",
                       help="threshold override; repeatable"),
    "--seed": dict(type=int, default=0),
    "--budget": dict(type=int, default=4096),
    "--oversample": dict(type=int, default=DEFAULT_OVERSAMPLE),
    "--coeffs-out": dict(default=None, help="also export the constructed sequence as CSV"),
    "--out": dict(default=None, help="output path (stdout if omitted)"),
    "--format": dict(choices=("json", "csv"), default=None,
                     help="default: csv when --out ends in .csv, else json"),
}


class Command(NamedTuple):
    """One subcommand; flags, schema and example are space-separated."""

    handler: Callable
    help: str
    flags: str
    schema: str
    example: str


COMMANDS = {
    "wn": Command(_cmd_wn, "coefficients of the n-th dyadic kernel",
                  "--n", "n length sequence", "--n 2"),
    "besov": Command(_cmd_besov, "weighted dyadic-profile norm of a polynomial",
                     "--input --s --p --q --nmax --oversample",
                     "s p q nmax grid values norm error_bound truncated",
                     "--input {f} --s 1 --p inf --q 1 --nmax 4"),
    "profile": Command(_cmd_besov, "dyadic block profile of a polynomial",
                       "--input --s --p --nmax --oversample",
                       "s p q nmax grid values norm error_bound truncated",
                       "--input {f} --s 0 --p 1 --nmax 4"),
    "inj-norm": Command(_cmd_inj_norm, "bilinear sign-form norm of a matrix",
                        "--input --method --seed --budget", "value method x y evaluations",
                        "--input {m}"),
    "proj-norm": Command(_cmd_proj_norm, "bracket for the decomposition norm",
                         "--input --seed --budget", "lower upper lower_cert upper_cert strategies",
                         "--input {m}"),
    "v2": Command(_cmd_v2, "brackets for leading corner truncations",
                  "--input --nmax", "nmax brackets", "--input {m} --nmax 1"),
    "mazur-a": Command(_cmd_mazur_a, "antidiagonal averages of a matrix",
                       "--input", "length sequence", "--input {m}"),
    "mazur-b": Command(_cmd_mazur_b, "Cesaro-normalized Cauchy product",
                       "--input --input2", "length sequence", "--input {x} --input2 {x}"),
    "witness8": Command(_cmd_witness8, "decaying sequence with growing block norms",
                        "--nmax --sign-mode --seed --oversample --coeffs-out",
                        "params blocks fit flags", "--nmax 6 --seed 1 --sign-mode rudin_shapiro"),
    "witness88": Command(_cmd_witness88, "slow-decay block-constant target sequence",
                         "--t --nmax --coeffs-out", "t g nmax length block_bound",
                         "--t 0.5 --nmax 8"),
    "flatpoly": Command(_cmd_flatpoly, "signs for prescribed coefficient moduli",
                        "--input --seed --budget --oversample --coeffs-out",
                        "targets_l2 sup_norm ratio method seed descent_iterations",
                        "--input {f} --seed 2"),
    "lkk": Command(_cmd_lkk, "assemble a coefficient majorant block by block",
                   "--input --seed --budget --oversample --coeffs-out",
                   "k_achieved besov_value chain_bound block_bound blocks fidelity_exact",
                   "--input {f} --seed 2"),
    "moment": Command(_cmd_moment, "weighted coefficient moments at dyadic checkpoints",
                      "--input --t --beta --kmax", "t beta kmax checkpoints diagnosis",
                      "--input {f} --t 1 --beta 0.5 --kmax 8"),
    "psi": Command(_cmd_psi, "regime boundary exponent", "--t", "t value", "--t 1"),
    "verify": Command(_cmd_verify, "run verification suites", "--suite --override --seed",
                      "suites passed", "--suite besov"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="scottish-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for flag in cmd.flags.split() + ["--out", "--format"]:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 64
    try:
        return COMMANDS[args.command].handler(args, argv)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


# ---------------------------------------------------------------------------
# Schema, rerun, and exit-code self-check (the cli-roundtrip suite body).
# ---------------------------------------------------------------------------


def rerun_config_argv(path: str) -> list:
    """Extract the embedded argv from a JSON or CSV report."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if first.startswith("# "):
            return json.loads(first[2:])["argv"]
        doc = json.loads(first + fh.read())
        return doc["run_config"]["argv"]


def _run_quiet(argv) -> int:
    """run() with stdout/stderr swallowed; nested output would confuse the
    parent verify report."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


def self_check(seed: int = 0) -> list:
    cases = []

    def check(name, ok, detail):
        cases.append(verify.CaseResult(name, bool(ok), detail))

    with tempfile.TemporaryDirectory(prefix="scottish-lab-") as tmp:
        fcsv = os.path.join(tmp, "f.csv")
        seq = np.zeros(9)
        seq[2] = 1.0
        seq[8] = 1.0
        write_coeff_csv(fcsv, CoeffSeq(seq))
        mcsv = os.path.join(tmp, "m.csv")
        with open(mcsv, "w", encoding="utf-8") as fh:
            fh.write("1.0,1.0\n1.0,-1.0\n")
        xcsv = os.path.join(tmp, "x.csv")
        write_coeff_csv(xcsv, CoeffSeq(np.ones(8)))

        files = {"f": fcsv, "m": mcsv, "x": xcsv}
        invocations = {
            name: [name] + [arg.format(**files) for arg in cmd.example.split()]
            for name, cmd in COMMANDS.items()
        }
        for name, argv in invocations.items():
            out = os.path.join(tmp, f"{name}.json")
            rc = _run_quiet(argv + ["--out", out])
            ok = rc == 0 and os.path.exists(out)
            keys_ok = False
            if ok:
                with open(out, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                expected = set(COMMANDS[name].schema.split()) | {"run_config"}
                keys_ok = set(doc.keys()) == expected
            check(f"schema-{name}", ok and keys_ok, f"rc={rc}, keys match documented schema: {keys_ok}")

        for name in ("psi", "witness8"):
            out = os.path.join(tmp, f"{name}-rerun.json")
            rc = _run_quiet(invocations[name] + ["--out", out])
            with open(out, "rb") as fh:
                before = fh.read()
            argv = rerun_config_argv(out)
            os.unlink(out)
            rc2 = _run_quiet(argv)
            with open(out, "rb") as fh:
                after = fh.read()
            check(f"rerun-{name}", rc == 0 and rc2 == 0 and before == after,
                  f"byte-identical rerun from embedded config: {before == after}")

        wn_csv = os.path.join(tmp, "w2.csv")
        rc = _run_quiet(["wn", "--n", "2", "--out", wn_csv])
        with open(wn_csv, "r", encoding="utf-8") as fh:
            data_rows = [ln for ln in fh if ln.strip() and not ln.startswith("#")][1:]
        check("wn-csv-sparse", rc == 0 and len(data_rows) == 5,
              f"W_2 CSV carries {len(data_rows)} coefficient rows (want 5)")

        rt = read_coeff_csv(wn_csv)
        check("csv-round-trip", rt == dyadic_kernel(2), "kernel CSV reads back bit-identical")

        check("exit-usage", _run_quiet(["besov", "--nonsense"]) == 64, "unknown flag exits 64")
        check("exit-domain", _run_quiet(["psi", "--t", "-1"]) == 1, "domain error exits 1")
        rc_ok = _run_quiet(["verify", "--suite", "besov", "--seed", str(seed)])
        check("exit-verify-pass", rc_ok == 0, f"passing suite exits {rc_ok}")
        rc_bad = _run_quiet(["verify", "--suite", "besov", "--override", "besov.rel_tol=0"])
        check("exit-verify-fail", rc_bad == 2, f"violated threshold exits {rc_bad}")

    return cases
