"""The process that does one run's work (started by run.py, not by hand).

Untraced, it times the jobs of one workload and checks their outputs; it
prints one JSON line with job_p50_s, jobs_per_s, peak_rss_mb and the
operation counts.  Traced, it runs each job twice, untraced and under the
span tracer in alternating order, and prints the per-layer numbers instead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

import numpy as np

import tracing
import workloads
from checks import CheckError

WARMUP_JOB = 1 << 32  # an index the timed jobs never reach

PER_LAYER_TIMES = {
    "core": ("read_coeff_csv", "write_coeff_csv", "read_matrix_csv", "hankel_matrix"),
    "dyadic": ("grid_values", "lp_norm_detail", "dyadic_profile", "besov_detail"),
    "tensornorm": ("injective_norm_exact", "projective_bracket", "v2_profile", "injective_norm_search"),
    "mazur": ("problem8_witness", "range_diagnostic", "cesaro_product", "antidiagonal_average"),
    "extremal": ("flat_polynomial", "assemble_majorant", "weighted_moment"),
}
PER_LAYER_COUNTS = (
    "core.csv_bytes",
    "dyadic.grid_values_calls",
    "dyadic.fft_points",
    "dyadic.fft_bytes",
    "tensornorm.sign_vectors",
    "tensornorm.gray_steps",
    "tensornorm.search_evaluations",
    "extremal.descent_evals",
)


def load_lab(layers) -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"scottish_lab.{m}") for m in layers})


class Outcome:
    """Counts and check failures of a run."""

    def __init__(self):
        self.ops = workloads.Ops()
        self.check_errors: list[str] = []

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckError as exc:
            self.check_errors.append(str(exc))
        except Exception:  # an output the check cannot read is a wrong output
            self.check_errors.append(traceback.format_exc(limit=3))


def check_rng(seed: int, job: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, job, 1]))


def paired(tracer, i: int, times: list, traced_times: list, call) -> list:
    """Run `call` once untraced and once under the tracer, recording both
    times.  The side that runs second finds warmer caches, so the order
    alternates with i.  Returns the two results, untraced first."""
    def timed(traced: bool):
        restore = tracing.install(tracer) if traced else None
        try:
            t0 = time.perf_counter()
            out = call()
            (traced_times if traced else times).append(time.perf_counter() - t0)
        finally:
            if restore:
                restore()
        return out

    outs = {traced: timed(traced) for traced in ((False, True) if i % 2 == 0 else (True, False))}
    return [outs[False], outs[True]]


# ---------------------------------------------------------------------------
# In-process workloads.
# ---------------------------------------------------------------------------


def in_process(workload: str, seed: int, seconds: float, tracer) -> tuple[dict, Outcome]:
    make_inputs, job, check = workloads.IN_PROCESS[workload]
    lab = load_lab(tracing.LAYERS if tracer or workload == "verify-all"
                   else ("core", "dyadic", "tensornorm", "mazur", "extremal"))
    result = Outcome()

    inp = make_inputs(workloads.job_rng(seed, WARMUP_JOB))
    result.check(check, lab, inp, job(lab, inp, workloads.Ops()), check_rng(seed, WARMUP_JOB))

    times, traced_times = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        inp = make_inputs(workloads.job_rng(seed, i))
        if tracer is None:
            t0 = time.perf_counter()
            out = job(lab, inp, result.ops)
            times.append(time.perf_counter() - t0)
        else:
            out = paired(tracer, i, times, traced_times, lambda: job(lab, inp, result.ops))[0]
        result.check(check, lab, inp, out, check_rng(seed, i))
        i += 1
    return {"times": times, "traced_times": traced_times}, result


# ---------------------------------------------------------------------------
# cli-cold.
# ---------------------------------------------------------------------------


def cli_call(argv) -> tuple[float, int, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "scottish_lab", *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    return time.perf_counter() - t0, proc.returncode, proc.stderr


def rerun_identical(path: str) -> None:
    """Re-executing the argv a report embeds must reproduce it byte for byte."""
    with open(path, "rb") as fh:
        before = fh.read()
    argv = json.loads(before)["run_config"]["argv"]
    os.unlink(path)
    _, rc, err = cli_call(argv)
    if rc != 0:
        raise CheckError(f"rerun exited {rc}: {err.strip()}")
    with open(path, "rb") as fh:
        if fh.read() != before:
            raise CheckError(f"rerun of {path} is not byte-identical")


def cli_cold(seed: int, seconds: float, tracer, workdir: str) -> tuple[dict, Outcome]:
    result = Outcome()
    cli = load_lab(tracing.LAYERS).cli if tracer is not None else None
    os.makedirs(workdir, exist_ok=True)
    # No warm-up call: run.py's set-up samples have just imported the package
    # in fresh interpreters, which is all a cold call could warm.

    times, traced_times = [], []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        calls, inp = workloads.cli_round(workloads.job_rng(seed, r), workdir)
        rng = check_rng(seed, r)
        for name, argv in calls:
            if tracer is None:
                dt, rc, err = cli_call(argv)
                times.append(dt)
                codes = [rc]
            else:
                err = ""
                codes = paired(tracer, len(times), times, traced_times, lambda: cli.run(argv))
            result.ops.attempted += len(codes)
            bad = [rc for rc in codes if rc != 0]
            if bad:
                result.ops.failed += len(bad)
                key = f"{name}: exit {bad[0]}: {err.strip()[-200:]}"
                result.ops.errors[key] = result.ops.errors.get(key, 0) + len(bad)
                continue
            result.check(workloads.cli_check, name, argv, inp, workdir, rng)
        r += 1
    if tracer is None:
        wit = dict(calls)["witness8"]
        result.check(rerun_identical, wit[wit.index("--out") + 1])
    return {"times": times, "traced_times": traced_times}, result


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def end_to_end(timing: dict, workload: str) -> dict:
    times = timing["times"]
    usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return {
        "job_p50_s": statistics.median(times),
        "jobs_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }


def per_layer(tracer: tracing.Tracer, timing: dict) -> dict:
    jobs = len(timing["traced_times"])
    out = {}
    for layer, names in PER_LAYER_TIMES.items():
        for name in names:
            out[f"{layer}.{name}_s"] = tracer.total_time.get(f"{layer}.{name}", 0.0) / jobs
    for key in PER_LAYER_COUNTS:
        out[key] = tracer.counters.get(key, 0) / jobs
    out["tensornorm.bracket_rel_gap"] = tracer.bracket_rel_gap()
    suites = importlib.import_module("scottish_lab.verify").SUITES
    for key in suites:
        out[f"verify.suite.{key}_s"] = tracer.total_time.get(f"verify.suite.{key}", 0.0) / jobs
    out["cli.run_s"] = tracer.total_time.get("cli.run", 0.0) / jobs
    for layer, t in tracer.layer_self_times().items():
        out[f"{layer}.self_s"] = t / jobs
    # Each job ran untraced and traced, back to back in alternating order; the
    # median of the paired ratios is steadier than a ratio of totals under drift.
    pairs = zip(timing["times"], timing["traced_times"])
    out["trace.overhead_pct"] = 100.0 * statistics.median(t / p - 1.0 for p, t in pairs)
    out["trace.spans"] = len(tracer.spans) / jobs
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    if args.workload == "cli-cold":
        timing, result = cli_cold(args.seed, args.seconds, tracer, args.workdir)
    else:
        timing, result = in_process(args.workload, args.seed, args.seconds, tracer)

    if tracer is None:
        metrics = end_to_end(timing, args.workload)
    else:
        metrics = per_layer(tracer, timing)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    doc = {
        "correct": not result.check_errors,
        "attempted": result.ops.attempted,
        "failed": result.ops.failed,
        "metrics": metrics,
        "op_errors": result.ops.errors,
        "check_errors": result.check_errors[:20],
        "job_times": timing["times"],
        "traced_job_times": timing["traced_times"],
    }
    if tracer is not None:
        doc["calls"] = tracer.calls
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
