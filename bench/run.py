"""Run one workload of the scottish-lab benchmark from the repository root.

    python3 bench/run.py --workload spectral --seed 1 --seconds 14 --trace 0

It measures set-up (fresh interpreters importing the package), starts a work
process (bench/worker.py) with the numeric libraries single-threaded, and
prints the metrics BENCHMARK.json names -- the end-to-end ones untraced, the
per-layer ones traced -- as the last line of its output:

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

Details of the run (job times, settings, check failures) go to
bench/results/.  Only the standard library is imported here, so set-up is
timed in children that start from nothing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

# What "imported and ready" means for each workload.
READY_IMPORTS = {
    "cli-cold": ("scottish_lab.cli",),
    "spectral": ("scottish_lab",),
    "signform": ("scottish_lab",),
    "verify-all": ("scottish_lab", "scottish_lab.cli"),
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is sampled before and after the work, so that the median spans
# the run rather than a few seconds of the machine's drift.
SETUP_SAMPLES_BEFORE, SETUP_SAMPLES_AFTER = 2, 2
DEADLINE_S = 160.0  # leaves time for the last set-up samples within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("SCOTTISH_LAB_THREADS", None)  # verify-all runs with the default
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_import(modules, env, workdir, flags=()) -> tuple[float, str]:
    """Seconds from starting an interpreter until it has imported `modules`."""
    code = f"import {', '.join(modules)}; print('ready', flush=True)"
    err_path = os.path.join(workdir, "import.err")
    with open(err_path, "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *flags, "-c", code], stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=ROOT, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
        err.seek(0)
        text = err.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"importing {modules} failed:\n{text}")
    return elapsed, text


def scipy_signal_import_s(importtime: str) -> float:
    """Cumulative import time of scipy.signal from `python -X importtime`."""
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.signal":
            return int(parts[1]) / 1e6
    return 0.0


def declared_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(READY_IMPORTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "scottish_lab", "__init__.py")):
        print("bench: no src/scottish_lab here; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    begin = time.perf_counter()
    units = declared_metrics(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RESULTS, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    env = child_env()
    try:
        ready = READY_IMPORTS[args.workload] if not args.trace else ("scottish_lab.cli",)
        samples = [fresh_import(ready, env, workdir)[0] for _ in range(SETUP_SAMPLES_BEFORE)]

        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir]
        if args.trace:
            cmd += ["--spans", os.path.join(RESULTS, f"spans-{tag}.json")]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - begin)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("bench: the work process ran out of time", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"bench: the work process exited {proc.returncode}", file=sys.stderr)
            return 1
        doc = json.loads(out.strip().splitlines()[-1])
        samples += [fresh_import(ready, env, workdir)[0] for _ in range(SETUP_SAMPLES_AFTER)]
        if args.trace:
            _, importtime = fresh_import(ready, env, workdir, flags=("-X", "importtime"))
            extra = {"cli.import_s": statistics.median(samples),
                     "cli.import_scipy_signal_s": scipy_signal_import_s(importtime)}
        else:
            extra = {"setup_s": statistics.median(samples)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = {**doc["metrics"], **extra}
    missing = set(units) - set(values)
    if missing:
        print(f"bench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "threads": {var: env[var] for var in THREAD_VARS},
        "versions": {"python": platform.python_version(),
                     **{m: importlib.metadata.version(m) for m in ("numpy", "scipy")}},
        "nproc": os.cpu_count(),
        "setup_samples_s": samples, "run_wall_s": time.perf_counter() - begin,
        **{k: v for k, v in doc.items() if k not in ("correct", "attempted", "failed")},
        "result": result,
    }
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)

    for error in doc["check_errors"]:
        print(f"bench: check failed: {error}", file=sys.stderr)
    print(f"{args.workload:10s} threads " + " ".join(f"{v}=1" for v in THREAD_VARS))
    for name, unit in units.items():
        print(f"{args.workload:10s} {name:34s} {values[name]:14.6g} {unit}")
    print(f"{args.workload:10s} attempted {doc['attempted']}, failed {doc['failed']}"
          + "".join(f"\n  {k} x{n}" for k, n in doc["op_errors"].items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
