"""Steadiness check: run each workload with several seeds and print, for each
end-to-end metric, the median, the quartiles and the spread (q3 - q1) / median
against the bound in BENCHMARK.json.

    python3 bench/steady.py --runs 10                       # seeds 1..10
    python3 bench/steady.py --runs 10 --first-seed 11 --compare <earlier file>
    python3 bench/steady.py --runs 1                        # all four, one run each

Every workload of BENCHMARK.json is run, each run being `bench/run.py` for
the file's run_seconds.  The figures are also written to
bench/results/steady-<time>.json.  A spread above a third of its bound is
flagged, one above the bound fails, setup_s included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Self times of one layer moved by up to ~30% between traced runs of the same
# workload (mazur on verify-all: 0.41 s and 0.52 s per job), so closer layers
# are reported as tied.
TIE_SHARE = 0.3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = time.perf_counter() - t0
    return doc


def layer_ranking(metrics: dict) -> list[str]:
    """Layers that ran, by self time, largest first.  Layers within
    TIE_SHARE of the one before them form a tie ("a = b"): that close, their
    order is decided by the machine's drift, not by the program."""
    selfs = {k[: -len(".self_s")]: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
    order = [k for k in sorted(selfs, key=selfs.get, reverse=True) if selfs[k] > 0]
    groups: list[list[str]] = []
    for k in order:
        if groups and selfs[k] >= (1 - TIE_SHARE) * selfs[groups[-1][-1]]:
            groups[-1].append(k)
        else:
            groups.append([k])
    return [" = ".join(sorted(g)) for g in groups]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", default=None,
                    help="an earlier steady-*.json: also print each median's shift from it")
    args = ap.parse_args()
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report, ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(args.runs):
            doc = run_once(workload, args.first_seed + i, spec["run_seconds"], args.trace)
            runs.append(doc)
            print(f"{workload} seed {args.first_seed + i}: {doc['wall_s']:.1f} s, "
                  f"attempted {doc['attempted']}, failed {doc['failed']}, correct {doc['correct']}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        rows = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            row = {"values": values, "median": med}
            line = f"  {m['name']:34s} median {med:12.6g} {m['unit']:6s}"
            if len(values) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(values, n=4)
                sp = (q3 - q1) / med
                bound = m.get("bound")
                flag = ""
                if bound is not None:
                    flag = "FAIL" if sp > bound else ("wide" if sp > bound / 3 else "ok")
                    ok &= sp <= bound
                row.update(q1=q1, q3=q3, spread=sp, bound=bound, flag=flag)
                line += f" q1 {q1:12.6g} q3 {q3:12.6g} spread {sp:7.2%}  bound {bound}  {flag}"
            before = earlier.get(workload, {}).get("metrics", {}).get(m["name"], {}).get("median")
            if before:
                worse = (med - before) / before * (1 if m["better"] == "lower" else -1)
                bad = m.get("bound") is not None and worse > m["bound"]
                ok &= not bad
                row["worse_than_earlier"] = worse
                line += f"  worse by {worse:+.2%} than before{'  FAIL' if bad else ''}"
            print(line)
            rows[m["name"]] = row
        print(f"  failed share {sorted(shares)}, all correct: {correct}")
        rankings = sorted({" > ".join(layer_ranking(r["metrics"])) for r in runs}) if args.trace else []
        for ranking in rankings:
            print(f"  layers by self time: {ranking}")
        report[workload] = {"layer_rankings": rankings,
                            "seeds": [args.first_seed + i for i in range(args.runs)],
                            "failed_shares": sorted(shares), "correct": correct,
                            "wall_s": [r["wall_s"] for r in runs], "metrics": rows}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results", f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"written {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
