"""Steadiness of the benchmark: one workload, N runs, spread of every metric.

    python3 bench/steady.py --workload quadrature --runs 10 --seed 100 --seconds 20

Run i uses seed (seed + i).
For each metric it prints the median, the quartiles (statistics.quantiles,
n=4), the quartile distance as a share of the median, and (max - min) /
median; then the share of failed operations in each run, and the medians of
the calibration snippet's time in the timed phase and in the fresh set-up
processes.  The figures go to bench/out/steady-<workload>.json as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)

    runs = []
    for i in range(args.runs):
        seed = args.seed + i
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                              capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads((OUT / f"{args.workload}-seed{seed}-trace0.json").read_text())
        res["seed"] = seed
        res["snippet_in_run_s"] = report["snippet_in_run_s"]
        res["snippet_fresh_s"] = report["snippet_fresh_s"]
        runs.append(res)
        print(f"run {i + 1}/{args.runs} seed {seed}: correct={res['correct']} "
              f"failed {res['failed']}/{res['attempted']}", flush=True)

    summary = {}
    print(f"\n{'metric':45s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'range/med':>9s}")
    for key in runs[0]["metrics"]:
        vals = [r["metrics"][key]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        iqr = (q3 - q1) / abs(med) if med else 0.0
        rng = (max(vals) - min(vals)) / abs(med) if med else 0.0
        summary[key] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                        "iqr_share": iqr, "range_share": rng}
        print(f"{key:45s} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.3f} {rng:9.3f}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"\nfailed share per run: {shares}")
    print(f"all correct: {all(r['correct'] for r in runs)}")
    in_run = statistics.median(r["snippet_in_run_s"] for r in runs)
    fresh = statistics.median(r["snippet_fresh_s"] for r in runs)
    ratios = [r["snippet_in_run_s"] / r["snippet_fresh_s"] for r in runs]
    print(f"calibration snippet: {in_run * 1e3:.4f} ms in the timed phase, {fresh * 1e3:.4f} ms "
          f"in fresh processes; ratio per run {min(ratios):.3f}..{max(ratios):.3f}")
    (OUT / f"steady-{args.workload}.json").write_text(
        json.dumps({"args": vars(args), "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
