"""Benchmark entry point: one or all workloads, end-to-end or per-layer metrics.

    python3 bench/run.py --workload kernel_field --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in a fresh process (bench/worker.py) with one thread:
BLAS pools capped at one thread, PLURIKERNEL_THREADS unset.  With --trace 0
the last line of stdout is one JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run instead.  The
full report of each run goes to bench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
from pathlib import Path

from checks import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("kernel_field", "boundary_rays", "quadrature", "custom_geometry")
SETUP_BEFORE, SETUP_AFTER = 3, 4     # fresh set-up processes around the timed one
WORKER_SLACK_S = 120.0   # beyond --seconds: set-up, the last whole rounds and the checks
# The calibration snippet runs inside the program's process, so a change in the
# program's memory behaviour could slow it down and cancel out part of a real
# change in the scaled times.  A run is flagged on stderr when the snippet's
# median time in the timed phase differs from its median in the fresh set-up
# processes by more than this share.  Over 80 runs of the untouched program
# the ratio of the two read 0.88 to 1.32 (bench/README.md, "Noise").
SNIPPET_DRIFT = 0.35
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PLURIKERNEL_THREADS"}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], seconds: float = 0.0) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=seconds + WORKER_SLACK_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(args)} did not end within "
                         f"{seconds + WORKER_SLACK_S:.0f} s; it was stopped") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    fresh = []
    if not trace:
        fresh += [run_worker(common + ["--setup-only"]) for _ in range(SETUP_BEFORE)]
    report = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace)], seconds)
    if not trace:
        fresh += [run_worker(common + ["--setup-only"]) for _ in range(SETUP_AFTER)]
        setups = [f["setup_s"] for f in fresh] + [report["setup_s"]]
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "ops_per_s": {"value": report["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "digits_p50": {"value": report["digits_p50"], "unit": "digits"},
            "digits_min": {"value": report["digits_min"], "unit": "digits"},
        }
        report["setup_samples_s"] = setups
        in_run = median(report["snippet_s"])
        alone = median([f["snippet_s"] for f in fresh])
        report["snippet_in_run_s"], report["snippet_fresh_s"] = in_run, alone
        report["snippet_flag"] = abs(in_run / alone - 1.0) > SNIPPET_DRIFT
        if report["snippet_flag"]:
            print(f"{name}: the calibration snippet took {in_run * 1e3:.3f} ms in the timed phase "
                  f"against {alone * 1e3:.3f} ms in fresh processes; the scaled times may hide "
                  f"part of a change in the program's memory behaviour", file=sys.stderr)
    else:
        metrics = report["per_layer"]
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report | {"result": result}, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "plurikernel" / "__init__.py").is_file():
        print(f"no plurikernel sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so that every set-up imports from the same cache
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if len(names) > 1:
            print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for key, m in res["metrics"].items():
                print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
