"""Time one benchmark workload's operations, kind by kind, in one process.

    python tools/op_times.py WORKLOAD [--seed N] [--by kind|case]

Builds the workload's cases from ``bench/workloads.py``'s plan and build
functions (as ``tools/same_outputs.py`` does), with the package imported
from the working tree's ``src/`` and the BLAS pools at one thread, as the
benchmark's worker runs.  After one warm-up round it times every operation
of ``ROUNDS`` rounds, each through ``bench/checks.run_op`` (a failed
operation is timed too), and prints, per operation kind: the calls per
round, the median microseconds per call, and the kind's share of the time
of all rounds.  The kinds are sorted by share, largest first.  With
``--by case`` the rows are (case label, kind) pairs instead, so that one
kind's time is split by domain.

Timings are wall-clock times on an unloaded process, not the benchmark's
scaled figures; use them to see where a round's time goes, and
``bench/run.py`` to measure a change.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
from checks import median, run_op  # noqa: E402
from run import THREAD_VARS, WORKLOADS  # noqa: E402


def op_times(workload: str, seed: int, by: str = "kind") -> tuple[dict, float]:
    """({group: [µs per call, ...]}, median ms per round) over ``ROUNDS`` timed rounds.

    A group is an operation's kind, or with ``by="case"`` its (case label, kind).
    """
    import numpy as np

    import plurikernel as P
    import workloads as W

    plan_fn, build_fn = W.WORKLOADS[workload]
    ops = [((case.label, kind) if by == "case" else kind, fn)
           for case in build_fn(P, plan_fn(np.random.default_rng(seed))) for kind, fn in case.ops]
    for _, fn in ops:
        run_op(fn)
    times = defaultdict(list)
    rounds = []
    for _ in range(ROUNDS):
        t_round = time.perf_counter()
        for group, fn in ops:
            t0 = time.perf_counter()
            run_op(fn)
            times[group].append((time.perf_counter() - t0) * 1e6)
        rounds.append((time.perf_counter() - t_round) * 1e3)
    return times, median(rounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--by", choices=("kind", "case"), default="kind",
                    help="group times by operation kind, or by case label and kind")
    args = ap.parse_args(argv)
    os.environ.update({k: "1" for k in THREAD_VARS})    # before numpy is imported
    times, round_ms = op_times(args.workload, args.seed, args.by)
    total = sum(map(sum, times.values()))
    print(f"{args.workload}, seed {args.seed}: {ROUNDS} rounds, median round {round_ms:.1f} ms")
    case = f"{'case':<36} " if args.by == "case" else ""
    print(f"  {case}{'kind':<28} {'calls/round':>11} {'median µs':>10} {'share':>7}")
    for group, ts in sorted(times.items(), key=lambda kv: -sum(kv[1])):
        label = f"{group[0]:<36} {group[1]:<28}" if args.by == "case" else f"{group:<28}"
        print(f"  {label} {len(ts) // ROUNDS:>11} {median(ts):>10.1f} "
              f"{sum(ts) / total:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
