"""Time one benchmark workload's operations, kind by kind, in one process.

    python tools/op_times.py WORKLOAD [--seed N] [--by kind|case] [--against REV [--pairs N]]
    python tools/op_times.py WORKLOAD [--seed N] [--by kind|case] --calls

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

With ``--against REV`` the same rounds run in fresh processes, one
importing the package from REV's ``src/`` (unpacked with ``git archive``,
as ``tools/same_outputs.py`` unpacks it) and one from the working tree's,
``--pairs`` times each, REV first in odd pairs and second in even ones, so
that a drift of the host's speed falls on both trees alike.  It prints, per
group, the median microseconds per call over every round of both trees and
their ratio, and then the median round of each tree and their ratio.

With ``--calls`` nothing is timed: after the warm-up round, one round runs
with ``ScalarField.__call__`` and ``ScalarField.jet`` counted, and it prints,
per group, the operations per round and the calls of each per operation.
The benchmark's tracer counts only ``__call__`` (as
``expressions.field_evals_per_op``); the jets are counted here.

Timings are wall-clock times on an unloaded process, not the benchmark's
scaled figures; use them to see where a round's time goes, and
``bench/run.py`` to measure a change.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5

sys.path.insert(0, str(ROOT / "bench"))
from checks import median, run_op  # noqa: E402
from run import THREAD_VARS, WORKLOADS, worker_env  # noqa: E402


def warm_ops(workload: str, seed: int, by: str) -> list:
    """[(group, operation), ...] of one round, after running each once as a warm-up.

    A group is an operation's kind, or with ``by="case"`` its (case label, kind).
    The package is imported from the first ``src/`` on ``sys.path``.
    """
    import numpy as np

    import plurikernel as P
    import workloads as W

    plan_fn, build_fn = W.WORKLOADS[workload]
    ops = [((case.label, kind) if by == "case" else kind, fn)
           for case in build_fn(P, plan_fn(np.random.default_rng(seed))) for kind, fn in case.ops]
    for _, fn in ops:
        run_op(fn)
    return ops


def op_times(workload: str, seed: int, by: str = "kind") -> tuple[dict, list]:
    """({group: [µs per call, ...]}, [ms per round, ...]) over ``ROUNDS`` timed rounds."""
    ops = warm_ops(workload, seed, by)
    times = defaultdict(list)
    rounds = []
    for _ in range(ROUNDS):
        t_round = time.perf_counter()
        for group, fn in ops:
            t0 = time.perf_counter()
            run_op(fn)
            times[group].append((time.perf_counter() - t0) * 1e6)
        rounds.append((time.perf_counter() - t_round) * 1e3)
    return times, rounds


def field_calls(workload: str, seed: int, by: str = "kind") -> dict:
    """{group: [operations, ScalarField.__call__ calls, ScalarField.jet calls]} of one round."""
    from plurikernel.expressions import ScalarField

    ops = warm_ops(workload, seed, by)
    counts = {"__call__": 0, "jet": 0}
    originals = {name: getattr(ScalarField, name) for name in counts}

    def counted(name):
        def method(self, z):
            counts[name] += 1
            return originals[name](self, z)
        return method

    table = defaultdict(lambda: [0, 0, 0])
    for name in counts:
        setattr(ScalarField, name, counted(name))
    try:
        for group, fn in ops:
            before = dict(counts)
            run_op(fn)
            row = table[group]
            row[0] += 1
            row[1] += counts["__call__"] - before["__call__"]
            row[2] += counts["jet"] - before["jet"]
    finally:
        for name, original in originals.items():
            setattr(ScalarField, name, original)
    return table


def fresh_op_times(src: Path, args) -> tuple[dict, list]:
    """``op_times`` in a fresh process that imports the package from ``src``."""
    env = worker_env()
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, __file__, args.workload, "--seed", str(args.seed),
                           "--by", args.by, "--emit"],
                          env=env, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"the op times of {src} could not be measured")
    times, rounds = json.loads(proc.stdout)
    return {tuple(g) if isinstance(g, list) else g: ts for g, ts in times}, rounds


def label(group, by: str) -> str:
    return f"{group[0]:<36} {group[1]:<28}" if by == "case" else f"{group:<28}"


def against(args) -> None:
    """Print both trees' per-group medians and round medians over alternating fresh processes."""
    from same_outputs import unpack_src

    times = {"rev": defaultdict(list), "tree": defaultdict(list)}
    rounds = {"rev": [], "tree": []}
    with tempfile.TemporaryDirectory(prefix="op-times-") as tmp:
        srcs = {"rev": unpack_src(args.against, Path(tmp)), "tree": ROOT / "src"}
        for pair in range(args.pairs):
            for side in ("rev", "tree") if pair % 2 == 0 else ("tree", "rev"):
                side_times, side_rounds = fresh_op_times(srcs[side], args)
                for group, ts in side_times.items():
                    times[side][group].extend(ts)
                rounds[side].extend(side_rounds)
    rev, tree = times["rev"], times["tree"]
    print(f"{args.workload}, seed {args.seed}: {args.against} against the working tree, "
          f"{args.pairs} pairs of fresh processes, {ROUNDS} rounds each")
    case = f"{'case':<36} " if args.by == "case" else ""
    print(f"  {case}{'kind':<28} {'calls/round':>11} {'rev µs':>10} {'tree µs':>10} "
          f"{'tree/rev':>9}")
    for group in sorted(set(rev) | set(tree), key=lambda g: -sum(tree.get(g, rev.get(g)))):
        a, b = rev.get(group), tree.get(group)
        calls = len(b or a) // (ROUNDS * args.pairs)
        cells = [f"{median(ts):>10.1f}" if ts else f"{'-':>10}" for ts in (a, b)]
        ratio = f"{median(b) / median(a):>9.3f}" if a and b else f"{'-':>9}"
        print(f"  {label(group, args.by)} {calls:>11} {cells[0]} {cells[1]} {ratio}")
    r_rev, r_tree = median(rounds["rev"]), median(rounds["tree"])
    print(f"  median round: rev {r_rev:.1f} ms, tree {r_tree:.1f} ms, "
          f"tree/rev {r_tree / r_rev:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--by", choices=("kind", "case"), default="kind",
                    help="group times by operation kind, or by case label and kind")
    ap.add_argument("--against", metavar="REV",
                    help="git revision whose src/ is timed against the working tree's")
    ap.add_argument("--pairs", type=int, default=6,
                    help="fresh processes per tree with --against (default 6)")
    ap.add_argument("--calls", action="store_true",
                    help="count ScalarField calls and jets per operation instead of timing")
    ap.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.calls and args.against:
        ap.error("--calls counts the working tree only; it takes no --against")
    os.environ.update({k: "1" for k in THREAD_VARS})    # before numpy is imported
    if args.against:
        against(args)
        return 0
    if args.emit:       # child of --against: the package comes from PYTHONPATH
        times, rounds = op_times(args.workload, args.seed, args.by)
        print(json.dumps([list(times.items()), rounds]))
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    case = f"{'case':<36} " if args.by == "case" else ""
    if args.calls:
        table = field_calls(args.workload, args.seed, args.by)
        print(f"{args.workload}, seed {args.seed}: ScalarField calls per operation, "
              f"one round after a warm-up round")
        print(f"  {case}{'kind':<28} {'ops/round':>9} {'__call__/op':>11} {'jet/op':>8}")
        for group, (ops, calls, jets) in table.items():
            print(f"  {label(group, args.by)} {ops:>9} {calls / ops:>11.2f} {jets / ops:>8.2f}")
        return 0
    times, rounds = op_times(args.workload, args.seed, args.by)
    total = sum(map(sum, times.values()))
    print(f"{args.workload}, seed {args.seed}: {ROUNDS} rounds, "
          f"median round {median(rounds):.1f} ms")
    print(f"  {case}{'kind':<28} {'calls/round':>11} {'median µs':>10} {'share':>7}")
    for group, ts in sorted(times.items(), key=lambda kv: -sum(kv[1])):
        print(f"  {label(group, args.by)} {len(ts) // ROUNDS:>11} {median(ts):>10.1f} "
              f"{sum(ts) / total:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
