"""One workload in one fresh process: set up, run timed rounds, check outputs.

Started by run.py; prints one JSON report on stdout.  With --setup-only it
stops after set-up and reports only the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np   # imported before the set-up clock starts, as the interpreter is

import workloads as W
from calibrate import REFERENCE_S, Calibration, time_snippet
from checks import judge, median, run_op

SETUP_SNIPPETS = 3      # calibration snippets on each side of the set-up


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if "PLURIKERNEL_THREADS" in os.environ:
        print("PLURIKERNEL_THREADS must be unset", file=sys.stderr)
        return 2

    plan_fn, build_fn = W.WORKLOADS[args.workload]
    plan = plan_fn(np.random.default_rng(args.seed))

    time_snippet()   # warm
    before = [time_snippet() for _ in range(SETUP_SNIPPETS)]
    t0 = time.perf_counter()
    import plurikernel as P
    import plurikernel.cli  # noqa: F401  (every CLI call pays for this import)
    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.enable()
    cases = build_fn(P, plan)
    setup_raw_s = time.perf_counter() - t0
    after = [time_snippet() for _ in range(SETUP_SNIPPETS)]
    setup_snippet_s = median(before + after)
    setup_s = setup_raw_s * REFERENCE_S / setup_snippet_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s,
                          "snippet_s": setup_snippet_s}))
        return 0

    ops = [(kind, fn) for case in cases for kind, fn in case.ops]
    # warm-up: the first operation of each kind, once, outside the count
    if tracer:
        tracer.disable()
    seen = set()
    for kind, fn in ops:
        if kind not in seen:
            seen.add(kind)
            run_op(fn)

    fns = [fn for _, fn in ops]
    n_ops = len(fns)
    clock = time.perf_counter
    # per round: [(calibration index, seconds of operations after it)]
    plain, traced = [], []
    first = first_repr = None
    mismatched = 0
    if tracer:
        tracer.phase = "rounds"
    cal = Calibration()
    start = clock()
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        if tracer:
            tracer.enable() if tracing else tracer.disable()
        segments = []
        j, acc = len(cal.durations) - 1, 0.0
        outs = []
        for fn in fns:
            t0 = clock()
            if cal.due(t0):
                segments.append((j, acc))
                j, acc = cal.run(), 0.0
                t0 = clock()
            outs.append(run_op(fn))
            acc += clock() - t0
        segments.append((j, acc))
        (traced if tracing else plain).append(segments)
        if first is None:
            first, first_repr = outs, repr(outs)
        elif repr(outs) != first_repr:
            mismatched += 1
        # whole rounds only; a traced run ends on a traced round
        if clock() - start >= args.seconds and (tracer is None or tracing):
            break
    if tracer:
        tracer.disable()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    # checks, after the timed phase
    ck, failed_per_round = judge(cases, first)
    ck.holds(f"{mismatched} rounds differ from the first round", mismatched == 0)

    rounds = len(plain) + len(traced)
    raw = [sum(a for _, a in segs) for segs in plain]
    scaled = [sum(a * cal.factor(j) for j, a in segs) for segs in plain]
    ok_ops = n_ops - failed_per_round
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "import_ms": import_ms,
        "ops_per_round": n_ops,
        "failed_per_round": failed_per_round,
        "round_s": raw,
        "round_scaled_s": scaled,
        "snippet_s": cal.durations,
        "attempted": rounds * n_ops,
        "failed": rounds * failed_per_round,
        "ops_per_s": ok_ops / median(scaled),
        "ops_per_s_raw": ok_ops / median(raw),
        "peak_rss_mb": peak_rss_mb,
        "digits_p50": median(ck.digits),
        "digits_min": min(ck.digits) if ck.digits else float("nan"),
        "references": len(ck.digits),
        "least_accurate": ck.worst[1],
        "checks": ck.checks,
        "correct": not ck.failures,
        "check_failures": ck.failures[:20],
    }
    if tracer:
        traced_scaled = [sum(a * cal.factor(j) for j, a in segs) for segs in traced]
        overhead = (median(traced_scaled) / median(scaled) - 1.0) * 100.0
        report["per_layer"] = tracer.metrics(len(traced) * n_ops, import_ms, overhead)
        report["trace_table"] = tracer.table()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
