"""Check that the working tree's program gives the same outputs as a git revision's.

    python tools/same_outputs.py REV [--seeds 1 2] [--workloads NAME ...] [--rtol R] [--digits]

For each seed, one round of every benchmark workload's operations (or of
the ``--workloads`` named, all four by default)
(``bench/workloads.py``'s plan and build functions, each operation run
through ``bench/checks.run_op``) runs in two fresh processes: one imports
the package from REV's ``src/``, unpacked with ``git archive`` into a
temporary directory, the other from the working tree's ``src/``.  Both use
the working tree's ``bench/``.  Every output, a failed operation included,
is compared by its ``repr``.  Prints, per seed and workload, the number of
outputs, the number that differ, the largest relative difference among the
numbers that moved (``|a - b| / max(|a|, |b|)`` over the numbers of two
differing outputs, paired in order where both hold as many) and the first
few differences.

Then every ``plurikernel`` command line of the README's ``sh`` blocks, and
every line of ``CLI_MATRIX``, runs as ``python -m plurikernel`` under both
``src/`` trees, and their stdout, stderr and exit status are compared byte
for byte.  Last, the lines of each ``src/plurikernel/*.py`` in
both trees are counted as ``wc -l`` counts them (source size is tracked).
Exits 1 if any output differs.

With ``--digits``, both trees' outputs of each seed also go through the
benchmark's own checks (``bench/checks.judge``, as ``bench/worker.py``
judges its first round).  Per workload it prints each tree's
``digits_p50``, ``digits_min`` and least accurate output, and every check
label whose digits moved by more than 0.05, with both values.

With ``--rtol R``, two outputs, or two command lines' stdout, that differ
only in numbers (``NUMBER``) count as equal when each pair of numbers differs
by at most R relative; stderr and exit status still compare byte for byte.
Differences are printed as without it, the counts add how many outputs
moved by more than R, and the exit status is 1 only if some did.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SHOWN = 3       # differences printed per workload
DIGITS_MOVED = 0.05     # --digits: a check's digits moved by more than this are printed
NUMBER = re.compile(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")

#: (command line without its points, two points) of the subcommands that evaluate at points
_PER_POINT = [
    ("kernel --domain unit_ball:2 --pole e1 --point", ["0.3,0.1i", "0,-0.2"]),
    ("bounds --domain ellipsoid:1,2 --pole e1 --point", ["0.5,0", "0.1,0.2i"]),
    ("green --domain unit_ball:2 --pole e1 --point", ["0", "0.2,0.1i"]),
    ("reproduce --domain unit_ball:2 --f 're(z1)' --resolution 16 --z", ["0.3,0", "0,0.2i"]),
    ("reproduce --domain disc --f 'z1*conj(z1)' --laplacian 4 --radial-grid 40 "
     "--angular-grid 40 --z", ["0", "0.3"]),
]

#: Command lines compared besides the README's: each of ``_PER_POINT`` in every format with
#: one point and with two, every --help, a usage error (a missing --pole), the
#: geodesic table, whose kernel values come from one array call on phi's rows, and the
#: probes of the benchmark's ball_auto map at its anchor and pole, whose probe-2 and
#: probe-3 limits (0 in exact arithmetic) are round-off, unlike the README's Blaschke map's.
CLI_MATRIX = (
    [f"plurikernel {command} {' '.join(points[:k])} --format {fmt}"
     for command, points in _PER_POINT for k in (1, 2) for fmt in ("json", "csv", "plotdata")]
    + ["plurikernel --help"]
    + [f"plurikernel {sub} --help"
       for sub in ("kernel", "bounds", "geodesic", "green", "reproduce", "julia")]
    + ["plurikernel kernel --domain unit_ball:2 --point 0"]
    + ["plurikernel geodesic --domain unit_ball:2 --pole e1 --through 0.4,0.2 --format csv"]
    + ["plurikernel julia --map '{\"ball_auto\": {\"anchor\": [[0.3, 0.1], [-0.2, 0.15]]}}' "
       "--p 0.6,0.8i --q -0.3513454671188006+0.2801335477590813i,"
       "-0.49855406656693896-0.7412998049807855i --probes"]
)

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
from run import WORKLOADS, worker_env  # noqa: E402  (the benchmark worker's environment)


def emit(seed: int, names: list, digits: bool) -> None:
    """Child process: one round of each named workload, as {"outputs": {workload: [[what,
    repr], ...]}, "digits": {workload: checked_digits(...)}} on stdout ("digits" with --digits)."""
    import numpy as np

    import plurikernel as P
    import workloads as W

    result = {"outputs": {}, "digits": {}}
    for name in names:
        plan_fn, build_fn = W.WORKLOADS[name]
        cases = build_fn(P, plan_fn(np.random.default_rng(seed)))
        ops = [(f"{case.label} / {kind}", fn) for case in cases for kind, fn in case.ops]
        outs = [checks.run_op(fn) for _, fn in ops]
        result["outputs"][name] = [[what, repr(out)] for (what, _), out in zip(ops, outs)]
        if digits:
            result["digits"][name] = checked_digits(cases, outs)
    print(json.dumps(result))


class LabelledChecker(checks.Checker):
    """The benchmark's checker, also keeping each output's [check label, digits]."""

    def __init__(self):
        super().__init__()
        self.labelled = []

    def _digits(self, what, rel):
        super()._digits(what, rel)
        self.labelled.append([what, self.digits[-1]])


def checked_digits(cases, outs) -> dict:
    """The benchmark's checks on one round's outputs: each check's [label, digits] in
    order, and the round's digits_p50, digits_min and least accurate output."""
    checks.Checker = LabelledChecker        # the checker judge makes, in this child process
    ck, _ = checks.judge(cases, outs)
    return {"labelled": ck.labelled, "p50": checks.median(ck.digits),
            "min": min(ck.digits, default=math.nan), "worst": ck.worst[1]}


def outputs(src: Path, seed: int, names: list, digits: bool) -> dict:
    """One round of each named workload in a fresh process importing the package from ``src``."""
    env = worker_env()
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(BENCH)])
    proc = subprocess.run([sys.executable, __file__, "--emit", str(seed), "--workloads", *names]
                          + ["--digits"] * digits,
                          env=env, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"the outputs of {src} at seed {seed} could not be computed")
    return json.loads(proc.stdout)


def readme_commands() -> list:
    """The ``plurikernel ...`` lines of the README's sh blocks (as tests/test_cli.py reads them)."""
    readme = (ROOT / "README.md").read_text()
    return [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for line in block.splitlines() if line.startswith("plurikernel ")]


def cli_run(src: Path, line: str, cwd: str) -> tuple:
    """(stdout, stderr, exit status) of one command line, importing the package from ``src``."""
    env = worker_env()
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, "-m", "plurikernel", *shlex.split(line)[1:]],
                          env=env, cwd=cwd, capture_output=True)
    return proc.stdout, proc.stderr, proc.returncode


def within(x: str, y: str, rtol: float) -> bool:
    """Whether x equals y, or (rtol > 0) differs from it only in numbers that differ
    by at most rtol relative."""
    if x == y:
        return True
    if not rtol or NUMBER.split(x) != NUMBER.split(y):
        return False
    pairs = zip(NUMBER.findall(x), NUMBER.findall(y))
    return all(a == b or abs(float(a) - float(b)) <= rtol * max(abs(float(a)), abs(float(b)))
               for a, b in pairs)


def compare_cli(rev_src: Path, cwd: str, what: str, lines: list, rtol: float) -> int:
    """Print one command-line comparison; returns the number of lines whose results
    differ by more than rtol (stdout) or at all (stderr, exit status)."""
    differ = []     # (line, whether it moved by more than rtol)
    for line in lines:
        (out_a, *rest_a), (out_b, *rest_b) = cli_run(rev_src, line, cwd), cli_run(ROOT / "src", line, cwd)
        if (out_a, rest_a) != (out_b, rest_b):
            differ.append((line, rest_a != rest_b or not within(out_a.decode(), out_b.decode(), rtol)))
    beyond = sum(moved for _, moved in differ)
    print(f"  {what}: {len(lines)} run, {len(differ)} differ"
          + (f", {beyond} by more than rtol {rtol:g}" if rtol else ""))
    for line, moved in differ[:SHOWN]:
        print(f"    {line}" + (" (by more than rtol)" if rtol and moved else ""))
    return beyond


def unpack_src(rev: str, into: Path) -> Path:
    """``git archive`` REV's src/ into a directory; returns the unpacked src/."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"git archive {rev} src failed: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tf:
        tf.extractall(into, filter="data")
    return into / "src"


def source_lines(src: Path) -> dict:
    """Newlines in each ``plurikernel/*.py`` under ``src``, as ``wc -l`` counts them."""
    return {f.name: f.read_bytes().count(b"\n") for f in sorted((src / "plurikernel").glob("*.py"))}


def compare_lines(rev_src: Path) -> None:
    """Print ``wc -l src/plurikernel/*.py`` of both trees: the files that moved, and totals."""
    old, new = source_lines(rev_src), source_lines(ROOT / "src")
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            print(f"  {name}: {old.get(name, 0)} -> {new.get(name, 0)}")
    print(f"  total: {sum(old.values())} -> {sum(new.values())}")


def largest_move(diffs) -> tuple:
    """(relative difference, index, what) of the number that moved most among differing
    outputs ``(i, (what, old repr), (_, new repr))``; (0.0, None, None) if none pair up."""
    best = (0.0, None, None)
    for i, (what, x), (_, y) in diffs:
        a, b = NUMBER.findall(x), NUMBER.findall(y)
        if len(a) != len(b):
            continue
        for u, v in zip(map(float, a), map(float, b)):
            scale = max(abs(u), abs(v))
            if u != v and math.isfinite(scale) and scale > 0 and abs(u - v) / scale > best[0]:
                best = (abs(u - v) / scale, i, what)
    return best


def compare(old: dict, new: dict, rtol: float) -> int:
    """Print the per-workload comparison; returns the number of outputs that differ
    by more than rtol."""
    total = 0
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name, []), new.get(name, [])
        diffs = [(i, x, y) for i, (x, y) in enumerate(zip(a, b)) if x != y]
        differ = len(diffs) + abs(len(a) - len(b))
        beyond = differ - sum(within(x[1], y[1], rtol) for _, x, y in diffs)
        total += beyond
        print(f"  {name}: {len(b)} outputs, {differ} differ"
              + (f", {beyond} by more than rtol {rtol:g}" if rtol else "")
              + (f" (the revision has {len(a)})" if len(a) != len(b) else ""))
        rel, i, what = largest_move(diffs)
        if i is not None:
            print(f"    largest relative move {rel:.2g}, at #{i} {what}")
        for i, (what, x), (_, y) in diffs[:SHOWN]:
            print(f"    #{i} {what}\n      rev:  {x}\n      tree: {y}")
    return total


def compare_digits(old: dict, new: dict) -> None:
    """Print, per workload, both trees' digits_p50, digits_min and least accurate output,
    and every check whose digits moved by more than DIGITS_MOVED (the k-th check of a
    label in one tree paired with the k-th of that label in the other)."""
    for name in sorted(set(old) | set(new)):
        a, b = old[name], new[name]
        print(f"  {name} digits: digits_p50 {a['p50']:.3f} -> {b['p50']:.3f}, "
              f"digits_min {a['min']:.2f} -> {b['min']:.2f}")
        print(f"    least accurate, rev:  {a['worst']}\n    least accurate, tree: {b['worst']}")
        by_label = {}
        for side, checked in enumerate((a, b)):
            for what, d in checked["labelled"]:
                by_label.setdefault(what, ([], []))[side].append(d)
        moved = [(what, x, y) for what, (xs, ys) in by_label.items()
                 for x, y in itertools.zip_longest(xs, ys, fillvalue=math.nan)
                 if not abs(x - y) <= DIGITS_MOVED]
        print(f"    {len(moved)} of {len(b['labelled'])} checks moved by more than {DIGITS_MOVED} digits")
        for what, x, y in moved:
            print(f"    {x:6.2f} -> {y:6.2f}  {what}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare the working tree with")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS),
                    metavar="NAME", help="the workloads to run (default: all four)")
    ap.add_argument("--rtol", type=float, default=0.0, metavar="R",
                    help="count numbers that differ by at most R relative as equal (default 0)")
    ap.add_argument("--digits", action="store_true",
                    help="also run the benchmark's checks on both trees' outputs and print "
                         "the digits that moved")
    ap.add_argument("--emit", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit is not None:
        emit(args.emit, args.workloads, args.digits)
        return 0
    if args.rev is None:
        ap.error("a revision is required")
    if not (math.isfinite(args.rtol) and args.rtol >= 0.0):
        ap.error(f"--rtol must be a finite number >= 0, got {args.rtol}")
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        rev_src = unpack_src(args.rev, Path(tmp))
        for seed in args.seeds:
            print(f"seed {seed}: {args.rev} against the working tree")
            old, new = (outputs(src, seed, args.workloads, args.digits) for src in (rev_src, ROOT / "src"))
            differ += compare(old["outputs"], new["outputs"], args.rtol)
            if args.digits:
                compare_digits(old["digits"], new["digits"])
        print(f"Command lines: {args.rev} against the working tree")
        differ += compare_cli(rev_src, tmp, "README commands", readme_commands(), args.rtol)
        differ += compare_cli(rev_src, tmp, "CLI matrix", CLI_MATRIX, args.rtol)
        print(f"Source lines (wc -l src/plurikernel/*.py): {args.rev} -> the working tree")
        compare_lines(rev_src)
    print(f"{differ} outputs differ" + (f" by more than rtol {args.rtol:g}" if args.rtol else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
