"""Check that the working tree's program gives the same outputs as a git revision's.

    python tools/same_outputs.py REV [--seeds 1 2]

For each seed, one round of every benchmark workload's operations
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

Then every ``plurikernel`` command line of the README's ``sh`` blocks runs
as ``python -m plurikernel`` under both ``src/`` trees, and their stdout is
compared byte for byte.  Last, the lines of each ``src/plurikernel/*.py`` in
both trees are counted as ``wc -l`` counts them (source size is tracked).
Exits 1 if any output differs.
"""

from __future__ import annotations

import argparse
import io
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
NUMBER = re.compile(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")

sys.path.insert(0, str(BENCH))
from run import worker_env  # noqa: E402  (the benchmark worker's environment)


def emit(seed: int) -> None:
    """Child process: one round of every workload, as {workload: [repr, ...]} on stdout."""
    import numpy as np

    import plurikernel as P
    import workloads as W
    from checks import run_op

    result = {}
    for name, (plan_fn, build_fn) in W.WORKLOADS.items():
        cases = build_fn(P, plan_fn(np.random.default_rng(seed)))
        result[name] = [[f"{case.label} / {kind}", repr(run_op(fn))]
                        for case in cases for kind, fn in case.ops]
    print(json.dumps(result))


def outputs(src: Path, seed: int) -> dict:
    """One round of every workload in a fresh process importing the package from ``src``."""
    env = worker_env()
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(BENCH)])
    proc = subprocess.run([sys.executable, __file__, "--emit", str(seed)], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"the outputs of {src} at seed {seed} could not be computed")
    return json.loads(proc.stdout)


def readme_commands() -> list:
    """The ``plurikernel ...`` lines of the README's sh blocks (as tests/test_cli.py reads them)."""
    readme = (ROOT / "README.md").read_text()
    return [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
            for line in block.splitlines() if line.startswith("plurikernel ")]


def cli_stdout(src: Path, line: str, cwd: str) -> bytes:
    """The stdout of one README command line, importing the package from ``src``."""
    env = worker_env()
    env["PYTHONPATH"] = str(src)
    return subprocess.run([sys.executable, "-m", "plurikernel", *shlex.split(line)[1:]],
                          env=env, cwd=cwd, capture_output=True).stdout


def compare_cli(rev_src: Path, cwd: str) -> int:
    """Print the README command comparison; returns the number of commands whose stdout differs."""
    lines = readme_commands()
    differ = [line for line in lines
              if cli_stdout(rev_src, line, cwd) != cli_stdout(ROOT / "src", line, cwd)]
    print(f"  README commands: {len(lines)} run, {len(differ)} differ")
    for line in differ[:SHOWN]:
        print(f"    {line}")
    return len(differ)


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


def compare(old: dict, new: dict) -> int:
    """Print the per-workload comparison; returns the number of differing outputs."""
    total = 0
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name, []), new.get(name, [])
        diffs = [(i, x, y) for i, (x, y) in enumerate(zip(a, b)) if x != y]
        differ = len(diffs) + abs(len(a) - len(b))
        total += differ
        print(f"  {name}: {len(b)} outputs, {differ} differ"
              + (f" (the revision has {len(a)})" if len(a) != len(b) else ""))
        rel, i, what = largest_move(diffs)
        if i is not None:
            print(f"    largest relative move {rel:.2g}, at #{i} {what}")
        for i, (what, x), (_, y) in diffs[:SHOWN]:
            print(f"    #{i} {what}\n      rev:  {x}\n      tree: {y}")
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare the working tree with")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--emit", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit is not None:
        emit(args.emit)
        return 0
    if args.rev is None:
        ap.error("a revision is required")
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        rev_src = unpack_src(args.rev, Path(tmp))
        for seed in args.seeds:
            print(f"seed {seed}: {args.rev} against the working tree")
            differ += compare(outputs(rev_src, seed), outputs(ROOT / "src", seed))
        print(f"README commands: {args.rev} against the working tree")
        differ += compare_cli(rev_src, tmp)
        print(f"Source lines (wc -l src/plurikernel/*.py): {args.rev} -> the working tree")
        compare_lines(rev_src)
    print(f"{differ} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
