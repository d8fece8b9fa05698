"""Time the README's ``plurikernel`` commands end to end, each in a fresh process.

    python tools/cli_times.py [--against REV] [--pairs N]

Runs every ``plurikernel`` command line of the README's ``sh`` blocks (as
``tools/same_outputs.py`` reads them) as ``python -m plurikernel``, and
``python -c "import numpy"``, the floor that every command pays, each in a
fresh process with the BLAS pools at one thread (as the benchmark's worker
runs).  Prints, per command, the median wall time and the best CPU time of
the child process (user + system, from ``getrusage(RUSAGE_CHILDREN)``), in
milliseconds.  Without ``--against`` the working tree's ``src/`` runs each
command ``--pairs`` times.

With ``--against REV`` each command also runs ``--pairs`` times under REV's
``src/`` (unpacked with ``git archive``, as ``tools/same_outputs.py``
unpacks it), REV first in odd pairs and second in even ones, so that a
drift of the host's speed falls on both trees alike; the last column is
the ratio of the wall-time medians, tree over REV.

A one-point command spends most of its time starting Python and importing
numpy, so a difference between the trees smaller than the spread of their
runs (compare the ``import numpy`` row, which both trees run alike) is not
resolved by these figures.
"""

from __future__ import annotations

import argparse
import resource
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "bench"))
from checks import median  # noqa: E402
from run import worker_env  # noqa: E402
from same_outputs import readme_commands, unpack_src  # noqa: E402

NUMPY = 'python -c "import numpy"'


def argv_of(line: str) -> list:
    """The command line ``line`` as this interpreter runs it."""
    if line == NUMPY:
        return [sys.executable, "-c", "import numpy"]
    return [sys.executable, "-m", "plurikernel", *shlex.split(line)[1:]]


def run_once(src: Path, line: str, cwd: str) -> tuple:
    """(wall ms, child CPU ms) of one run of ``line``, importing the package from ``src``."""
    env = worker_env()
    env["PYTHONPATH"] = str(src)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(argv_of(line), env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{line} exited with status {proc.returncode} under {src}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall * 1e3, cpu * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", metavar="REV",
                    help="git revision whose src/ is timed against the working tree's")
    ap.add_argument("--pairs", type=int, default=5,
                    help="runs of each command per tree (default 5)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    lines = [NUMPY, *readme_commands()]
    with tempfile.TemporaryDirectory(prefix="cli-times-") as tmp:
        srcs = {"tree": ROOT / "src"}
        if args.against:
            srcs = {"rev": unpack_src(args.against, Path(tmp)), **srcs}
        runs = {side: {line: [] for line in lines} for side in srcs}
        for pair in range(args.pairs):
            for line in lines:
                for side in srcs if pair % 2 == 0 else reversed(srcs):
                    runs[side][line].append(run_once(srcs[side], line, tmp))
    what = f"{args.against} against the working tree" if args.against else "the working tree"
    print(f"README commands: {what}, {args.pairs} fresh processes per command and tree; "
          f"median wall ms, best child CPU ms")
    print("  " + "".join(f"{side + ' wall':>11} {side + ' cpu':>10}" for side in srcs)
          + (f" {'tree/rev':>9}" if args.against else "") + "  command")
    for line in lines:
        walls = {side: median([w for w, _ in runs[side][line]]) for side in srcs}
        cells = "".join(f"{walls[side]:>11.1f} {min(c for _, c in runs[side][line]):>10.1f}"
                        for side in srcs)
        ratio = f" {walls['tree'] / walls['rev']:>9.3f}" if args.against else ""
        print(f"  {cells}{ratio}  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
