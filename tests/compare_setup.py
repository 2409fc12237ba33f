"""Time the benchmark's set-up in two checkouts, import and warm-up apart.

Runs ``--runs`` fresh ``python3`` processes per checkout, alternating which
checkout goes first in each pair.  Each process puts its checkout's
``perfbench`` and ``src`` first on ``sys.path`` and times three steps of that
checkout's own set-up once: ``run.Library()`` (the package import), the
workload's constructor (input generation) and its ``warm_up()``.  The
environment is passed on unchanged, so ``PYTHONDONTWRITEBYTECODE`` applies as
in a benchmark run.  Not a pytest module; run it from anywhere:

    python3 tests/compare_setup.py PARENT CHANGE --workload solve-ladder8 --runs 30

It prints, per step and side, the median and quartiles in milliseconds, and
how many pairs the change took less time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STEPS = ("import", "inputs", "warm_up")


def child(root: Path, workload: str, seed: int) -> None:
    """Print the three step times of one set-up as a JSON object."""
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import run
    import workloads

    ref_path = root / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        lib = run.Library()
        t1 = time.perf_counter()
        wl = workloads.WORKLOADS[workload](lib, seed, Path(tmp), reference)
        t2 = time.perf_counter()
        wl.warm_up()
        t3 = time.perf_counter()
    print(json.dumps(dict(zip(STEPS, (t1 - t0, t2 - t1, t3 - t2)))))


def quartiles(xs: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return f"{1e3 * q2:8.2f} [{1e3 * q1:7.2f}, {1e3 * q3:7.2f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.parent.resolve(), args.workload, args.seed)
        return 0
    roots = (args.parent.resolve(), args.change.resolve())
    times: list[list[dict]] = [[], []]
    for i in range(args.runs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            argv = [sys.executable, __file__, str(roots[side]), str(roots[side]),
                    "--workload", args.workload, "--seed", str(args.seed), "--child"]
            out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
            times[side].append(json.loads(out.splitlines()[-1]))
    print(f"{args.workload}: {args.runs} alternating pairs of fresh processes, ms, "
          "median [quartiles]")
    print(f"  {'step':<8} {'parent':>27} {'change':>27}  change faster")
    for step in STEPS + ("total",):
        sides = [[sum(t.values()) if step == "total" else t[step] for t in ts] for ts in times]
        wins = sum(c < p for p, c in zip(*sides))
        print(f"  {step:<8} {quartiles(sides[0]):>27} {quartiles(sides[1]):>27}  "
              f"{wins}/{args.runs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
