"""Compare the tree checks of two checkouts, result by result.

Each checkout runs in its own ``python3`` process, importing its own ``src/``
and its own ``perfbench`` inputs.  A process builds the trees of the
``closed-form`` ops and the optima of the ``solve-small`` ops for each seed,
splits every tree with ``block_decompose``, and for each tree and block records
``EmbeddedTree.build``'s output (the tree itself), ``classify``,
``maxwell_length``, ``block_decompose``, ``validate_steiner_geometry``,
``local_min_gradient``, ``wind_rose``, ``diameter``, ``is_connected`` and
``is_acyclic``.  A result is its ``repr`` (floats print exactly), or the
exception's type and message.  Not a pytest module; run it from anywhere:

    python3 tests/compare_outputs.py PARENT CHANGE --seeds 0 1 2 3

It prints the number of trees and results, then the differing results
grouped by check and by the two outcomes, and exits 1 when any differs.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path


def _result(fn, *args) -> str:
    """A digest of the result's ``repr``, or the exception's type and message."""
    try:
        return hashlib.sha256(repr(fn(*args)).encode()).hexdigest()[:16]
    except Exception as exc:  # the exception is the result
        return f"{type(exc).__name__}: {exc}"


def emit(root: Path, seeds: list[int]) -> None:
    """Print one ``label<TAB>check<TAB>result`` line per result."""
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import run
    import workloads

    lib = run.Library()
    an, EmbeddedTree = lib.analysis, lib.trees.EmbeddedTree
    checks = {
        "build": repr,
        "classify": an.classify,
        "maxwell_length": an.maxwell_length,
        "block_decompose": an.block_decompose,
        "validate_steiner_geometry": an.validate_steiner_geometry,
        "local_min_gradient": an.local_min_gradient,
        "wind_rose": an.wind_rose,
        "diameter": EmbeddedTree.diameter,
        "is_connected": EmbeddedTree.is_connected,
        "is_acyclic": EmbeddedTree.is_acyclic,
    }
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            trees = []
            for cls in (workloads.ClosedForm, workloads.SolveSmall):
                for op in cls(lib, seed, Path(tmp), {}).ops(Path(tmp)):
                    out = op.run()
                    if isinstance(out, EmbeddedTree):
                        trees.append((op.label, out))
                    elif op.kind == "dynamics":
                        trees += [(f"{op.label} t={t!r}", tree) for t, _, tree, _ in out[1]]
                    elif hasattr(out, "co_optima"):
                        trees += [(f"{op.label} #{i}", t) for i, t in enumerate(out.co_optima)]
            for label, tree in trees:
                blocks = an.block_decompose(tree)
                for i, t in enumerate([tree] + (blocks if len(blocks) > 1 else [])):
                    for name, check in checks.items():
                        print(f"seed {seed} {label} block {i}\t{name}\t{_result(check, t)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        emit(args.parent.resolve(), args.seeds)
        return 0
    sides = []
    for root in (args.parent, args.change):
        argv = [sys.executable, __file__, str(root.resolve()), str(root.resolve()), "--emit"]
        out = subprocess.run(argv + ["--seeds", *map(str, args.seeds)], capture_output=True,
                             text=True, check=True).stdout
        sides.append(out.splitlines())
    parent, change = sides
    differ = [(a, b) for a, b in zip(parent, change) if a != b]
    trees = sum(line.split("\t")[1] == "build" for line in parent)
    print(f"{trees} trees and blocks, {len(parent)} results at the parent, {len(change)} with "
          f"the change, {len(differ) + abs(len(parent) - len(change))} differ")
    # differing results grouped by check and by the two results
    kinds = Counter((a.split("\t")[1], a.split("\t")[2], b.split("\t")[2]) for a, b in differ)
    for (name, was, now), count in sorted(kinds.items()):
        print(f"  {count} x {name}: {was} -> {now}")
    return 1 if differ or len(parent) != len(change) else 0


if __name__ == "__main__":
    sys.exit(main())
