"""Record the reference solve results that run.py checks against.

Run from the repository root, at a commit whose solver is trusted:

    python3 perfbench/make_reference.py

For seeds 0..9 of each solve workload, stores every op's best length and
co-optimum count in ``perfbench/reference.json``.  The other checks of a
solve (MST bound, full components, gradient) run on every seed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lib = run.Library()
    out: dict = {}
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=run.HERE) as tmp:
        for cls in (workloads.SolveLadder8, workloads.SolveSmall):
            for seed in SEEDS:
                workload = cls(lib, seed, Path(tmp), {})
                entry = out.setdefault(cls.name, {}).setdefault(str(seed), {})
                for op in workload.ops(Path(tmp)):
                    sol = op.run()
                    op.check(sol)
                    entry[op.label] = [sol.best.length, len(sol.co_optima)]
                print(f"{cls.name} seed {seed}: {len(entry)} ops", flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
