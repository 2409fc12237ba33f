"""Benchmark of the steiner_ladder library, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload solve-small --seed 0 --seconds 32 --trace 0

The library is imported from ``src/`` next to this directory.  Set-up (a
fresh import, input generation and a warm-up op) is repeated and its median
reported.  With ``--trace 0`` timed passes run serially, with no pool and no
threads, until the next pass would overrun ``--seconds``; every op output is
checked and every end-to-end metric printed.  With ``--trace 1`` one traced
pass and one untraced pass run and the per-layer metrics are printed.  The
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record, with the seed, the failures and the machine's provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "steiner_ladder"
LAYER_MODULES = ("solver", "topology", "trees", "ladder", "analysis", "dynamics",
                 "serialization", "cli")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Library:
    """A fresh import of the package from ``src/``."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        pkg = importlib.import_module(PACKAGE)
        origin = Path(pkg.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise ImportError(f"{PACKAGE} was imported from {origin}, not from {SRC}")
        for name in LAYER_MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))

    def modules(self) -> dict:
        prefix = PACKAGE + "."
        return {
            name[len(prefix):]: mod
            for name, mod in sys.modules.items()
            if name.startswith(prefix) and mod is not None
        }


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    op_s: list[float]
    failures: list[workloads.Failure] = field(default_factory=list)


def _failure(op: workloads.Op, stage: str, exc: Exception) -> workloads.Failure:
    code = exc.code if isinstance(exc, workloads.CheckFailed) else type(exc).__name__
    return workloads.Failure(op.label, stage, code, str(exc)[:300])


def run_pass(workload, workdir: Path, tracer: tracing.Tracer | None = None) -> PassResult:
    """Time every op of one pass, then check the outputs not checked inside ops."""
    span = tracer.span if tracer is not None else (lambda _name: contextlib.nullcontext())
    ops = workload.ops(workdir)
    outputs: list = []
    failed: set[int] = set()
    result = PassResult(0.0, 0.0, [])
    c0, t0 = time.process_time(), time.perf_counter()
    for i, op in enumerate(ops):
        start = time.perf_counter()
        with span(tracing.OP):
            out = None
            try:
                out = op.run()
            except Exception as exc:
                result.failures.append(_failure(op, "run", exc))
                failed.add(i)
            if workload.verify_in_op and i not in failed:
                with span(tracing.VERIFY):
                    try:
                        op.check(out)
                    except Exception as exc:
                        result.failures.append(_failure(op, "check", exc))
                        failed.add(i)
        result.op_s.append(time.perf_counter() - start)
        outputs.append(out)
    result.wall_s = time.perf_counter() - t0
    result.cpu_s = time.process_time() - c0
    if not workload.verify_in_op:
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if i in failed:
                continue
            with span(tracing.VERIFY):
                try:
                    op.check(out)
                except Exception as exc:
                    result.failures.append(_failure(op, "check", exc))
    by_label = {op.label: op for op in ops}
    for f in result.failures:
        f.defect = workloads.known_defect(workload.name, by_label[f.label], f)
    return result


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs) - 1e-9))
    return xs[rank - 1], len(xs) - rank


def provenance() -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def _git_sha() -> str | None:
    """HEAD commit read from ``.git`` directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup(workload_cls, seed: int, workdir: Path, reference: dict):
    """Import, generate inputs and run the warm-up op; return the last set-up."""
    times = []
    for i in range(SETUP_REPEATS):
        d = workdir / f"setup{i}"
        d.mkdir()
        t0 = time.perf_counter()
        lib = Library()
        workload = workload_cls(lib, seed, d, reference)
        workload.warm_up()
        times.append(time.perf_counter() - t0)
    return workload, times


def timed_passes(workload, workdir: Path, seconds: float) -> list[PassResult]:
    """Run passes until the next one, at the median pass time, would overrun."""
    passes: list[PassResult] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        d = workdir / f"pass{len(passes)}"
        d.mkdir()
        passes.append(run_pass(workload, d))
        shutil.rmtree(d)
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return passes


def end_to_end(workload, passes: list[PassResult], setup_s: list[float]) -> tuple[dict, dict]:
    op_s = [t for p in passes for t in p.op_s]
    # each op's mean time over the passes, then the median over the ops of a
    # pass: a median over all samples is the time of one op kind (region on
    # cli-artifacts), whose samples contention phases split between a fast and
    # a slow mode, and such a median jumps between the two
    per_op = [statistics.fmean(times) for times in zip(*(p.op_s for p in passes))]
    tail_value, beyond = percentile(op_s, workload.tail_percentile)
    # machine contention comes in phases of several seconds; a mean over the
    # passes moves smoothly with the share of slow phases, where a median of
    # pass times jumps between the fast and the slow mode
    wall = sum(p.wall_s for p in passes)
    values = {
        "wall_s": wall / len(passes),
        "cpu_s": sum(p.cpu_s for p in passes) / len(passes),
        "ops_per_s": len(op_s) / wall,
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": tail_value,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"op_tail_percentile": workload.tail_percentile, "op_tail_samples_beyond": beyond,
            "op_samples": len(op_s), "passes": len(passes),
            "pass_wall_s": [p.wall_s for p in passes], "pass_cpu_s": [p.cpu_s for p in passes],
            "setup_runs_s": setup_s}
    return values, info


def per_layer(tracer: tracing.Tracer, traced: PassResult, untraced: PassResult) -> dict:
    values = {}
    for layer in tracing.LAYERS:
        for f in layer.fields:
            values[f"{layer.name}.{f}"] = tracer.metric(layer, f)
    rec = tracer.stats.get("solver._reconstruct")
    calls = rec.counts["calls"] if rec else 0
    verify = tracer.stats.get(tracing.VERIFY)
    attempted = len(traced.op_s) + len(untraced.op_s)
    values.update({
        "solver.reconstruct_accept_ratio": rec.counts["accepted"] / calls if calls else 0.0,
        "bench.verify.calls": verify.counts["calls"] if verify else 0,
        "bench.verify.self_s": verify.self_s if verify else 0.0,
        "bench.failed_ratio": (len(traced.failures) + len(untraced.failures)) / attempted,
        "bench.untraced_wall_s": untraced.wall_s,
        "bench.traced_wall_s": traced.wall_s,
        "bench.trace_overhead_s": traced.wall_s - untraced.wall_s,
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    prov = provenance()
    ref_path = HERE / "reference.json"
    reference = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    workload_cls = workloads.WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as tmp:
        workdir = Path(tmp)
        workload, setup_s = setup(workload_cls, args.seed, workdir, reference)
        if args.trace:
            tracer = tracing.Tracer()
            (workdir / "traced").mkdir()
            (workdir / "untraced").mkdir()
            # the traced pass comes first, so caches filled lazily show in its counts
            with tracing.instrumented(workload.lib, tracer):
                traced = run_pass(workload, workdir / "traced", tracer)
            untraced = run_pass(workload, workdir / "untraced")
            passes = [traced, untraced]
            values = per_layer(tracer, traced, untraced)
            units = tracing.metric_units()
            info = {"passes": 2}
        else:
            passes = timed_passes(workload, workdir, args.seconds)
            values, info = end_to_end(workload, passes, setup_s)
            units = END_TO_END_UNITS

    attempted = sum(len(p.op_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    unexpected = [f for f in failures if f.defect is None]
    defects = Counter(f.defect for f in failures if f.defect)
    distinct = Counter((f.label, f.stage, f.code, f.defect) for f in failures)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  ops {attempted}  failed {len(failures)}")
    for name, value in values.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}")
    print(f"  {'failed_ratio':<48} {len(failures) / attempted:>16.6g} ratio")
    for name, count in defects.items():
        print(f"  known defect {name}: {count} ops; {workloads.KNOWN_DEFECTS[name]}")
    for f in unexpected[:20]:
        print(f"  UNEXPECTED FAILURE {f.label} [{f.stage}] {f.code}: {f.detail}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": prov,
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "known_defects": defects,
        "failures": [
            {"op": label, "stage": stage, "code": code, "defect": defect, "count": count}
            for (label, stage, code, defect), count in distinct.items()
        ],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        **info,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
