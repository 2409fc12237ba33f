"""Span tracing for the benchmark's traced run.

Library functions are wrapped by rebinding module attributes; callers look
the names up at call time, so every call through a module global goes through
the wrapper.  A function imported into another module (``solver`` imports
``iter_full_topologies``, ``ladder`` imports ``minimal_full_tree`` and
``merge_trees``, ``cli`` imports ``solve_exact`` and the ``analysis``
checks) is rebound there as well: every attribute of every package module
that holds the original object is replaced.

Each span records its name, start, end and parent.  Spans are folded into
per-name totals when they close, so memory stays flat over the millions of
``_reconstruct`` calls of one solve.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0


@dataclass
class LayerStats:
    """Totals of every closed span of one name, plus the layer's counters."""

    self_s: float = 0.0
    counts: Counter = field(default_factory=Counter)


# counters taken from a call's arguments and result, at the layer boundary
def _dfs_leaves(c, args, result):
    c["dfs_leaves"] += 2 ** args[1].n_steiner


def _accepted(c, args, result):
    c["accepted"] += result is not None


def _structures(c, args, result):
    c["structures"] += len(result)


def _rejects(c, args, result):
    c["rejects"] += bool(result)


def _merged(c, args, result):
    c["merged"] += len(args[0]) - len(result)


def _vertices(c, args, result):
    c["vertices"] += len(result.vertices)


def _result_bytes(c, args, result):
    c["bytes"] += len(result.encode())


def _written_bytes(c, args, result):
    c["bytes"] += len(args[1].encode())


def _nonzero_exit(c, args, result):
    c["nonzero_exit"] += result != 0


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str  # "EmbeddedTree.build" names a classmethod
    fields: tuple[str, ...]
    counter: Callable | None = None
    generator: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


LAYERS = (
    Layer("solver", "solve_exact", ("calls", "self_s")),
    Layer("solver", "_full_component_table", ("self_s",)),
    Layer("topology", "iter_full_topologies", ("calls", "yielded", "self_s"), generator=True),
    Layer("solver", "_merge_plan", ("calls", "self_s")),
    Layer("solver", "_scan_topology", ("calls", "dfs_leaves"), _dfs_leaves),
    Layer("solver", "_reconstruct", ("calls", "accepted", "self_s"), _accepted),
    Layer("solver", "_tree_from_candidate", ("calls", "accepted", "self_s"), _accepted),
    Layer("solver", "_hypertree_dp", ("self_s",)),
    Layer("solver", "_enumerate_structures", ("self_s", "structures"), _structures),
    Layer("solver", "_assemble", ("calls", "self_s")),
    Layer("solver", "_has_crossing", ("calls", "rejects", "self_s"), _rejects),
    Layer("solver", "_dedupe", ("self_s", "merged"), _merged),
    Layer("solver", "minimal_full_tree", ("calls", "self_s")),
    Layer("trees", "EmbeddedTree.build", ("calls", "self_s")),
    Layer("trees", "merge_trees", ("calls", "self_s")),
    Layer("ladder", "build_ladder_tree_A0", ("calls", "self_s", "vertices"), _vertices),
    Layer("ladder", "build_ladder_tree_A1", ("calls", "self_s")),
    Layer("analysis", "classify", ("calls", "self_s")),
    Layer("analysis", "maxwell_length", ("calls", "self_s")),
    Layer("analysis", "block_decompose", ("calls", "self_s")),
    Layer("analysis", "validate_steiner_geometry", ("calls", "self_s")),
    Layer("dynamics", "periodic_points", ("calls", "self_s")),
    Layer("dynamics", "iterate", ("calls", "self_s")),
    Layer("dynamics", "tree_from_orbit", ("calls", "self_s")),
    Layer("dynamics", "orbit_from_tree", ("calls", "self_s")),
    Layer("serialization", "tree_to_json", ("calls", "self_s")),
    Layer("serialization", "tree_from_json", ("calls", "self_s")),
    Layer("serialization", "instance_from_json", ("calls", "self_s")),
    Layer("serialization", "svg_render", ("calls", "self_s", "bytes"), _result_bytes),
    Layer("serialization", "atomic_write", ("calls", "self_s", "bytes"), _written_bytes),
    Layer("cli", "main", ("calls", "self_s", "nonzero_exit", "exceptions"), _nonzero_exit),
)

VERIFY = "bench.verify"
OP = "bench.op"

# metrics the traced run derives from several spans or from the run itself
DERIVED = {
    "solver.reconstruct_accept_ratio": "ratio",
    "bench.verify.calls": "count",
    "bench.verify.self_s": "s",
    "bench.failed_ratio": "ratio",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer in LAYERS:
        for f in layer.fields:
            out[f"{layer.name}.{f}"] = "s" if f.endswith("_s") else (
                "bytes" if f == "bytes" else "count"
            )
    out.update(DERIVED)
    return out


class Tracer:
    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.stats: dict[str, LayerStats] = {}

    def _stats(self, name: str) -> LayerStats:
        return self.stats.setdefault(name, LayerStats())

    @contextlib.contextmanager
    def span(self, name: str):
        stat = self._stats(name)
        stack = self.stack
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        try:
            yield
        finally:
            self._close(span, stat)
            stat.counts["calls"] += 1

    def _close(self, span: Span, stat: LayerStats) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        dur = span.end - span.start
        if span.parent is not None:
            span.parent.child_s += dur
        stat.self_s += dur - span.child_s

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        stat = self._stats(layer.name)
        stack = self.stack
        clock = time.perf_counter
        close = self._close
        counter = layer.counter
        name = layer.name

        if layer.generator:
            def traced_gen(gen):
                while True:
                    span = Span(name, clock(), stack[-1] if stack else None)
                    stack.append(span)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(span, stat)
                    stat.counts["yielded"] += 1
                    yield item

            def gen_wrapper(*args, **kwargs):
                stat.counts["calls"] += 1
                return traced_gen(fn(*args, **kwargs))

            return gen_wrapper

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.counts["exceptions"] += 1
                raise
            finally:
                close(span, stat)
                stat.counts["calls"] += 1
            if counter is not None:
                counter(stat.counts, args, result)
            return result

        return wrapper

    def metric(self, layer: Layer, f: str) -> float:
        stat = self.stats.get(layer.name, LayerStats())
        return stat.self_s if f == "self_s" else stat.counts[f]


@contextlib.contextmanager
def instrumented(lib, tracer: Tracer):
    """Rebind every traced function in every package module; undo on exit."""
    modules = lib.modules()
    undo: list[tuple[object, str, object]] = []
    try:
        for layer in LAYERS:
            owner = modules[layer.module]
            attr = layer.attr
            if "." in attr:  # classmethod on a class of the module
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                undo.append((cls, attr, orig))
                setattr(cls, attr, classmethod(tracer.wrap(layer, orig.__func__)))
                continue
            orig = getattr(owner, attr)
            wrapped = tracer.wrap(layer, orig)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        yield
    finally:
        for target, key, orig in reversed(undo):
            setattr(target, key, orig)
