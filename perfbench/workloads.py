"""Seeded inputs, timed operations and output checks of the four workloads.

Every input is generated here from the workload seed; the library receives
only points, parameters, argument lists and the files this module writes.
An op is one solve, one construction with its cross-check, or one CLI
command.  Seed 0 is the default: it uses alpha = pi/36, lambda = 1/2, the
parameters of the paper's figures and of the test suite.  Other seeds draw
(alpha, lambda) from a small admissible box around it, so that run cost and
the set of failing ops stay the same from seed to seed.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEFAULT_ALPHA = math.pi / 36
DEFAULT_LAM = 0.5
ALPHA_BOX = (math.radians(4.5), math.radians(5.5))
LAM_BOX = (0.49, 0.5)


class CheckFailed(Exception):
    """An op's output is wrong; ``code`` names the check that caught it."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code


@dataclass
class Op:
    label: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    params: dict = field(default_factory=dict)


@dataclass
class Failure:
    label: str
    stage: str  # "run" or "check"
    code: str  # CheckFailed code, or the exception type name
    detail: str
    defect: str | None = None


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def expect(ok: bool, code: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(code, detail)


def close_to(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def draw_params(rng: random.Random, seed: int, count: int) -> list[tuple[float, float]]:
    """``count`` admissible (alpha, lambda) pairs; seed 0 starts at the default."""
    pairs = [(DEFAULT_ALPHA, DEFAULT_LAM)] if seed == 0 else []
    while len(pairs) < count:
        pairs.append((rng.uniform(*ALPHA_BOX), rng.uniform(*LAM_BOX)))
    return pairs


def ladder_points(alpha: float, lam: float, n_a: int, n_b: int) -> list[complex]:
    """Terminals A1..A{n_a} and B1..B{n_b} at distances lam**(k-1) on the angle."""
    return [lam ** (k - 1) * cmath.exp(1j * alpha) for k in range(1, n_a + 1)] + [
        lam ** (k - 1) * cmath.exp(-1j * alpha) for k in range(1, n_b + 1)
    ]


def random_points(rng: random.Random, n: int, min_gap: float = 0.02) -> list[complex]:
    """``n`` points in the unit square, no two closer than ``min_gap``."""
    while True:
        pts = [complex(rng.random(), rng.random()) for _ in range(n)]
        if all(abs(p - q) >= min_gap for i, p in enumerate(pts) for q in pts[i + 1 :]):
            return pts


# ---------------------------------------------------------------------------
# known defects
#
# Each op that fails through one of these counts in ``failed``; the run stays
# correct.  Any other failure makes the run incorrect.

KNOWN_DEFECTS = {
    "a0-deep-maxwell": (
        "classify/maxwell_length fail on A0 trees at depth >= 519 (alpha = pi/36, "
        "lambda = 1/2): the deepest rhombi are too small for the angle checks"
    ),
    "a1-depth41-fusion": (
        "build_ladder_tree_A1 at depth 41 fuses two vertices 1.2e-13 apart through the "
        "absolute merge_trees(tol=1e-13): 140 vertices instead of 141, 21 blocks"
    ),
    "cli-a0-deep-traceback": (
        "construct --family A0 --depth 2000 ends in an uncaught DegenerateInputError "
        "instead of one of the documented exit codes"
    ),
}


def known_defect(workload: str, op: Op, failure: Failure) -> str | None:
    depth = op.params.get("depth", 0)
    if workload == "closed-form":
        if (
            op.kind == "A0"
            and depth >= 500
            and failure.stage == "check"
            and failure.code in ("ParameterError", "DegenerateInputError")
        ):
            return "a0-deep-maxwell"
        if op.kind == "A1" and depth >= 41 and failure.code == "a1.vertex_count":
            return "a1-depth41-fusion"
    if (
        workload == "cli-artifacts"
        and op.kind == "construct-A0"
        and depth >= 2000
        and failure.code == "DegenerateInputError"
    ):
        return "cli-a0-deep-traceback"
    return None


# ---------------------------------------------------------------------------
# solve workloads
#
# Each workload fixes the percentile it reports as ``op_tail_s``: the highest
# one with at least ten samples above it in a typical run.  It is fixed, not
# picked per run, because the number of passes varies with machine load.


class _SolveWorkload:
    """Serial ``solve_exact`` calls; outputs are checked after the timed pass."""

    name = ""
    tol = 1e-9
    verify_in_op = False
    tail_percentile = 98.0

    def __init__(self, lib, seed: int, workdir: Path, reference: dict) -> None:
        self.lib = lib
        self.reference = reference.get(self.name, {}).get(str(seed), {})
        self.instances: list[tuple[str, list[complex]]] = []
        self.warm_instances: list[tuple[str, list[complex]]] = []

    def warm_up(self) -> None:
        for label, pts in self.warm_instances:
            self._check(pts, self.lib.solver.solve_exact(pts, tol=self.tol), None)

    def ops(self, workdir: Path) -> list[Op]:
        return [self._op(label, pts) for label, pts in self.instances]

    def _op(self, label: str, pts: list[complex]) -> Op:
        ref = self.reference.get(label)
        return Op(
            label,
            "solve",
            lambda: self.lib.solver.solve_exact(pts, tol=self.tol),
            lambda sol: self._check(pts, sol, ref),
        )

    def _check(self, pts: list[complex], sol, ref) -> None:
        """MST bound, co-optimum spread, full components, gradient, reference."""
        an = self.lib.analysis
        best = sol.best.length
        mst = self.lib.solver.minimum_spanning_tree(pts).length
        expect(best <= mst * (1.0 + 1e-12), "solve.mst", f"best {best!r} > MST {mst!r}")
        for t in sol.co_optima:
            expect(
                abs(t.length - best) <= self.tol,
                "solve.co_optima",
                f"co-optimum {t.length!r} not within {self.tol} of {best!r}",
            )
        for block in an.block_decompose(sol.best):
            expect(an.classify(block) != "neither", "solve.classify", "component not full")
            mx, resid = an.maxwell_length(block)
            expect(
                close_to(mx, block.length, 1e-9) and resid <= 1e-9 * block.length,
                "solve.maxwell",
                f"component length {block.length!r}, Maxwell {mx!r}, residual {resid!r}",
            )
        grad = an.local_min_gradient(sol.best)
        expect(grad <= 1e-6, "solve.gradient", f"local gradient {grad!r}")
        if ref is not None:
            ref_len, ref_count = ref
            expect(
                close_to(best, ref_len, 1e-9) and len(sol.co_optima) == ref_count,
                "solve.reference",
                f"got ({best!r}, {len(sol.co_optima)}), reference ({ref_len!r}, {ref_count})",
            )


class SolveLadder8(_SolveWorkload):
    """The two 8-terminal A1 ladder sets at tol 1e-8."""

    name = "solve-ladder8"
    tol = 1e-8
    tail_percentile = 100.0  # 2 to 4 solves per run: the slowest one

    def __init__(self, lib, seed, workdir, reference) -> None:
        super().__init__(lib, seed, workdir, reference)
        rng = random.Random(f"{self.name}/{seed}")
        ((alpha, lam),) = draw_params(rng, seed, 1)
        self.instances = [
            ("A1..A4+B1..B4", ladder_points(alpha, lam, 4, 4)),
            ("A1..A5+B1..B3", ladder_points(alpha, lam, 5, 3)),
        ]
        # a 7-terminal ladder solve warms every code path of the 8-terminal ones;
        # it is the same for every seed, so that set-up time does not vary with it
        self.warm_instances = [
            ("A1..A4+B1..B3", ladder_points(DEFAULT_ALPHA, DEFAULT_LAM, 4, 3))
        ]


class SolveSmall(_SolveWorkload):
    """Many small solves, where per-call set-up dominates."""

    name = "solve-small"
    sizes = ((4, 30), (5, 30), (6, 30), (7, 8))

    def __init__(self, lib, seed, workdir, reference) -> None:
        super().__init__(lib, seed, workdir, reference)
        rng = random.Random(f"{self.name}/{seed}")
        ((alpha, lam),) = draw_params(rng, seed, 1)
        self.instances = [
            ("square", [0j, 1 + 0j, 1 + 1j, 1j]),
            ("block5", ladder_points(alpha, lam, 3, 2)),
        ]
        for n, count in self.sizes:
            self.instances += [(f"n{n}#{i}", random_points(rng, n)) for i in range(count)]
        # one solve of every size, so that lazy per-size set-up happens here; the
        # sets are the same for every seed, so that set-up time does not vary with it
        warm_rng = random.Random(f"{self.name}/warm-up")
        self.warm_instances = [
            (f"warm-n{n}", random_points(warm_rng, n)) for n, _c in self.sizes
        ]


# ---------------------------------------------------------------------------
# closed forms, constructions and dynamics


class ClosedForm:
    """Ladder constructions and dynamics, each op cross-checked as it runs."""

    name = "closed-form"
    verify_in_op = True
    tail_percentile = 99.0
    a0_depths = (20, 200, 2000)
    a1_depths = tuple(range(3, 42, 2))
    periods = tuple(range(1, 13))
    orbit_depth = 16

    def __init__(self, lib, seed: int, workdir: Path, reference: dict) -> None:
        self.lib = lib
        rng = random.Random(f"{self.name}/{seed}")
        self.pairs = draw_params(rng, seed, 3)
        self.j_sets = [sorted(rng.sample(range(1, 41), 20)) for _ in self.pairs]

    def warm_up(self) -> None:
        op = self._a0(*self.pairs[0], 20, "upper")
        op.check(op.run())

    def ops(self, workdir: Path) -> list[Op]:
        out: list[Op] = []
        for (alpha, lam), j_set in zip(self.pairs, self.j_sets):
            for depth in self.a0_depths:
                for side in ("upper", "lower"):
                    out.append(self._a0(alpha, lam, depth, side))
            for depth in self.a1_depths:
                m = (depth - 1) // 2
                for word in ("0" * m, "1" * m, ("01" * m)[:m]):
                    out.append(self._a1(alpha, lam, depth, word))
            out.append(self._length_by_j(alpha, lam, j_set))
            for beta in (0.0, alpha):
                for period in self.periods:
                    out.append(self._dynamics(alpha, lam, beta, period))
        return out

    def _a0(self, alpha: float, lam: float, depth: int, side: str) -> Op:
        lad, an = self.lib.ladder, self.lib.analysis

        def run():
            return lad.build_ladder_tree_A0(lad.LadderParams(alpha, lam, depth), side)

        def check(tree) -> None:
            closed = lad.closed_form_length_A0(alpha, lam)
            expect(
                abs(tree.length - closed) <= (lam ** (depth - 1) + 1e-12) * closed,
                "a0.tail",
                f"length {tree.length!r} vs closed form {closed!r}",
            )
            expect(
                close_to(tree.length, (1.0 - lam**depth) * closed, 1e-12),
                "a0.truncation",
                f"length {tree.length!r} vs (1 - lam**K) * closed form",
            )
            mx, resid = an.maxwell_length(tree)
            expect(
                close_to(mx, tree.length, 1e-9) and resid <= 1e-9 * tree.length,
                "a0.maxwell",
                f"Maxwell {mx!r}, residual {resid!r}, length {tree.length!r}",
            )
            if depth <= 20:  # the hull test is quadratic in the vertex count
                expect(an.validate_steiner_geometry(tree).ok, "a0.geometry", "invalid geometry")

        return Op(f"A0 K={depth} {side} ({alpha:.6f}, {lam:.6f})", "A0", run, check,
                  {"depth": depth})

    def _a1(self, alpha: float, lam: float, depth: int, word: str) -> Op:
        lad, an = self.lib.ladder, self.lib.analysis
        m = (depth - 1) // 2

        def run():
            return lad.build_ladder_tree_A1(lad.LadderParams(alpha, lam, depth), word)

        def check(tree) -> None:
            closed = lad.closed_form_length_A1(alpha, lam)
            expect(
                abs(tree.length - closed) <= (lam ** (depth - 1) + 1e-12) * closed,
                "a1.tail",
                f"length {tree.length!r} vs closed form {closed!r}",
            )
            # blocks scale by lam**2, so m of them sum to (1 - lam**(2m)) * closed form
            expect(
                close_to(tree.length, (1.0 - lam ** (depth - 1)) * closed, 1e-12),
                "a1.truncation",
                f"length {tree.length!r} vs (1 - lam**(K-1)) * closed form",
            )
            # m blocks of 8 vertices, consecutive blocks share one hinge
            expect(
                len(tree.vertices) == 7 * m + 1,
                "a1.vertex_count",
                f"{len(tree.vertices)} vertices, want {7 * m + 1}",
            )
            blocks = an.block_decompose(tree)
            kinds = [an.classify(b) for b in blocks]
            expect(
                len(blocks) == m and all(k == "full" for k in kinds),
                "a1.blocks",
                f"{len(blocks)} blocks ({kinds.count('full')} full), want {m} full",
            )
            # a hinge between a mirrored and an unmirrored block is not a 120-degree
            # joint, so the Maxwell form applies block by block
            for block in blocks:
                mx, resid = an.maxwell_length(block)
                expect(
                    close_to(mx, block.length, 1e-9) and resid <= 1e-9 * block.length,
                    "a1.maxwell",
                    f"Maxwell {mx!r}, residual {resid!r}, block length {block.length!r}",
                )
            expect(an.validate_steiner_geometry(tree).ok, "a1.geometry", "invalid geometry")

        return Op(f"A1 K={depth} {word} ({alpha:.6f}, {lam:.6f})", "A1", run, check,
                  {"depth": depth})

    def _length_by_j(self, alpha: float, lam: float, j_set: list[int]) -> Op:
        lad = self.lib.ladder
        k = 60
        odds = range(1, k + 1, 2)
        rest = [j for j in range(1, k + 1) if j not in j_set]

        def run():
            return (
                lad.length_by_J(alpha, lam, odds, k),
                lad.length_by_J(alpha, lam, j_set, k),
                lad.length_by_J(alpha, lam, rest, k),
                lad.length_by_J(alpha, lam, range(1, k + 1), k),
            )

        def check(lengths) -> None:
            by_odds, by_j, by_rest, by_all = lengths
            closed = lad.closed_form_length_A1(alpha, lam)
            expect(close_to(by_odds, closed, 1e-12), "j.closed_form",
                   f"odd bends {by_odds!r} vs closed form {closed!r}")
            expect(close_to(by_j, by_rest, 1e-12), "j.symmetry",
                   f"J {by_j!r} vs complement {by_rest!r}")
            expect(by_all > by_odds, "j.order", "bending one way is not longer")

        return Op(f"length_by_J ({alpha:.6f}, {lam:.6f})", "J", run, check)

    def _dynamics(self, alpha: float, lam: float, beta: float, period: int) -> Op:
        dyn, lad, an = self.lib.dynamics, self.lib.ladder, self.lib.analysis
        depth = self.orbit_depth

        def run():
            p = dyn.derive_params(alpha, lam, beta)
            out = []
            for t in dyn.periodic_points(p, period):
                orbit = dyn.iterate(p, t, depth, "inverse")
                # an inverse orbit read backwards is a forward trajectory
                forward = dyn.Orbit(tuple(reversed(orbit.values)))
                tree = dyn.tree_from_orbit(p, lad.LadderParams(alpha, lam, depth), forward, depth)
                out.append((t, forward, tree, dyn.orbit_from_tree(tree, p)))
            return p, out

        def check(result) -> None:
            p, out = result
            for t, forward, tree, back in out:
                cur = t
                for _ in range(period):
                    cur = dyn.inverse_map(p, cur)
                expect(abs(cur - t) <= 1e-12, "dyn.period", f"{t!r} is not {period}-periodic")
                expect(an.classify(tree) != "neither", "dyn.classify", "network not full*")
                gap = max(abs(a - b) for a, b in zip(back.values, forward.values))
                expect(
                    len(back.values) >= depth and gap <= 1e-9,
                    "dyn.round_trip",
                    f"orbit -> tree -> orbit differs by {gap!r}",
                )

        return Op(f"dynamics period={period} beta={beta:.6f} ({alpha:.6f}, {lam:.6f})",
                  "dynamics", run, check)


# ---------------------------------------------------------------------------
# command line


class CliArtifacts:
    """A fixed script of in-process ``cli.main`` commands writing real files."""

    name = "cli-artifacts"
    verify_in_op = False
    tail_percentile = 90.0

    def __init__(self, lib, seed: int, workdir: Path, reference: dict) -> None:
        self.lib = lib
        rng = random.Random(f"{self.name}/{seed}")
        ((alpha, lam),) = draw_params(rng, seed, 1)
        self.alpha, self.lam = alpha, lam
        labels = ["A1", "A2", "A3", "B1", "B2"]
        pts = ladder_points(alpha, lam, 3, 2)
        self.instance = json.dumps(
            {
                "schema": "steiner-ladder/instance-v1",
                "terminals": [
                    {"label": lab, "x": fmt(p.real), "y": fmt(p.imag)}
                    for lab, p in zip(labels, pts)
                ],
            },
            indent=2,
        )
        self.workdir = workdir

    def warm_up(self) -> None:
        d = self.workdir / "warm-up"
        d.mkdir()
        ops = self.ops(d)
        ops[0].check(ops[0].run())

    def _angle(self, d: Path, family: str, depth: int, name: str, render: bool) -> list[str]:
        argv = ["construct", "--family", family, "--alpha", repr(self.alpha),
                "--lambda", repr(self.lam), "--depth", str(depth), "--out", str(d / name)]
        if render:
            argv += ["--render", str(d / (name + ".svg"))]
        return argv

    def ops(self, d: Path) -> list[Op]:
        inst = d / "instance.json"
        inst.write_text(self.instance)
        script = [
            ("solve", ["solve", str(inst), "--out", str(d / "solve.json"),
                       "--render", str(d / "solve.json.svg")], {}, ["solve.json"]),
            ("construct-A0", self._angle(d, "A0", 500, "a0.json", True), {"depth": 500},
             ["a0.json"]),
            ("render", ["render", str(d / "a0.json"), "--out", str(d / "render.svg")], {}, []),
            ("construct-A1", self._angle(d, "A1", 39, "a1.json", False), {"depth": 39},
             ["a1.json"]),
            ("dynamics", ["dynamics", "--alpha", repr(self.alpha), "--lambda", repr(self.lam),
                          "--periodic", "12", "--out", str(d / "orbit.csv"),
                          "--tree-out", str(d / "dyn.json")], {}, ["dyn.json"]),
            ("region", ["region", "--out", str(d / "region.csv")], {}, []),
            ("construct-A0", self._angle(d, "A0", 2000, "a0deep.json", False), {"depth": 2000},
             ["a0deep.json"]),
        ]
        return [
            Op(" ".join(argv[:1] + [f"{k}={v}" for k, v in params.items()]), kind,
               self._runner(argv), self._checker(d, kind, trees), params)
            for kind, argv, params, trees in script
        ]

    def _runner(self, argv: list[str]):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lib.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return run

    def _checker(self, d: Path, kind: str, trees: list[str]):
        ser = self.lib.serialization

        def check(result) -> None:
            code, out, err = result
            expect(code == 0, "cli.exit", f"exit code {code}: {err.strip()}")
            record = json.loads(out) if out.strip() else None
            for name in trees:
                tree = ser.tree_from_json((d / name).read_text())
                expect(
                    record is not None and float(record["length"]) == tree.length,
                    "cli.parse_back",
                    f"{name} parses to length {tree.length!r}, record says "
                    f"{record and record['length']}",
                )
                svg = d / (name + ".svg")
                if svg.exists():
                    _check_svg(svg, len(tree.edges))
            if kind == "render":
                tree = ser.tree_from_json((d / "a0.json").read_text())
                _check_svg(d / "render.svg", len(tree.edges))
            if kind == "dynamics":
                rows = (d / "orbit.csv").read_text().splitlines()[1:]
                expect(len(rows) == record["co_optima"], "cli.orbit_csv",
                       f"{len(rows)} orbit rows, record says {record['co_optima']}")
            if kind == "region":
                rows = (d / "region.csv").read_text().splitlines()[1:]
                expect(len(rows) == record["co_optima"] == 100 * 100, "cli.region_csv",
                       f"{len(rows)} region rows, record says {record['co_optima']}")

        return check


def _check_svg(path: Path, n_edges: int) -> None:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckFailed("cli.svg", f"{path.name} is not well-formed: {exc}") from exc
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    expect(len(lines) >= n_edges, "cli.svg", f"{path.name}: {len(lines)} lines < {n_edges} edges")


WORKLOADS = {w.name: w for w in (SolveLadder8, SolveSmall, ClosedForm, CliArtifacts)}
