"""Command line front end.

Exit codes: 0 success, 2 parse/format error, 3 instance size/shape not
solvable, 4 admissibility condition violated.  ``main`` is the one place
that maps a library exception to its exit code.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from . import dynamics as dyn
from . import ladder, serialization as ser
from .analysis import block_decompose, classify, maxwell_length
from .errors import ForbiddenPointError, ParameterError
from .solver import MAX_TERMINALS, solve_exact
from .trees import TerminalSet

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_CONDITION = 4


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="steiner-ladder",
        description="Exact Steiner trees on small point sets and self-similar ladder networks",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact Steiner tree of an instance file")
    p.add_argument("instance")
    p.add_argument("--tol", type=float, default=1e-9, help="tolerance, in terminal spans")
    p.add_argument("--out", required=True, help="tree JSON output path")
    p.add_argument("--render", help="also write an SVG figure here")
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("construct", help="build an explicit ladder network")
    p.add_argument("--family", choices=("A0", "A1"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--word", help="mirror word for family A1, e.g. 0100")
    p.add_argument("--side", choices=("upper", "lower"), default="upper")
    p.add_argument("--out", required=True, help="tree JSON output path")
    p.add_argument("--render", help="also write an SVG figure here")
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("dynamics", help="iterate the interval contraction")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--t0", type=float)
    start.add_argument("--periodic", type=int, help="use the smallest point of this period")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--direction", choices=("forward", "inverse"), default="inverse")
    p.add_argument("--out", required=True, help="orbit CSV output path")
    p.add_argument("--tree-out", help="also reconstruct the network into this tree file")
    p.add_argument("--depth", type=int, help="network depth for --tree-out")
    p.set_defaults(run=_cmd_dynamics)

    p = sub.add_parser("region", help="tabulate the admissibility predicates on a grid")
    p.add_argument("--alpha-steps", type=int, default=100)
    p.add_argument("--lambda-steps", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_region)

    p = sub.add_parser("render", help="render a tree file to SVG")
    p.add_argument("tree")
    p.add_argument("--out", required=True)
    p.add_argument("--instance", help="overlay the instance (angle sides, terminals)")
    p.add_argument("--width", type=int, default=800)
    p.set_defaults(run=_cmd_render)

    p = sub.add_parser("selftest", help="run the quick verification suite")
    p.set_defaults(run=_cmd_selftest)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ser.InstanceFormatError, OSError) as exc:
        return _fail(exc, EXIT_PARSE)
    except (ParameterError, ForbiddenPointError) as exc:
        return _fail(exc, EXIT_CONDITION)


def _fail(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_solve(args) -> int:
    if not args.tol >= 0:
        return _fail(f"--tol must be zero or more, got {args.tol!r}", EXIT_PARSE)
    ts = ser.instance_from_json(Path(args.instance).read_text(encoding="utf-8"))
    if ts.segment is not None:
        return _fail("instances with a continuum segment cannot be solved", EXIT_SIZE)
    if not 2 <= len(ts) <= MAX_TERMINALS:
        return _fail(f"solve handles 2..{MAX_TERMINALS} terminals, got {len(ts)}", EXIT_SIZE)
    t0 = time.perf_counter()
    sol = solve_exact(ts, tol=args.tol)
    dt = time.perf_counter() - t0
    ser.atomic_write(args.out, ser.tree_to_json(sol.best))
    if args.render:
        ser.atomic_write(args.render, ser.svg_render(sol.best, instance=ts))
    rec = ser.ResultRecord(args.instance, "exact", sol.best.length, len(sol.co_optima), dt)
    print(rec.to_json())
    return EXIT_OK


def _cmd_construct(args) -> int:
    t0 = time.perf_counter()
    params = ladder.LadderParams(args.alpha, args.lam, args.depth)
    if args.family == "A0":
        tree = ladder.build_ladder_tree_A0(params, args.side)
        closed = ladder.closed_form_length_A0(args.alpha, args.lam)
    else:
        word = args.word if args.word is not None else "0" * ((args.depth - 1) // 2)
        tree = ladder.build_ladder_tree_A1(params, word)
        closed = ladder.closed_form_length_A1(args.alpha, args.lam)
    dt = time.perf_counter() - t0
    ser.atomic_write(args.out, ser.tree_to_json(tree))
    if args.render:
        inst = ladder.build_input(params, args.family)
        ser.atomic_write(args.render, ser.svg_render(tree, instance=inst))
    kind = classify(tree)
    extra = {
        "classification": kind,
        "closed_form": ser.fmt(closed),
        "tail_bound": ser.fmt(args.lam ** (args.depth - 1) * closed),
    }
    if kind != "neither":
        mx, resid = maxwell_length(tree)
        extra["maxwell"] = ser.fmt(mx)
        extra["maxwell_residual"] = ser.fmt(resid)
    if args.family == "A1":
        blocks = block_decompose(tree)
        extra["blocks"] = [
            sorted(ser.fmt(abs(v)) for v, r in zip(b.vertices, b.roles) if r == "terminal")
            for b in blocks
        ]
    rec = ser.ResultRecord(
        f"{args.family}(alpha={args.alpha}, lambda={args.lam}, depth={args.depth})",
        "closed_form",
        tree.length,
        1,
        dt,
        extra=extra,
    )
    print(rec.to_json())
    return EXIT_OK


def _cmd_dynamics(args) -> int:
    t0 = time.perf_counter()
    p = dyn.derive_params(args.alpha, args.lam, args.beta)
    if args.periodic is not None:
        points = dyn.periodic_points(p, args.periodic)
        if not points:
            raise ParameterError(f"no admissible point of period {args.periodic}")
        start = points[0]
    else:
        start = args.t0
    orbit = dyn.iterate(p, start, args.steps, args.direction)
    heights = dyn.orbit_heights(p, orbit)
    branches = []
    for v in orbit.values:
        if min(v, 1.0 - v) <= 1e-12:
            branches.append("corner")
        elif v < p.t_star:
            branches.append("up")
        else:
            branches.append("down")
    ser.atomic_write(
        args.out,
        ser.orbit_to_csv(orbit.values, heights, branches, orbit.status, orbit.start_index),
    )
    if args.tree_out:
        depth = len(orbit.values) if args.depth is None else args.depth
        if orbit.status != "ok" or len(orbit.values) < depth:
            raise ParameterError("orbit stopped early; cannot build the network")
        ldr = ladder.LadderParams(args.alpha, args.lam, depth)
        # an inverse orbit read backwards is the forward trajectory
        build = orbit if args.direction == "forward" else dyn.Orbit(
            tuple(reversed(orbit.values))
        )
        tree = dyn.tree_from_orbit(p, ldr, build, depth)
        ser.atomic_write(args.tree_out, ser.tree_to_json(tree))
    dt = time.perf_counter() - t0
    print(
        ser.ResultRecord(
            f"dynamics(alpha={args.alpha}, lambda={args.lam}, beta={args.beta})",
            "dynamics",
            0.0 if not args.tree_out else tree.length,
            len(orbit.values),
            dt,
            extra={"status": orbit.status, "t_star": ser.fmt(p.t_star), "t2": ser.fmt(p.t2)},
        ).to_json()
    )
    return EXIT_OK


def _cmd_region(args) -> int:
    t0 = time.perf_counter()
    rows = []
    na, nl = args.alpha_steps, args.lambda_steps
    if min(na, nl) < 1:
        raise ParameterError(f"grid steps must be 1 or more, got {na} and {nl}")
    for i in range(1, na + 1):
        alpha = i * (math.pi / 6) / (na + 1)
        for j in range(1, nl + 1):
            lam = j * 0.5 / nl
            rows.append(
                (
                    alpha,
                    lam,
                    ladder.condition_holds(alpha, lam),
                    ladder.separation_predicate(alpha, lam),
                )
            )
    ser.atomic_write(args.out, ser.region_to_csv(rows))
    dt = time.perf_counter() - t0
    print(ser.ResultRecord("region", "region", 0.0, len(rows), dt).to_json())
    return EXIT_OK


def _cmd_render(args) -> int:
    tree = ser.tree_from_json(Path(args.tree).read_text(encoding="utf-8"))
    instance: TerminalSet | None = None
    if args.instance:
        instance = ser.instance_from_json(Path(args.instance).read_text(encoding="utf-8"))
    ser.atomic_write(args.out, ser.svg_render(tree, instance=instance, width=args.width))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest()


if __name__ == "__main__":
    sys.exit(main())
