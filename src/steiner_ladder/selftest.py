"""Quick self-verification used by the ``selftest`` CLI subcommand.

One PASS/FAIL line per check; returns a process exit code.  The heavyweight
9-terminal multiplicity run lives in the test suite, not here.
"""

from __future__ import annotations

import math

from . import dynamics as dyn
from . import ladder
from .analysis import classify, is_decomposable, maxwell_length, trees_mirror_equal
from .solver import solve_exact
from .topology import count_full_topologies, enumerate_full_topologies

ALPHA = math.pi / 36
LAM = 0.5


def run_selftest() -> int:
    checks = [
        ("topology counts 3..7", _check_counts),
        ("unit square baseline", _check_square),
        ("five-terminal block identity", _check_block),
        ("cross-segment network identities", _check_a0),
        ("interval dynamics", _check_dynamics),
        ("admissibility region", _check_region),
    ]
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return 1 if failures else 0


def _check_counts() -> None:
    expected = {3: 1, 4: 3, 5: 15, 6: 105, 7: 945}
    for n, want in expected.items():
        got = count_full_topologies(n)
        assert got == want, f"count({n}) = {got}, want {want}"
    assert len(enumerate_full_topologies(5)) == 15


def _check_square() -> None:
    sol = solve_exact([0, 1, 1 + 1j, 1j], tol=1e-9)
    want = 1 + math.sqrt(3)
    assert abs(sol.best.length - want) < 1e-9, f"length {sol.best.length}"
    assert len(sol.co_optima) == 2, f"{len(sol.co_optima)} co-optima"


def _check_block() -> None:
    pts = [
        ladder.terminal_a(ALPHA, LAM, 1),
        ladder.terminal_a(ALPHA, LAM, 2),
        ladder.terminal_a(ALPHA, LAM, 3),
        ladder.terminal_b(ALPHA, LAM, 1),
        ladder.terminal_b(ALPHA, LAM, 2),
    ]
    sol = solve_exact(pts, tol=1e-9)
    want = (1 - LAM**2) * ladder.closed_form_length_A1(ALPHA, LAM)
    assert abs(sol.best.length - want) <= 1e-9 * want, f"length {sol.best.length} vs {want}"
    assert classify(sol.best) == "full"


def _check_a0() -> None:
    K = 20
    params = ladder.LadderParams(ALPHA, LAM, K)
    tree = ladder.build_ladder_tree_A0(params, "upper")
    closed = ladder.closed_form_length_A0(ALPHA, LAM)
    tol = 1e-6 + LAM ** (K - 1) * closed
    mx, resid = maxwell_length(tree)
    assert abs(tree.length - closed) <= tol
    assert abs(mx - closed) <= tol and resid < 1e-9
    assert not is_decomposable(tree)
    lower = ladder.build_ladder_tree_A0(params, "lower")
    assert trees_mirror_equal(tree, lower, tol=1e-9)


def _check_dynamics() -> None:
    p = dyn.derive_params(ALPHA, LAM, 0.0)
    for t in (0.0, 0.2, 0.7, 0.96):
        want = (LAM * t + 1 - LAM / 2) % 1.0
        assert abs(dyn.inverse_map(p, t) - want) < 1e-14
    pts = dyn.periodic_points(p, 2)
    assert len(pts) == 2 and abs(pts[0] - 1 / 6) < 1e-14 and abs(pts[1] - 5 / 6) < 1e-14, pts


def _check_region() -> None:
    for i in range(1, 101):
        alpha = i * (math.pi / 6) / 101
        for j in range(1, 101):
            lam = j * 0.5 / 100
            if ladder.condition_holds(alpha, lam):
                assert ladder.separation_predicate(alpha, lam), (alpha, lam)
