"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line per
criterion.  Criterion 4 takes its expected co-optima on the nine-terminal
instance from the mirror-word construction: of the 2**k words of the k = 2
block chain, those whose terminal set is the instance, 2**(k-1) = 2 of them.
"""

import itertools
import math
import time

import pytest

from steiner_ladder.analysis import (
    block_decompose,
    classify,
    is_decomposable,
    local_min_gradient,
    maxwell_length,
    self_similarity_defect,
    trees_mirror_equal,
)
from steiner_ladder.dynamics import (
    derive_params,
    inverse_map,
    iterate,
    orbit_from_tree,
    periodic_points,
    tree_from_orbit,
)
from steiner_ladder.ladder import (
    LadderParams,
    separation_predicate,
    build_input,
    build_ladder_tree_A0,
    build_ladder_tree_A1,
    closed_form_length_A0,
    closed_form_length_A1,
    condition_holds,
    segment_radius,
    x_offset,
)
from steiner_ladder.solver import realize_full_topology, solve_exact
from steiner_ladder.topology import count_full_topologies, enumerate_full_topologies
from steiner_ladder.trees import TERMINAL, same_tree

ALPHA = math.pi / 36
LAM = 0.5

# frozen oracle values: the closed forms evaluated in complex arithmetic,
# cross-checked against the exhaustive solver in criterion 3 / test_ladder
CLOSED_A1 = 1.298436099650707
CLOSED_A0 = 2.19366696233062


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


def ladder_points(k_a: int, k_b: int) -> list[complex]:
    ts = build_input(LadderParams(ALPHA, LAM, max(k_a, k_b)), "A1")
    labels = [f"A{k}" for k in range(1, k_a + 1)] + [f"B{k}" for k in range(1, k_b + 1)]
    return [complex(ts.point(lab)) for lab in labels]


def test_criterion_1_topology_counts():
    t0 = time.perf_counter()
    expected = {3: 1, 4: 3, 5: 15, 6: 105, 7: 945}
    ok = True
    for n, want in expected.items():
        ok = ok and count_full_topologies(n) == want
        ok = ok and len(enumerate_full_topologies(n)) == want
    dt = time.perf_counter() - t0
    report(1, ok and dt < 5.0, f"counts 3..7 = {list(expected.values())}, {dt:.2f}s")
    assert ok
    assert dt < 5.0


def test_criterion_2_square_baseline():
    t0 = time.perf_counter()
    sol = solve_exact([0, 1, 1 + 1j, 1j], tol=1e-9)
    dt = time.perf_counter() - t0
    want = 1 + math.sqrt(3)
    ok = abs(sol.best.length - want) <= 1e-9 and len(sol.co_optima) == 2 and dt < 1.0
    report(2, ok, f"length {sol.best.length:.12f}, {len(sol.co_optima)} co-optima, {dt:.2f}s")
    assert abs(sol.best.length - want) <= 1e-9
    assert len(sol.co_optima) == 2
    assert dt < 1.0


def test_criterion_3_five_terminal_block_identity():
    t0 = time.perf_counter()
    closed = closed_form_length_A1(ALPHA, LAM)
    sol = solve_exact(ladder_points(3, 2), tol=1e-9)
    dt = time.perf_counter() - t0
    want = (1 - LAM**2) * closed
    deg = sol.best.degrees()
    full = all(deg[i] == 1 for i, r in enumerate(sol.best.roles) if r == TERMINAL)
    rel = abs(sol.best.length - want) / want
    ok = full and rel <= 1e-9 and abs(closed - CLOSED_A1) <= 1e-12 and dt < 10.0
    report(
        3,
        ok,
        f"closed form {closed:.12f}, block length {sol.best.length:.12f}, "
        f"rel err {rel:.2e}, {dt:.2f}s",
    )
    assert full
    assert rel <= 1e-9
    assert abs(closed - CLOSED_A1) <= 1e-12
    assert dt < 10.0


def _same_point_set(a: list[complex], b: list[complex], tol: float) -> bool:
    def covered(xs, ys):
        return all(any(abs(x - y) <= tol for y in ys) for x in xs)

    return len(a) == len(b) and covered(a, b) and covered(b, a)


def test_criterion_4_nine_terminal_multiplicity():
    # The 4k+1 = 9 points {A1..A5, B1..B4} (k = 2).  The expected optima are
    # the mirror-word chains whose terminal set is exactly this instance:
    # the hinge sits on the A side below an unmirrored block and on the B side
    # below a mirrored one, so the last block is fixed by the (2k+1)-point side
    # and 2**(k-1) words remain.
    pts = ladder_points(5, 4)
    params = LadderParams(ALPHA, LAM, 5)
    expected = {}
    for bits in itertools.product("01", repeat=(params.depth - 1) // 2):
        word = "".join(bits)
        tree = build_ladder_tree_A1(params, word)
        terms = [v for v, r in zip(tree.vertices, tree.roles) if r == TERMINAL]
        if _same_point_set(terms, pts, 1e-12):
            expected[word] = tree

    t0 = time.perf_counter()
    sol = solve_exact(pts, tol=1e-8)
    dt = time.perf_counter() - t0
    a3 = LAM**2 * complex(math.cos(ALPHA), math.sin(ALPHA))
    b3 = a3.conjugate()
    want_length = (1 - LAM**4) * CLOSED_A1
    hinge_names = []
    structure_ok = True
    for tree in sol.co_optima:
        blocks = block_decompose(tree)
        structure_ok = structure_ok and len(blocks) == 2
        structure_ok = structure_ok and all(
            sum(1 for r in b.roles if r == TERMINAL) == 5 and classify(b) == "full"
            for b in blocks
        )
        deg = tree.degrees()
        shared = [
            tree.vertices[i]
            for i, r in enumerate(tree.roles)
            if r == TERMINAL and deg[i] == 2
        ]
        structure_ok = structure_ok and len(shared) == 1
        hinge = shared[0] if len(shared) == 1 else None
        if hinge is not None and abs(hinge - a3) < 1e-9:
            hinge_names.append("A3")
        elif hinge is not None and abs(hinge - b3) < 1e-9:
            hinge_names.append("B3")
        else:
            hinge_names.append("other")
    # one-to-one: every co-optimum equals exactly one expected tree and
    # every expected tree equals exactly one co-optimum
    matches = [
        [w for w, t in expected.items() if same_tree(opt, t, 1e-9)]
        for opt in sol.co_optima
    ]
    matched = [m[0] for m in matches if len(m) == 1]
    one_to_one = len(matched) == len(matches) and sorted(matched) == sorted(expected)
    lengths = [t.length for t in sol.co_optima]
    lengths_ok = all(abs(x - want_length) <= 1e-9 * want_length for x in lengths)
    hinges_ok = sorted(hinge_names) == ["A3", "B3"]
    count = len(sol.co_optima)
    ok = structure_ok and one_to_one and hinges_ok and lengths_ok and dt <= 1800.0
    report(
        4,
        ok,
        f"{count} co-optima for mirror words {sorted(expected)}, matched "
        f"{matched}, hinges {hinge_names}, each union of two 5-terminal full "
        f"blocks: {structure_ok}, {dt:.1f}s",
    )
    assert structure_ok, f"not two full 5-terminal blocks; hinges {hinge_names}"
    assert dt <= 1800.0
    assert one_to_one and hinges_ok and lengths_ok, (
        f"expected the mirror words {sorted(expected)} covering the instance, "
        f"hinged at A3 and B3, each of length (1 - lam**4) * CLOSED_A1 = "
        f"{want_length!r}; the solver found {count} co-optima matching words "
        f"{matches}, hinged at {hinge_names}, with lengths {lengths}"
    )


def test_criterion_5_cross_segment_identities():
    t0 = time.perf_counter()
    K = 20
    params = LadderParams(ALPHA, LAM, K)
    upper = build_ladder_tree_A0(params, "upper")
    lower = build_ladder_tree_A0(params, "lower")
    closed = closed_form_length_A0(ALPHA, LAM)
    tail = LAM ** (K - 1) * closed
    tol = 1e-6 + tail
    mx, resid = maxwell_length(upper)
    pairwise = max(
        abs(upper.length - mx), abs(upper.length - closed), abs(mx - closed)
    )
    x_vertex = upper.vertices[0]
    offset_err = abs(x_vertex.imag - math.sin(ALPHA) / (LAM + 1))
    defect = self_similarity_defect(
        upper, LAM**2, min_radius=LAM ** (K - 2) * segment_radius(ALPHA, LAM)
    )
    mirror_ok = trees_mirror_equal(upper, lower, tol=1e-9)
    dt = time.perf_counter() - t0
    ok = (
        pairwise <= tol
        and abs(closed - CLOSED_A0) <= 1e-12
        and offset_err <= 1e-12
        and not is_decomposable(upper)
        and defect < 1e-6
        and mirror_ok
        and resid <= 1e-9 * upper.length
        and dt < 5.0
    )
    report(
        5,
        ok,
        f"lengths agree to {pairwise:.2e} (tol {tol:.2e}), x offset err {offset_err:.1e}, "
        f"defect {defect:.1e}, mirror {mirror_ok}, {dt:.2f}s",
    )
    assert pairwise <= tol
    assert abs(closed - CLOSED_A0) <= 1e-12
    assert offset_err <= 1e-12
    assert not is_decomposable(upper)
    assert defect < 1e-6
    assert mirror_ok
    assert dt < 5.0


def test_criterion_6_dynamics():
    t0 = time.perf_counter()
    p = derive_params(ALPHA, LAM, 0.0)
    map_ok = all(
        abs(inverse_map(p, t) - ((t / 2 + 0.75) % 1.0)) <= 1e-15
        for t in (0.0, 0.123, 1 / 6, 0.42, 0.61, 5 / 6, 0.97)
    )
    pts = periodic_points(p, 2)
    periodic_ok = pts == [1 / 6, 5 / 6]
    K = 14
    ldr = LadderParams(ALPHA, LAM, K)
    orbit = iterate(p, 1 / 6, K, "inverse")
    net = tree_from_orbit(p, ldr, orbit, K)
    upper = build_ladder_tree_A0(ldr, "upper")
    mirror_ok = trees_mirror_equal(upper, net, tol=1e-8)
    back = orbit_from_tree(net, p)
    round_trip = max(abs(a - b) for a, b in zip(back.values, orbit.values))
    dt = time.perf_counter() - t0
    ok = map_ok and periodic_ok and mirror_ok and round_trip <= 1e-9 and dt < 5.0
    report(
        6,
        ok,
        f"inverse law exact: {map_ok}, periodic pts {pts}, network mirror-equal: "
        f"{mirror_ok}, round trip {round_trip:.1e}, {dt:.2f}s",
    )
    assert map_ok
    assert periodic_ok, pts
    assert mirror_ok
    assert round_trip <= 1e-9
    assert dt < 5.0


def test_criterion_7_maxwell_property_suite(rng):
    t0 = time.perf_counter()
    topos = {n: enumerate_full_topologies(n) for n in (4, 5, 6)}
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 20000, "realization success rate collapsed"
        n = rng.choice((4, 5, 6))
        pts = [complex(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        topo = topos[n][rng.randrange(len(topos[n]))]
        tree = realize_full_topology(pts, topo)
        if tree is None:
            continue
        checked += 1
        real, resid = maxwell_length(tree)
        assert abs(real - tree.length) <= 1e-10 * tree.length
        assert resid <= 1e-9 * tree.length
        assert local_min_gradient(tree) < 1e-9
    dt = time.perf_counter() - t0
    ok = dt < 60.0
    report(7, ok, f"200 realizations out of {attempts} attempts, {dt:.2f}s")
    assert dt < 60.0


def test_criterion_8_region_predicates():
    t0 = time.perf_counter()
    admissible = 0
    for i in range(1, 101):
        alpha = i * (math.pi / 6) / 101
        for j in range(1, 101):
            lam = j * 0.5 / 100
            if condition_holds(alpha, lam):
                admissible += 1
                assert separation_predicate(alpha, lam), (alpha, lam)
    dt = time.perf_counter() - t0
    ok = dt < 1.0 and admissible > 0
    report(8, ok, f"separation holds on all {admissible} admissible cells, {dt:.2f}s")
    assert admissible > 0
    assert dt < 1.0


@pytest.mark.parametrize("K", [10, 14, 18])
def test_criterion_9_truncation_tail_bound(K):
    closed = closed_form_length_A0(ALPHA, LAM)
    t_k = build_ladder_tree_A0(LadderParams(ALPHA, LAM, K), "upper")
    t_k2 = build_ladder_tree_A0(LadderParams(ALPHA, LAM, K + 2), "upper")
    diff = abs(t_k2.length - t_k.length)
    bound = LAM ** (K - 1) * closed
    ok = 0.0 < diff <= bound
    report(9, ok, f"K={K}: |len(K+2)-len(K)| = {diff:.3e} <= {bound:.3e}")
    assert diff > 0.0  # truncation genuinely moves the length
    assert diff <= bound
