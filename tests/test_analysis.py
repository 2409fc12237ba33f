import cmath
import math

import pytest

from steiner_ladder.analysis import (
    ANGLE_TOL,
    ValidityReport,
    block_decompose,
    classify,
    clip_to_wedge,
    is_decomposable,
    local_min_gradient,
    maxwell_length,
    trees_mirror_equal,
    validate_steiner_geometry,
    wedge_intersection_is_segment,
    wind_rose,
)
from steiner_ladder.errors import DegenerateInputError, ParameterError
from steiner_ladder.ladder import (
    LadderParams,
    build_ladder_tree_A0,
    build_ladder_tree_A1,
    terminal_a,
    terminal_b,
)
from steiner_ladder.solver import solve_exact
from steiner_ladder.trees import (
    STEINER,
    TERMINAL,
    EmbeddedTree,
    same_tree,
    scale_tree,
    transform_tree,
)

from oracles import (
    classify_by_angle_at,
    hausdorff_gap,
    maxwell_by_angle_at,
    pairwise_diameter,
    tuple_block_decompose,
    validity_fields,
)

SQRT3 = math.sqrt(3)
ALPHA = math.pi / 36
LAM = 0.5


def regular_tripod(r=1.0):
    spokes = [r * cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    return EmbeddedTree.build(
        [0j] + spokes, [STEINER] + [TERMINAL] * 3, [(0, 1), (0, 2), (0, 3)]
    )


def segment_tree(a=0, b=3 + 4j):
    return EmbeddedTree.build([a, b], [TERMINAL, TERMINAL], [(0, 1)])


@pytest.fixture(scope="module")
def a1_tree():
    return build_ladder_tree_A1(LadderParams(ALPHA, LAM, 5), "00")


@pytest.fixture(scope="module")
def a0_tree():
    return build_ladder_tree_A0(LadderParams(ALPHA, LAM, 12), "upper")


def test_maxwell_regular_tripod():
    real, resid = maxwell_length(regular_tripod())
    assert real == pytest.approx(3.0, abs=1e-12)
    assert resid < 1e-12


def test_maxwell_single_segment():
    real, resid = maxwell_length(segment_tree())
    assert real == pytest.approx(5.0, abs=1e-12)
    assert resid < 1e-12


def test_maxwell_rejects_non_full_star():
    bent = EmbeddedTree.build([0, 1, 1 + 1j], [TERMINAL] * 3, [(0, 1), (1, 2)])
    with pytest.raises(ParameterError):
        maxwell_length(bent)


def test_maxwell_on_ladder_trees(a1_tree, a0_tree):
    for tree in (a1_tree, a0_tree):
        real, resid = maxwell_length(tree)
        assert abs(real - tree.length) <= 1e-10 * tree.length
        assert resid <= 1e-9 * tree.length


def test_classify_tripod_and_ladders(a1_tree, a0_tree):
    assert classify(regular_tripod()) == "full"
    assert classify(a1_tree) == "full*"
    assert classify(a0_tree) == "full"
    skew = EmbeddedTree.build([0, 1, 2 + 0.5j], [TERMINAL] * 3, [(0, 1), (1, 2)])
    assert classify(skew) == "neither"


def test_wind_rose(a1_tree, a0_tree):
    assert len(wind_rose(regular_tripod()).directions) == 3
    assert len(wind_rose(a1_tree).directions) == 3
    rose0 = wind_rose(a0_tree).directions
    assert len(rose0) == 3
    # one direction parallel to the bisector
    assert min(min(d, math.pi - d) for d in rose0) < 1e-9


def test_validate_ladder_tree(a1_tree):
    report = validate_steiner_geometry(a1_tree)
    assert report.ok
    assert report.connected and report.acyclic
    assert report.max_angle_violation <= 1e-9
    assert report.inside_hull
    assert report.degree_histogram[3] == 6  # three branching points per block


def test_validate_reports_a_cycle_in_a_disconnected_graph():
    pts = [complex(k, k * k) for k in range(5)]
    triangle = EmbeddedTree.build(pts, [TERMINAL] * 5, [(0, 1), (1, 2), (2, 0)])
    report = validate_steiner_geometry(triangle)  # a triangle and two isolated vertices
    assert not report.connected and not report.acyclic
    alone = EmbeddedTree.build(pts[:3], [TERMINAL] * 3, triangle.edges)
    report = validate_steiner_geometry(alone)
    assert report.connected and not report.acyclic
    assert EmbeddedTree.build([], [], []).is_connected()
    for edges in ([(0, 1), (1, 1)], [(0, 1), (1, 0)]):  # a self-loop, a repeated edge
        assert not EmbeddedTree.build(pts, [TERMINAL] * 5, edges).is_acyclic()
    assert EmbeddedTree.build(pts, [TERMINAL] * 5, [(0, 1), (2, 3)]).is_acyclic()


def test_validate_flags_narrow_angle():
    # 110 degree angle at the middle vertex
    bad = EmbeddedTree.build(
        [0, 1, 1 + cmath.exp(1j * math.radians(70))],
        [TERMINAL, STEINER, TERMINAL],
        [(0, 1), (1, 2)],
    )
    report = validate_steiner_geometry(bad)
    assert report.max_angle_violation > math.radians(9)


def test_validate_flags_hull_escape():
    out = EmbeddedTree.build(
        [0, 1, 0.5 + 5j], [TERMINAL, TERMINAL, STEINER], [(0, 2), (2, 1)]
    )
    report = validate_steiner_geometry(out, terminals=[0, 1])
    assert not report.inside_hull
    with pytest.raises(DegenerateInputError):
        validate_steiner_geometry(out, terminals=[0, complex("nan"), 1j])


def test_local_min_gradient_tripod_and_perturbation():
    tripod = regular_tripod()
    assert local_min_gradient(tripod) < 1e-12
    h = 1e-3
    moved = EmbeddedTree.build(
        [complex(h, 0)] + list(tripod.vertices[1:]), tripod.roles, tripod.edges
    )
    g = local_min_gradient(moved)
    # finite-difference check: moving against the gradient recovers the length drop
    drop = moved.length - tripod.length
    assert g == pytest.approx(2 * drop / h, rel=1e-2)


def test_gradient_vanishes_on_ladder(a0_tree):
    assert local_min_gradient(a0_tree) < 1e-9


def test_decomposability(a1_tree, a0_tree):
    assert is_decomposable(a1_tree)
    assert not is_decomposable(a0_tree)
    assert not is_decomposable(segment_tree())
    blocks = block_decompose(a1_tree)
    assert len(blocks) == 2
    for b in blocks:
        assert sum(1 for r in b.roles if r == TERMINAL) == 5
        assert classify(b) == "full"
    assert sum(b.length for b in blocks) == pytest.approx(a1_tree.length, rel=1e-12)


def test_trees_mirror_equal(a0_tree):
    assert trees_mirror_equal(a0_tree, a0_tree) is False  # its own mirror is the lower tree
    lower = build_ladder_tree_A0(LadderParams(ALPHA, LAM, 12), "lower")
    assert trees_mirror_equal(a0_tree, lower, tol=1e-9)
    tripod = regular_tripod()
    assert trees_mirror_equal(tripod, tripod, axis_angle=0.0, tol=1e-12)


def test_mirror_words_differ():
    params = LadderParams(ALPHA, LAM, 9)
    t1 = build_ladder_tree_A1(params, "0100")
    t2 = build_ladder_tree_A1(params, "0010")
    assert not trees_mirror_equal(t1, t2, tol=1e-6)
    assert hausdorff_gap(t1, t2) > 1e-4


def test_same_tree_is_equality_of_embedded_graphs():
    # a straight degree-2 vertex: the same point set, not the same tree
    seg = segment_tree()
    split = EmbeddedTree.build(
        [0, 1.5 + 2j, 3 + 4j], [TERMINAL, STEINER, TERMINAL], [(0, 1), (1, 2)]
    )
    assert hausdorff_gap(seg, split) < 1e-15
    assert not same_tree(seg, split, 1e-9)
    # the order of the vertices does not matter, the edges do
    tripod = regular_tripod()
    reversed_tripod = EmbeddedTree.build(
        tripod.vertices[::-1], tripod.roles[::-1], [(3, 0), (3, 1), (3, 2)]
    )
    assert same_tree(tripod, reversed_tripod, 0.0)
    path = EmbeddedTree.build(tripod.vertices, tripod.roles, [(0, 1), (0, 2), (2, 3)])
    assert not same_tree(tripod, path, 1e-9)


@pytest.fixture(scope="module")
def similarity_corpus():
    """Verdict cases: (kind, tree, other tree or None, axis point or apex, angle, verdict)."""
    a1 = LadderParams(ALPHA, LAM, 9)
    w0000, w1111, w1000 = (build_ladder_tree_A1(a1, w) for w in ("0000", "1111", "1000"))
    a0 = LadderParams(ALPHA, LAM, 12)
    upper, lower = (build_ladder_tree_A0(a0, side) for side in ("upper", "lower"))
    sq1, sq2 = solve_exact([0, 1, 1 + 1j, 1j]).co_optima
    last = upper.vertices[-1]
    moved = transform_tree(upper, lambda z: z + 1e-6 * upper.diameter() if z == last else z)
    dropped = EmbeddedTree.build(upper.vertices, upper.roles, upper.edges[:-1])
    for mutant in (moved, dropped):  # the oracle rejects both mutants too
        assert hausdorff_gap(upper, mutant) > 1e-8 * upper.diameter()
    # two parallel legs joined by a bend below the origin: the upward wedge meets both
    u_path = EmbeddedTree.build(
        [-0.1 + 1j, -0.1 - 1j, 0.1 - 1j, 0.1 + 1j], [TERMINAL, STEINER, STEINER, TERMINAL],
        [(0, 1), (1, 2), (2, 3)],
    )
    return [
        ("mirror", w0000, w1111, 0j, 0.0, True),
        ("mirror", w0000, w1000, 0j, 0.0, False),
        ("mirror", upper, lower, 0j, 0.0, True),
        ("mirror", sq1, sq2, 0.5 + 0.5j, math.pi / 4, True),
        ("mirror", moved, lower, 0j, 0.0, False),
        ("mirror", dropped, lower, 0j, 0.0, False),
        ("wedge", u_path, None, 0j, math.pi / 2, False),
        ("wedge", build_ladder_tree_A1(LadderParams(ALPHA, LAM, 5), "00"), None,
         complex(0.75 * math.cos(ALPHA), 0.8 * math.sin(ALPHA)), math.pi / 2, True),
    ]


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("turn", [0.0, 0.4, 2.0, -2.6])
def test_verdicts_do_not_change_under_similarity(similarity_corpus, scale, turn):
    rot = scale * cmath.exp(1j * turn)
    verdicts = []
    for kind, t1, t2, point, angle, _want in similarity_corpus:
        t1 = transform_tree(t1, lambda z: rot * z)
        if kind == "mirror":
            t2 = transform_tree(t2, lambda z: rot * z)
            verdicts.append(trees_mirror_equal(t1, t2, rot * point, angle + turn))
        else:
            verdicts.append(wedge_intersection_is_segment(t1, rot * point, angle + turn))
    assert verdicts == [case[-1] for case in similarity_corpus]


def test_wedge_clipping(a1_tree):
    # a wedge opening away from all terminals meets the tree in one segment
    apex = complex(0.75 * math.cos(ALPHA), 0.8 * math.sin(ALPHA))
    assert wedge_intersection_is_segment(a1_tree, apex, math.pi / 2)
    # a wedge containing a branching point fails the single-segment property
    tripod = regular_tripod()
    assert not wedge_intersection_is_segment(tripod, -0.1 - 0.05j, 0.0)
    assert clip_to_wedge(tripod, 10 + 10j, 0.0, math.pi / 12) == []


def test_coincident_vertices_raise_in_every_angle_check():
    # a vertex of degree two whose ray to a neighbour has length zero
    tree = EmbeddedTree.build([0, 1, 1, 2j], [TERMINAL] * 4, [(0, 1), (1, 2), (2, 3)])
    for check in (classify, maxwell_length, validate_steiner_geometry):
        with pytest.raises(DegenerateInputError, match="coincides"):
            check(tree)


def test_zero_length_edges_raise_degenerate_input():
    # a branching point on top of one of its neighbours
    tree = EmbeddedTree.build(
        [1, 0, 0, 1j], [TERMINAL, STEINER, TERMINAL, TERMINAL], [(0, 1), (1, 2), (1, 3)]
    )
    with pytest.raises(DegenerateInputError, match="coincides"):
        local_min_gradient(tree)
    # a segment whose ends coincide: no angle to read, so classify and
    # validate keep their answers, but the Maxwell form has no direction
    point = EmbeddedTree.build([0, 0], [TERMINAL] * 2, [(0, 1)])
    assert classify(point) == "full"
    assert validate_steiner_geometry(point).ok
    with pytest.raises(DegenerateInputError, match="coincides"):
        maxwell_length(point)


def test_maxwell_length_of_a_lone_vertex_is_zero():
    assert maxwell_length(EmbeddedTree.build([2 + 1j], [TERMINAL], [])) == (0.0, 0.0)


def _check_corpus():
    """Trees for the oracle comparison: ladders, solver optima and edge cases."""
    trees = []
    for alpha, lam in ((ALPHA, LAM), (math.pi / 20, 0.3)):
        for depth in range(3, 42, 2):
            m = (depth - 1) // 2
            for word in ("0" * m, "1" * m, ("01" * m)[:m]):
                trees.append(build_ladder_tree_A1(LadderParams(alpha, lam, depth), word))
        for depth in (20, 200):
            for side in ("upper", "lower"):
                trees.append(build_ladder_tree_A0(LadderParams(alpha, lam, depth), side))
    block = [terminal_a(ALPHA, LAM, k) for k in (1, 2, 3)]
    block += [terminal_b(ALPHA, LAM, k) for k in (1, 2)]
    for points in (
        [0, 1, 1 + 1j, 1j],
        [0, 2, 1 + 0.4j, 0.3 + 1j, 1.8 + 1.1j],
        [1, cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3), 0],
        block,
        [0, 1, 2, 3 + 0.2j, 1.5 + 1j, 0.5 - 0.8j],
    ):
        trees.append(solve_exact(points).best)
    pts = [complex(k, k * k) for k in range(5)]
    T, S = TERMINAL, STEINER
    star = [(0, 3), (1, 3), (2, 3)]
    trees += [
        EmbeddedTree.build([], [], []),
        EmbeddedTree.build([2 + 1j], [T], []),
        EmbeddedTree.build(pts[:3], [T] * 3, [(0, 1), (1, 2), (1, 0)]),  # a repeated edge
        EmbeddedTree.build(pts[:3], [T] * 3, [(0, 1), (1, 1), (1, 2)]),  # a self-loop
        EmbeddedTree.build(pts, [T] * 5, [(0, 1), (2, 3), (3, 4)]),  # disconnected
        EmbeddedTree.build([0, 1, 0.5 + 5j], [T, T, S], [(0, 2), (2, 1)]),  # outside a segment
        EmbeddedTree.build([0, 2, 1j, 3 + 3j], [T, T, T, S], star),
        EmbeddedTree.build([0, 1, 3, 2], [T] * 4, [(0, 1), (1, 3), (3, 2)]),  # collinear
        # a Steiner point exactly the hull test's tolerance outside the edge [0, 4]
        EmbeddedTree.build([0, 4, 4j, 1 - 1e-9j * abs(4 - 4j)], [T, T, T, S], star),
        EmbeddedTree.build([0, 1j, 1 + 1j], [S] * 3, [(0, 1), (1, 2)]),  # no terminal
        regular_tripod(),
        # a terminal of degree 4 and a full* path through a degree-2 terminal
        EmbeddedTree.build([0, 1, 1j, -1, -1j], [T] * 5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        EmbeddedTree.build([0, 1, 1 + cmath.exp(1j * math.pi / 3)], [T] * 3, [(0, 1), (1, 2)]),
    ]
    return trees


def _outcome(check, *args):
    try:
        return check(*args)
    except (DegenerateInputError, ParameterError) as exc:
        return type(exc)


def test_checks_match_their_oracles():
    # the linear passes of block_decompose, classify, maxwell_length and
    # validate_steiner_geometry give exactly the answers of the edge-tuple walk,
    # angle_at and the one-point-at-a-time hull test, on every tree and block
    checked = 0
    for tree in _check_corpus():
        blocks = block_decompose(tree)
        assert blocks == tuple_block_decompose(tree)
        for t in [tree] + blocks:
            assert classify(t) == classify_by_angle_at(t, ANGLE_TOL)
            assert _outcome(maxwell_length, t) == _outcome(maxwell_by_angle_at, t, ANGLE_TOL)
            terminals = [t.vertices[i] for i in t.terminal_indices()]
            want = _outcome(lambda: ValidityReport(**validity_fields(t, terminals)))
            assert _outcome(validate_steiner_geometry, t) == want
            checked += 1
    assert checked > 1400
    # terminals given apart from the tree: a hull of four corners, one vertex outside it
    roles = [TERMINAL] * 3 + [STEINER]
    out = EmbeddedTree.build([0, 2, 1j, 3 + 3j], roles, [(0, 3), (1, 3), (2, 3)])
    report = validate_steiner_geometry(out, terminals=[0, 2, 1j, 1 + 1j])
    assert not report.inside_hull
    assert report == ValidityReport(**validity_fields(out, [0j, 2 + 0j, 1j, 1 + 1j]))


def test_diameter_matches_every_vertex_pair(a1_tree, a0_tree):
    # the farthest pair are hull corners, so the hull's pairs give the same
    # float; every case here is bit-equal, and 1e-15 relative is the bound
    # no vertex, one, two, all coincident, collinear on an axis and on a slant
    small = [[], [2 + 1j], [0, 3 + 4j], [1 + 1j] * 4, [0, 1, 3, 1.5, 2]]
    small.append([0.1 * k + 0.3j * k for k in range(7)])
    trees = [EmbeddedTree.build(pts, [TERMINAL] * len(pts), []) for pts in small]
    trees += [a1_tree, a0_tree, build_ladder_tree_A1(LadderParams(math.pi / 10, 0.05, 9), "0110")]
    trees += [build_ladder_tree_A0(LadderParams(math.pi / 20, 0.3, 200), "lower")]
    for points in ([0, 1, 1 + 1j, 1j], [0, 2, 1 + 0.4j, 0.3 + 1j, 1.8 + 1.1j]):
        trees.append(solve_exact(points).best)
    for tree in trees:
        for s in (1.0, 1e-150, 1e150):
            scaled = scale_tree(tree, s)
            got, want = scaled.diameter(), pairwise_diameter(scaled)
            assert got == want or abs(got - want) <= 1e-15 * want, (len(tree.vertices), s)
