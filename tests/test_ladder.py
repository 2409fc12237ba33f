import math

import pytest

from steiner_ladder.analysis import (
    block_decompose,
    classify,
    maxwell_length,
    self_similarity_defect,
    trees_mirror_equal,
    validate_steiner_geometry,
    wind_rose,
)
from steiner_ladder import ladder
from steiner_ladder.errors import ParameterError
from steiner_ladder.geometry import angle_at
from steiner_ladder.ladder import (
    LadderParams,
    bisector_abscissa,
    build_input,
    build_ladder_tree_A0,
    build_ladder_tree_A1,
    closed_form_length_A0,
    separation_predicate,
    closed_form_length_A1,
    condition_holds,
    length_by_J,
    segment_radius,
    terminal_a,
    terminal_b,
    x_offset,
    x_point,
)
from steiner_ladder.solver import solve_exact
from steiner_ladder.trees import STEINER, TERMINAL, reflect_tree, scale_tree

ALPHA = math.pi / 36
LAM = 0.5

# frozen from evaluating the closed forms; cross-checked against the solver below
CLOSED_A1 = 1.298436099650707
CLOSED_A0 = 2.19366696233062


def test_condition_examples():
    assert condition_holds(ALPHA, 0.5)
    assert not condition_holds(math.pi / 6, 0.25)
    assert not condition_holds(ALPHA, 0.543)
    # boundary value quoted in the examples: sqrt(1/2) = 0.70711 < 0.73681
    rhs = math.cos(math.pi / 3 + ALPHA) / math.cos(math.pi / 3 - ALPHA)
    assert rhs == pytest.approx(0.736813, abs=1e-6)
    assert rhs**2 == pytest.approx(0.542893, abs=1e-6)


def test_params_validation():
    with pytest.raises(ParameterError):
        LadderParams(0.0, 0.5, 3)
    with pytest.raises(ParameterError):
        LadderParams(math.pi / 6, 0.5, 3)
    with pytest.raises(ParameterError):
        LadderParams(ALPHA, 0.51, 3)
    with pytest.raises(ParameterError):
        LadderParams(ALPHA, 0.5, 0)


@pytest.mark.parametrize("depth", [2.5, 3.0, "3", None, True])
def test_params_reject_a_depth_that_is_not_an_integer(depth):
    with pytest.raises(ParameterError):
        LadderParams(ALPHA, LAM, depth)


def test_build_input_a1():
    ts = build_input(LadderParams(ALPHA, LAM, 3), "A1")
    assert len(ts) == 7
    for k in range(1, 4):
        assert abs(ts.point(f"A{k}")) == pytest.approx(LAM ** (k - 1), abs=1e-15)
        assert abs(ts.point(f"B{k}")) == pytest.approx(LAM ** (k - 1), abs=1e-15)
    assert ts.point("Ainf") == 0
    assert ts.segment is None
    assert ts.family["depth"] == 3


def test_build_input_k1_wedge():
    ts = build_input(LadderParams(ALPHA, LAM, 1), "A1")
    assert len(ts) == 3
    assert angle_at(ts.point("Ainf"), ts.point("A1"), ts.point("B1")) == pytest.approx(
        2 * ALPHA, abs=1e-14
    )


def test_build_input_a0():
    ts = build_input(LadderParams(ALPHA, LAM, 3), "A0")
    assert len(ts) == 9
    assert ts.segment == ("A0", "B0")
    r = segment_radius(ALPHA, LAM)
    # 1/lam - tan(alpha)/(sqrt(3)*lam) evaluated independently
    assert r == pytest.approx(2.0 - math.tan(ALPHA) / (math.sqrt(3) / 2), abs=1e-15)
    assert r == pytest.approx(1.8989767931245343, abs=1e-12)
    assert abs(ts.point("A0")) == pytest.approx(r, abs=1e-14)
    assert abs(ts.point("B0")) == pytest.approx(r, abs=1e-14)


def test_closed_forms_frozen_values():
    assert closed_form_length_A1(ALPHA, LAM) == pytest.approx(CLOSED_A1, abs=1e-14)
    assert closed_form_length_A0(ALPHA, LAM) == pytest.approx(CLOSED_A0, abs=1e-14)


def test_closed_forms_require_condition():
    with pytest.raises(ParameterError):
        closed_form_length_A1(ALPHA, 0.543)
    with pytest.raises(ParameterError):
        closed_form_length_A0(ALPHA, 0.543)


def test_closed_form_small_angle_limits():
    eps = 1e-8
    assert closed_form_length_A1(eps, LAM) == pytest.approx(1.0, abs=1e-6)
    assert closed_form_length_A0(eps, LAM) == pytest.approx(1.0 / LAM, abs=1e-6)


def test_closed_form_a1_matches_five_point_solve():
    pts = build_input(LadderParams(ALPHA, LAM, 3), "A1")
    block = pts.select(["A1", "A2", "A3", "B1", "B2"])
    sol = solve_exact(block, tol=1e-9)
    assert sol.best.length == pytest.approx((1 - LAM**2) * CLOSED_A1, rel=1e-12)


@pytest.mark.parametrize("alpha,lam", [(math.pi / 20, 0.3), (math.pi / 10, 0.05)])
def test_block_identity_at_other_admissible_parameters(alpha, lam):
    assert condition_holds(alpha, lam)
    pts = build_input(LadderParams(alpha, lam, 3), "A1")
    block = pts.select(["A1", "A2", "A3", "B1", "B2"])
    sol = solve_exact(block, tol=1e-9)
    want = (1 - lam**2) * closed_form_length_A1(alpha, lam)
    assert sol.best.length == pytest.approx(want, rel=1e-12)


def test_x_point():
    x = x_point(ALPHA, LAM, "upper")
    assert x.real == pytest.approx(bisector_abscissa(ALPHA, LAM), abs=1e-15)
    assert x.imag == pytest.approx(math.sin(ALPHA) / (LAM + 1), abs=1e-16)
    assert x_point(ALPHA, LAM, "lower").imag == -x.imag
    assert x_offset(1e-9, LAM) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ParameterError):
        x_point(ALPHA, LAM, "middle")


def test_a0_tree_identities():
    K = 20
    tree = build_ladder_tree_A0(LadderParams(ALPHA, LAM, K), "upper")
    tail = LAM ** (K - 1) * CLOSED_A0
    assert abs(tree.length - CLOSED_A0) <= 1e-6 + tail
    assert abs(tree.length - (1 - LAM**K) * CLOSED_A0) <= 1e-12
    real, resid = maxwell_length(tree)
    assert abs(real - CLOSED_A0) <= 1e-6 + tail
    assert resid <= 1e-9 * tree.length
    assert classify(tree) == "full"
    assert validate_steiner_geometry(tree).ok


def test_a0_alternation_and_wind_rose():
    K = 10
    tree = build_ladder_tree_A0(LadderParams(ALPHA, LAM, K), "upper")
    rose = wind_rose(tree).directions
    assert len(rose) == 3
    assert min(min(d, math.pi - d) for d in rose) < 1e-9  # bisector direction present
    # bisector-parallel segments alternate sides of the bisector
    heights = []
    for u, v in tree.edges:
        d = tree.vertices[v] - tree.vertices[u]
        if abs(d.imag) < 1e-12 * abs(d):
            heights.append((tree.vertices[u] + tree.vertices[v]).imag / 2)
    heights.sort(key=abs, reverse=True)
    assert len(heights) == K + 1
    signs = [1 if h > 0 else -1 for h in heights]
    assert all(signs[i] != signs[i + 1] for i in range(len(signs) - 1))


@pytest.mark.parametrize("K", [1, 2, 7, 8, 13])
def test_a0_truncation_exact_at_any_depth(K):
    tree = build_ladder_tree_A0(LadderParams(ALPHA, LAM, K), "upper")
    assert tree.length == pytest.approx((1 - LAM**K) * CLOSED_A0, abs=1e-13)
    assert classify(tree) == "full"


def test_a0_self_similarity():
    K = 20
    tree = build_ladder_tree_A0(LadderParams(ALPHA, LAM, K), "upper")
    mask = LAM ** (K - 2) * segment_radius(ALPHA, LAM)
    defect = self_similarity_defect(tree, LAM**2, min_radius=mask)
    assert defect < 1e-6 * tree.diameter()
    assert self_similarity_defect(tree, 1.0, center=tree.vertices[0]) < 1e-12


def test_a1_chain_self_similarity():
    K = 9
    tree = build_ladder_tree_A1(LadderParams(ALPHA, LAM, K), "0000")
    mask = LAM ** (K - 3)  # ignore the truncated tail blocks
    defect = self_similarity_defect(tree, LAM**2, min_radius=mask)
    assert defect < 1e-6 * tree.diameter()


def test_a0_maxwell_agreement_at_depth_30():
    tree = build_ladder_tree_A0(LadderParams(ALPHA, LAM, 30), "upper")
    real, resid = maxwell_length(tree)
    assert abs(real - CLOSED_A0) <= 1e-8
    assert resid <= 1e-12


@pytest.mark.parametrize("K", [519, 1000])
def test_a0_deep_trees_pass_the_angle_and_maxwell_checks(K):
    # the deepest edges are about 1e-157 (K = 519) and 1e-300 (K = 1000) long
    tree = build_ladder_tree_A0(LadderParams(ALPHA, LAM, K), "upper")
    assert classify(tree) == "full"
    real, resid = maxwell_length(tree)
    assert abs(real - tree.length) <= 1e-12 * tree.length
    assert resid <= 1e-12 * tree.length


def test_a1_tree_blocks_and_lengths():
    params = LadderParams(ALPHA, LAM, 5)
    tree = build_ladder_tree_A1(params, "00")
    expected = (1 - LAM**4) * CLOSED_A1
    assert tree.length == pytest.approx(expected, rel=1e-12)
    assert abs(tree.length - CLOSED_A1) <= LAM**4 * CLOSED_A1 + 1e-12
    assert classify(tree) == "full*"
    assert validate_steiner_geometry(tree).ok
    # hinge: exactly one shared terminal of degree 2 between the two blocks
    deg = tree.degrees()
    hinges = [
        tree.vertices[i]
        for i, r in enumerate(tree.roles)
        if r == TERMINAL and deg[i] == 2
    ]
    assert len(hinges) == 1
    assert abs(hinges[0]) == pytest.approx(LAM**2, abs=1e-14)


@pytest.mark.parametrize("word", ["0" * 20, "1" * 20, "01" * 10])
def test_a1_deep_chain_keeps_every_vertex(word):
    # 20 blocks of 5 terminals and 3 branching points, 19 shared hinges:
    # 20 * 8 - 19 = 141 vertices; near-coincident deep vertices stay apart
    tree = build_ladder_tree_A1(LadderParams(ALPHA, LAM, 41), word)
    assert len(tree.vertices) == 141
    blocks = block_decompose(tree)
    assert len(blocks) == 20
    assert all(classify(block) == "full" for block in blocks)
    _assert_terminals_on_the_lattice(tree, ALPHA, LAM, 41)


@pytest.mark.parametrize("alpha,lam", [(math.pi / 20, 0.3), (math.pi / 10, 0.05)])
def test_a1_terminals_are_lattice_points_at_other_ratios(alpha, lam):
    # lam = 1/2 scales exactly in binary; these ratios do not
    for word in ("0" * 20, "1" * 20, "01" * 10):
        tree = build_ladder_tree_A1(LadderParams(alpha, lam, 41), word)
        assert len(tree.vertices) == 141
        _assert_terminals_on_the_lattice(tree, alpha, lam, 41)


def _assert_terminals_on_the_lattice(tree, alpha, lam, depth):
    """Every terminal equals a lattice point to the last bit, so the hinges fused."""
    lattice = [f(alpha, lam, k) for f in (terminal_a, terminal_b) for k in range(1, depth + 1)]
    terminals = [tree.vertices[i] for i in tree.terminal_indices()]
    assert len(terminals) == 2 * depth - 1
    assert all(any(z == p for p in lattice) for z in terminals)


def test_entry_point_makes_the_ladder_one_full_tree():
    # X + {A1..Ak, B1..Bk}: one optimum, a single full tree, which tends to the
    # A0 network as k grows; the gap shrinks by about lam per level
    ref = build_ladder_tree_A0(LadderParams(ALPHA, LAM, 30), "upper")
    gaps = []
    for k in (2, 3, 4):
        rungs = [f(ALPHA, LAM, j) for f in (terminal_a, terminal_b) for j in range(1, k + 1)]
        trees = {}
        for side in ("upper", "lower") if k < 4 else ("upper",):
            sol = solve_exact([x_point(ALPHA, LAM, side), *rungs], tol=1e-8)
            assert len(sol.co_optima) == 1, (k, side)
            trees[side] = tree = sol.best
            assert len(block_decompose(tree)) == 1 and classify(tree) == "full", (k, side)
        if k < 4:
            assert trees_mirror_equal(trees["upper"], trees["lower"], tol=1e-9)
        tree = trees["upper"]
        steiner = [z for z, r in zip(tree.vertices, tree.roles) if r == STEINER]
        gaps.append(max(min(abs(z - w) for w in ref.vertices) for z in steiner))
    assert gaps[0] < 0.05
    assert all(b <= 1.1 * LAM * a for a, b in zip(gaps, gaps[1:])), gaps


def test_a1_word_mirror_invariance():
    params = LadderParams(ALPHA, LAM, 9)
    words = ["0000", "1111", "0101", "0010"]
    trees = {w: build_ladder_tree_A1(params, w) for w in words}
    lengths = {w: t.length for w, t in trees.items()}
    spread = max(lengths.values()) - min(lengths.values())
    assert spread <= 1e-12
    for w, t in trees.items():
        assert validate_steiner_geometry(t).ok, w


def test_a1_blocks_have_three_direction_wind_rose():
    from steiner_ladder.analysis import block_decompose

    params = LadderParams(ALPHA, LAM, 9)
    for word in ("0000", "0110"):
        for block in block_decompose(build_ladder_tree_A1(params, word)):
            assert len(wind_rose(block).directions) == 3


def test_a1_block_with_its_entry_tripod_above_the_bisector_is_refused(monkeypatch):
    solve = ladder.minimal_full_tree
    monkeypatch.setattr(ladder, "minimal_full_tree", lambda pts: reflect_tree(solve(pts)))
    ladder._five_block.cache_clear()
    try:
        with pytest.raises(ParameterError, match="below the bisector"):
            build_ladder_tree_A1(LadderParams(ALPHA, LAM, 5), "00")
    finally:
        ladder._five_block.cache_clear()


def test_a1_word_validation():
    params = LadderParams(ALPHA, LAM, 5)
    with pytest.raises(ParameterError):
        build_ladder_tree_A1(params, "0")  # wrong length
    with pytest.raises(ParameterError):
        build_ladder_tree_A1(params, "02")
    with pytest.raises(ParameterError):
        build_ladder_tree_A1(LadderParams(ALPHA, LAM, 4), "00")  # even depth
    # a word is a string: a sequence of bits, or of numbers read as bits, is refused
    with pytest.raises(ParameterError):
        build_ladder_tree_A1(params, [0, 1])
    with pytest.raises(ParameterError):
        build_ladder_tree_A1(params, [0.9, 1.2])


def test_length_by_J():
    K = 60
    odds = range(1, K + 1, 2)
    assert length_by_J(ALPHA, LAM, odds, K) == pytest.approx(CLOSED_A1, abs=1e-14)
    evens = [j for j in range(1, K + 1) if j % 2 == 0]
    # swapping the two geometric sums leaves the length unchanged
    assert length_by_J(ALPHA, LAM, odds, K) == pytest.approx(
        length_by_J(ALPHA, LAM, evens, K), abs=1e-14
    )
    all_j = range(1, K + 1)
    assert length_by_J(ALPHA, LAM, all_j, K) > length_by_J(ALPHA, LAM, odds, K)


@pytest.mark.parametrize(
    "J, K",
    [([1.7], 10), ([True], 10), ([1], -3), ([1], 0), ([1], True), ([1], 2.5)],
    ids=["float-index", "bool-index", "negative-K", "zero-K", "bool-K", "float-K"],
)
def test_length_by_J_refuses_non_integer_or_non_positive_input(J, K):
    with pytest.raises(ParameterError):
        length_by_J(ALPHA, LAM, J, K)


def test_homothety():
    tree = build_ladder_tree_A0(LadderParams(ALPHA, LAM, 6), "upper")
    scaled = scale_tree(tree, LAM**2)
    assert scaled.length == pytest.approx(LAM**2 * tree.length, rel=1e-14)


def test_a0_length_from_entry_point_functional():
    # the length functional evaluated at the entry point must come out real
    x = complex(x_point(ALPHA, LAM, "upper"))
    val = x + (math.sqrt(3) / (1 - LAM) - 1j / (1 + LAM)) * math.sin(ALPHA)
    assert abs(val.imag) < 1e-15
    assert val.real == pytest.approx(CLOSED_A0, abs=1e-14)
    shifted = x + 0.01j
    off = shifted + (math.sqrt(3) / (1 - LAM) - 1j / (1 + LAM)) * math.sin(ALPHA)
    assert abs(off.imag) > 1e-3


def test_squared_length_expansion(rng):
    # |c + a e^{i pi/6} + b e^{-i pi/6}|^2 == c^2 + sqrt(3) c (a+b) + (a+b)^2 - ab
    import cmath

    for _ in range(50):
        a, b, c = (rng.uniform(0, 2) for _ in range(3))
        lhs = abs(c + a * cmath.exp(1j * math.pi / 6) + b * cmath.exp(-1j * math.pi / 6)) ** 2
        rhs = c * c + math.sqrt(3) * c * (a + b) + (a + b) ** 2 - a * b
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_separating_wedges_meet_tree_in_one_segment():
    # a 2pi/3 wedge pointed across the angle from the geometric-mean radius
    # on one side must contain at most a single piece of any optimal network
    from steiner_ladder.analysis import wedge_intersection_is_segment

    a0 = build_ladder_tree_A0(LadderParams(ALPHA, LAM, 8), "upper")
    a1 = build_ladder_tree_A1(LadderParams(ALPHA, LAM, 7), "000")
    for tree in (a0, a1):
        for k in (1, 2, 3):
            # apex at the geometric-mean radius on the lower side, opening
            # from one upper terminal to the next: both stay just outside
            apex = LAM ** (k - 0.5) * complex(math.cos(ALPHA), -math.sin(ALPHA))
            rays = [
                LAM ** (j - 1) * complex(math.cos(ALPHA), math.sin(ALPHA)) - apex
                for j in (k, k + 1)
            ]
            angles = [math.atan2(r.imag, r.real) for r in rays]
            assert angles[1] - angles[0] > 2 * math.pi / 3  # room for the wedge
            direction = 0.5 * (angles[0] + angles[1])
            assert wedge_intersection_is_segment(tree, apex, direction)


def test_separation_predicate_on_admissible_grid():
    for i in range(1, 40):
        alpha = i * (math.pi / 6) / 41
        for j in range(1, 40):
            lam = j * 0.5 / 40
            if condition_holds(alpha, lam):
                assert separation_predicate(alpha, lam), (alpha, lam)
