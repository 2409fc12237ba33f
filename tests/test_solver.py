import cmath
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steiner_ladder.analysis import local_min_gradient, maxwell_length, trees_mirror_equal
from steiner_ladder.errors import DegenerateInputError, ParameterError
from steiner_ladder.ladder import LadderParams, build_input
from steiner_ladder.solver import (
    _BIG,
    _I,
    _LOW,
    _SLACK,
    _classes,
    _cone_union,
    _full_component_table,
    _memo,
    _normalise,
    _prim,
    _subset_full_trees,
    minimal_full_tree,
    minimum_spanning_tree,
    realize_full_topology,
    solve_exact,
    steiner_ratio,
)
from steiner_ladder.topology import enumerate_full_topologies
from steiner_ladder.trees import TERMINAL

from oracles import brute_mst_length, fermat_oracle, two_steiner_descent

SQRT3 = math.sqrt(3)
EQUILATERAL = [0, 1, complex(0.5, SQRT3 / 2)]
SQUARE = [0, 1, 1 + 1j, 1j]


def terminal_degrees(tree):
    deg = tree.degrees()
    return [deg[i] for i, r in enumerate(tree.roles) if r == TERMINAL]


def test_realize_tripod_matches_grid_oracle():
    (topo,) = enumerate_full_topologies(3)
    tree = realize_full_topology(EQUILATERAL, topo)
    assert tree is not None
    _, oracle_val = fermat_oracle(*EQUILATERAL)
    assert abs(tree.length - SQRT3) < 1e-12
    assert abs(tree.length - oracle_val) < 1e-8


def test_realize_square_topologies():
    oracle_val = two_steiner_descent(SQUARE)
    assert abs(oracle_val - (1 + SQRT3)) < 1e-7
    lengths = []
    for topo in enumerate_full_topologies(4):
        tree = realize_full_topology(SQUARE, topo)
        if tree is not None:
            lengths.append(tree.length)
    assert len(lengths) >= 2
    assert min(lengths) == pytest.approx(1 + SQRT3, abs=1e-12)
    assert sorted(lengths)[1] == pytest.approx(1 + SQRT3, abs=1e-12)


def test_realize_infeasible_returns_none():
    (topo,) = enumerate_full_topologies(3)
    # wide angle at the middle point: the branching point degenerates
    assert realize_full_topology([0, 1 + 0.0001j, 2], topo) is None
    # coincident terminals have no span to normalise by
    assert realize_full_topology([1, 1, 1], topo) is None
    assert minimal_full_tree([1, 1, 1]) is None


def test_realize_validates_topology():
    topo3 = enumerate_full_topologies(3)[0]
    with pytest.raises(ParameterError):
        realize_full_topology(SQUARE, topo3)


def test_realized_trees_have_steiner_angles_and_maxwell(rng):
    checked = 0
    topos = enumerate_full_topologies(4)
    while checked < 100:
        pts = [complex(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(4)]
        topo = topos[rng.randrange(len(topos))]
        tree = realize_full_topology(pts, topo)
        if tree is None:
            continue
        checked += 1
        assert local_min_gradient(tree) < 1e-9
        real, resid = maxwell_length(tree)
        assert abs(real - tree.length) <= 1e-10 * tree.length
        assert resid <= 1e-9 * tree.length


def test_solve_two_points():
    sol = solve_exact([1j, 3 + 1j])
    assert sol.best.length == pytest.approx(3.0, abs=1e-15)
    assert len(sol.co_optima) == 1
    assert len(sol.best.edges) == 1


def test_solve_square_two_reflected_optima():
    sol = solve_exact(SQUARE, tol=1e-9)
    assert sol.best.length == pytest.approx(1 + SQRT3, abs=1e-9)
    assert len(sol.co_optima) == 2
    t1, t2 = sol.co_optima
    assert trees_mirror_equal(t1, t2, axis_point=0.5 + 0.5j, axis_angle=math.pi / 4, tol=1e-9)


def test_solve_equilateral_is_fermat():
    sol = solve_exact(EQUILATERAL)
    assert sol.best.length == pytest.approx(SQRT3, abs=1e-12)
    assert len(sol.co_optima) == 1


def test_solve_collinear_points_chain():
    sol = solve_exact([0, 1, 3])
    assert sol.best.length == pytest.approx(3.0, abs=1e-12)
    assert terminal_degrees(sol.best) == [1, 2, 1]


def test_solve_rejects_bad_sizes_and_duplicates():
    with pytest.raises(ParameterError):
        solve_exact([0])
    with pytest.raises(ParameterError):
        solve_exact([complex(k, k % 3) for k in range(10)])
    with pytest.raises(DegenerateInputError):
        solve_exact([0, 1, 1 + 0j])
    with pytest.raises(DegenerateInputError):
        solve_exact([0j, 0j])
    with pytest.raises(ParameterError):
        minimal_full_tree([0])
    with pytest.raises(ParameterError):
        minimal_full_tree([complex(k, k % 3) for k in range(10)])


def test_solve_validates_tol():
    for tol in (-1e-12, -math.inf, math.nan):
        with pytest.raises(ParameterError, match="tol"):
            solve_exact(SQUARE, tol=tol)
    # an infinite tolerance keeps every structure that embeds without crossings
    assert len(solve_exact(SQUARE, tol=math.inf).co_optima) == 7
    assert len(solve_exact(SQUARE, tol=0.0).co_optima) == 2


@st.composite
def _terminals_and_order(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    coord = st.floats(min_value=0.0, max_value=1.0)
    pts = draw(
        st.lists(st.builds(complex, coord, coord), min_size=n, max_size=n).filter(
            lambda ps: all(abs(p - q) >= 0.02 for i, p in enumerate(ps) for q in ps[i + 1 :])
        )
    )
    return pts, draw(st.permutations(range(n)))


def _similar(pts, order, angle, reflect, factor):
    turn = factor * cmath.exp(1j * angle)
    return [turn * (pts[i].conjugate() if reflect else pts[i]) for i in order]


def _assert_same_answer(pts, sol, want):
    """``sol`` solves ``pts``; ``want`` is the (length, count) expected of it."""
    lengths = [t.length for t in sol.co_optima]
    assert sol.best.length == min(lengths)
    assert sol.best.length <= minimum_spanning_tree(pts).length * (1 + 1e-12)
    assert sol.best.length == pytest.approx(want[0], rel=1e-9)
    assert len(sol.co_optima) == want[1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    case=_terminals_and_order(),
    angle=st.floats(min_value=0.0, max_value=2 * math.pi),
    reflect=st.booleans(),
    factor=st.sampled_from([1e-9, 2.5, 1e9]),
    offset=st.sampled_from([1e9, -1e9, 1e9j, -1e9 + 1e9j]),
)
# the unit square at 1e-9 and at an offset of 1e9: two optima of length 1 + sqrt(3)
@example(case=(SQUARE, [0, 1, 2, 3]), angle=0.0, reflect=False, factor=1e-9, offset=1e9)
def test_solve_invariance_under_rigid_motions(case, angle, reflect, factor, offset):
    pts, order = case
    base = solve_exact(pts)
    want = (base.best.length, len(base.co_optima))
    _assert_same_answer(pts, base, want)

    similar = _similar(pts, order, angle, reflect, factor)
    _assert_same_answer(similar, solve_exact(similar), (factor * want[0], want[1]))

    # coordinates near 1e9 round to about 1e-7, so the translated set is
    # compared with itself shifted back exactly, not with ``pts``
    moved = [z + offset for z in _similar(pts, order, angle, reflect, 1.0)]
    back = [z - offset for z in moved]
    back_sol = solve_exact(back)
    _assert_same_answer(moved, solve_exact(moved), (back_sol.best.length, len(back_sol.co_optima)))


def test_solve_never_beats_mst_and_never_loses_to_it(rng):
    for _ in range(10):
        n = rng.randrange(3, 6)
        pts = [complex(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        sol = solve_exact(pts)
        mst = minimum_spanning_tree(pts)
        assert sol.best.length <= mst.length + 1e-12


def test_solve_matches_descent_oracle_on_random_quadruples(rng):
    # the two-branch-point descent over all pairings reaches the exact
    # optimum for 4 terminals (degenerate merges included), independently
    # of the merge/reconstruct machinery
    for _ in range(20):
        pts = [complex(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(4)]
        sol = solve_exact(pts)
        oracle = two_steiner_descent(pts)
        assert sol.best.length == pytest.approx(oracle, abs=5e-7)
        assert sol.best.length <= oracle + 1e-12


def _ladder(k_a, k_b):
    ts = build_input(LadderParams(math.pi / 36, 0.5, max(k_a, k_b)), "A1")
    labels = [f"A{k}" for k in range(1, k_a + 1)] + [f"B{k}" for k in range(1, k_b + 1)]
    return [complex(ts.point(lab)) for lab in labels]


def _random_points(rng, n):
    return [complex(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]


# the oracle's inputs: random sets, the ladders, and sets with many equal or
# degenerate full trees
ORACLE_SETS = [
    *(
        pytest.param(lambda rng, n=n: _random_points(rng, n), id=f"random-{n}")
        for n in (4, 5, 6, 7)
    ),
    pytest.param(lambda rng: _ladder(4, 3), id="ladder-A4B3"),
    pytest.param(lambda rng: _ladder(3, 4), id="ladder-A3B4"),
    pytest.param(lambda rng: _ladder(4, 4), id="ladder-A4B4"),
    # the regular heptagon has many equal-length full trees
    pytest.param(lambda rng: [cmath.exp(2j * math.pi * k / 7) for k in range(7)], id="heptagon"),
    pytest.param(lambda rng: [complex(x, y) for x in range(3) for y in range(2)], id="lattice"),
    pytest.param(lambda rng: [0, 1, 3], id="collinear"),
    pytest.param(lambda rng: [0, 1e-4, 1 + 1j, 0.5 - 0.7j, 1.2 + 0.1j], id="close-pair"),
]


@pytest.mark.parametrize("make", ORACLE_SETS)
def test_component_table_matches_per_topology_scan(make, rng):
    # the shared equilateral points with cone cuts keep, mask for mask, what
    # scanning every topology and orientation word keeps
    pts, _back = _normalise(tuple(complex(z) for z in make(rng)))
    n = len(pts)
    keep = 1e-9 + _SLACK  # solve_exact's keep at tol=1e-9
    table = _full_component_table(pts, keep)
    assert sorted(table) == sorted(m for m in range(1 << n) if m.bit_count() >= 2)
    for size in range(3, n + 1):
        for idxs in itertools.combinations(range(n), size):
            mask = sum(1 << i for i in idxs)
            _best, kept = _subset_full_trees(tuple(pts[i] for i in idxs), keep)
            got = [L for L, _t in table[mask]]
            want = [L for L, _t in kept]
            assert len(got) == len(want), f"mask {mask:0{n}b}: {got} vs {want}"
            assert all(abs(a - b) <= 1e-12 for a, b in zip(got, want)), f"mask {mask:0{n}b}"


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
@pytest.mark.parametrize("make", ORACLE_SETS)
def test_mst_bound_drops_only_trees_longer_than_the_subset_mst(make, tol, rng):
    # solve_exact's table keeps, mask for mask, the unbounded table's trees no
    # longer than the subset's minimum spanning length plus keep
    pts, _back = _normalise(tuple(complex(z) for z in make(rng)))
    n = len(pts)
    keep = tol + _SLACK
    free = _full_component_table(pts, keep)
    bounded = _full_component_table(pts, keep, bounded=True)
    assert sorted(bounded) == sorted(free)
    for mask, entries in free.items():
        mst = minimum_spanning_tree([pts[i] for i in range(n) if mask >> i & 1]).length
        want = [L for L, _t in entries if L <= mst + keep]
        got = [L for L, _t in bounded[mask]]
        assert len(got) == len(want), f"mask {mask:0{n}b}: {got} vs {want}"
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, want)), f"mask {mask:0{n}b}"


def _signature(memo, T, alt, cache):
    """Power of omega = e^(i pi/3) of each terminal in the packed merge ``alt`` on ``T``.

    E = e1 + (e2 - e1) * rotation: ``ROT_LEFT`` (side 0) gives the first
    child's terminals omega^5 = 1 - omega and the second's omega, ``ROT_RIGHT``
    the other way round.
    """
    big, i, j, side = alt >> _BIG, alt >> _I & _LOW, alt >> 1 & _LOW, alt & 1
    out = {}
    for mask, c, turn in ((big, i, 1 if side else 5), (T ^ big, j, 5 if side else 1)):
        if mask & (mask - 1) == 0:
            sub = {mask.bit_length() - 1: 0}
        else:
            if (mask, c) not in cache:
                cache[mask, c] = _signature(memo, mask, memo[mask].alternatives(c)[0], cache)
            sub = cache[mask, c]
        out.update({t: (p + turn) % 6 for t, p in sub.items()})
    return out


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda rng: _ladder(4, 4), id="ladder-A4B4"),
        pytest.param(lambda rng: _random_points(rng, 8), id="random-8"),
    ],
)
def test_signature_classes_decode_to_their_points(make, rng):
    # every class below the top mask is one equilateral point E = sum omega^k_i z_i:
    # each of its merges has the same exponents k_i, they sum to E, its key packs
    # them (block k_i holds terminal i) and no two classes of a mask share them
    pts, _back = _normalise(tuple(complex(z) for z in make(rng)))
    n = len(pts)
    memo = _memo(pts)
    for T in range(6, (1 << n) - 2, 2):
        if T.bit_count() >= 2:
            _classes(T, pts, memo)
    assert len(memo) == 2 ** (n - 1) - 2  # every nonempty mask of terminals 1..n-1 but the top
    cache = {}
    for T, C in memo.items():
        if T.bit_count() == 1:
            continue
        keys = set()
        for c, E in enumerate(C.E):
            sigs = [_signature(memo, T, alt, cache) for alt in C.alternatives(c)]
            assert all(sig == sigs[0] for sig in sigs), f"mask {T:0{n}b} class {c}"
            assert sorted(sigs[0]) == [i for i in range(n) if T >> i & 1]
            key = sum(1 << (k * n + i) for i, k in sigs[0].items())
            if C.key:
                assert C.key[c] == key
            total = sum(cmath.exp(1j * math.pi * k / 3) * pts[i] for i, k in sigs[0].items())
            assert abs(total - E) <= 1e-12, f"mask {T:0{n}b} class {c}"
            keys.add(key)
        assert len(keys) == len(C.E), f"mask {T:0{n}b}"


def _in_cone(direction, mid, half):
    return abs((direction - mid + math.pi) % (2 * math.pi) - math.pi) <= half + 1e-12


def test_cone_union_covers_both_cones(rng):
    # two cones straddling the +-pi seam: their union is the narrow cone about pi
    mid, half = _cone_union(math.pi - 0.1, 0.05, -math.pi + 0.1, 0.05)
    assert half == pytest.approx(0.15, abs=1e-12)
    assert _in_cone(mid, math.pi, 1e-12)
    assert not _in_cone(0.0, mid, half)
    for _ in range(200):
        cones = [(rng.uniform(-4, 4), rng.uniform(0, math.pi / 6)) for _ in range(2)]
        mid, half = _cone_union(*cones[0], *cones[1])
        for m, h in cones:
            for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
                assert _in_cone(m + t * h, mid, half)
    # at a half-width of 2pi/3 the cone becomes the full circle: the phi-interval
    # test of the generator would miss its image at 2pi
    assert _cone_union(0.0, 1.0, 2.0, 1.0) == (pytest.approx(1.0), pytest.approx(2.0))
    assert _cone_union(0.0, 1.0, 2.2, 1.0)[1] == math.inf
    assert _cone_union(0.0, 1.0, 4 * math.pi / 3 - 2.0, 1.0)[1] == math.inf  # half 2pi/3
    assert _cone_union(0.3, math.inf, 1.0, 0.1)[1] == math.inf


def test_minimal_full_tree_matches_every_topology(rng):
    for n in (4, 5, 6):
        topos = enumerate_full_topologies(n)
        for _ in range(6):
            pts = _random_points(rng, n)
            tree = minimal_full_tree(pts)
            realized = [realize_full_topology(pts, topo) for topo in topos]
            lengths = [t.length for t in realized if t is not None]
            if not lengths:
                assert tree is None
            else:
                assert tree is not None
                assert abs(tree.length - min(lengths)) <= 1e-12


def test_minimal_full_tree_square():
    tree = minimal_full_tree(SQUARE)
    assert tree is not None
    assert tree.length == pytest.approx(1 + SQRT3, abs=1e-12)
    assert terminal_degrees(tree) == [1, 1, 1, 1]
    far = minimal_full_tree([z + 1e9 for z in SQUARE])
    assert far is not None
    assert far.length == pytest.approx(1 + SQRT3, rel=1e-9)


def test_mst_examples():
    assert minimum_spanning_tree([0, 5]).length == pytest.approx(5.0)
    assert minimum_spanning_tree(EQUILATERAL).length == pytest.approx(2.0, abs=1e-12)
    assert minimum_spanning_tree(SQUARE).length == pytest.approx(3.0, abs=1e-12)


def test_mst_matches_brute_force(rng):
    for _ in range(5):
        pts = [complex(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(5)]
        assert minimum_spanning_tree(pts).length == pytest.approx(
            brute_mst_length(pts), abs=1e-12
        )


def test_prim_matches_brute_force(rng):
    for n in range(2, 8):
        for _ in range(2):
            pts = _random_points(rng, n)
            total, edges = _prim(pts)
            assert len(edges) == n - 1
            assert total == pytest.approx(brute_mst_length(pts), abs=1e-12)


def test_steiner_ratio_examples():
    assert steiner_ratio([0, 2 + 1j]) == 1.0
    assert steiner_ratio(EQUILATERAL) == pytest.approx(SQRT3 / 2, abs=1e-12)


def test_steiner_ratio_bounds_random_five_point_sets(rng):
    for _ in range(50):
        pts = [complex(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(5)]
        ratio = steiner_ratio(pts)
        assert SQRT3 / 2 - 1e-9 <= ratio <= 1.0 + 1e-12
