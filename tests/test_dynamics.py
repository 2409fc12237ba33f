import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steiner_ladder.analysis import classify, self_similarity_defect
from steiner_ladder.dynamics import (
    ESCAPED,
    HIT_FORBIDDEN,
    Orbit,
    derive_params,
    forward_map,
    inverse_map,
    iterate,
    orbit_from_tree,
    orbit_heights,
    periodic_points,
    tree_from_orbit,
)
from steiner_ladder.errors import EscapeError, ForbiddenPointError, ParameterError
from steiner_ladder.ladder import (
    LadderParams,
    build_ladder_tree_A0,
    build_ladder_tree_A1,
    closed_form_length_A0,
)
from steiner_ladder.trees import reflect_tree

from oracles import direct_ladder_tree_A0, enumerated_periodic_points

ALPHA = math.pi / 36
LAM = 0.5

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@pytest.fixture(scope="module")
def p0():
    return derive_params(ALPHA, LAM, 0.0)


@pytest.fixture(scope="module")
def p_tilt():
    return derive_params(ALPHA, LAM, ALPHA / 2)


def test_symmetric_frame_constants(p0):
    s3 = math.sqrt(3)
    assert p0.a == pytest.approx(math.sin(ALPHA) / s3, abs=1e-15)
    assert p0.b == pytest.approx(p0.a, abs=1e-15)
    assert p0.delta == pytest.approx(0.0, abs=1e-15)
    assert p0.l == pytest.approx(math.cos(ALPHA), abs=1e-15)
    assert p0.q_plus == pytest.approx(0.5, abs=1e-14)
    assert p0.t_star == pytest.approx(0.5, abs=1e-15)
    assert p0.t2 == pytest.approx(1 - LAM / 2, abs=1e-14)  # 3/4 at lam = 1/2


def test_tilted_frame_matches_closed_forms(p_tilt):
    # independent derivation: solve the frame decomposition by hand
    beta = ALPHA / 2
    s3 = math.sqrt(3)
    assert p_tilt.a == pytest.approx(math.sin(ALPHA) * (math.cos(beta) / s3 - math.sin(beta)), abs=1e-14)
    assert p_tilt.b == pytest.approx(math.sin(ALPHA) * (math.cos(beta) / s3 + math.sin(beta)), abs=1e-14)
    assert p_tilt.delta == pytest.approx(math.cos(ALPHA) * math.sin(beta) / s3, abs=1e-14)
    assert p_tilt.l == pytest.approx(math.cos(ALPHA) * math.cos(beta), abs=1e-14)
    assert p_tilt.b >= p_tilt.a
    # derived-quantity identities
    assert p_tilt.q_minus == pytest.approx(p_tilt.q_plus - 1 / LAM, abs=1e-12)
    assert p_tilt.t1 == pytest.approx(LAM * (1 - p_tilt.q_plus), abs=1e-14)
    assert p_tilt.t2 == pytest.approx(-LAM * p_tilt.q_minus, abs=1e-14)
    assert p_tilt.t_star == pytest.approx(p_tilt.a / (p_tilt.a + p_tilt.b), abs=1e-15)


def test_derive_params_validation():
    with pytest.raises(ParameterError):
        derive_params(ALPHA, 0.543, 0.0)
    with pytest.raises(ParameterError):
        derive_params(ALPHA, LAM, 2 * ALPHA)


def test_inverse_map_formula(p0):
    for t in (0.0, 0.1, 1 / 6, 0.33, 0.74, 5 / 6, 0.999):
        want = (LAM * t + 1 - LAM / 2) % 1.0
        assert inverse_map(p0, t) == pytest.approx(want, abs=1e-15)


def test_forward_map_covers_unit_interval(p0):
    assert forward_map(p0, 0.0) == pytest.approx(p0.q_plus, abs=1e-14)
    assert forward_map(p0, p0.t1) == pytest.approx(1.0, abs=1e-12)
    assert forward_map(p0, p0.t2) == pytest.approx(0.0, abs=1e-12)
    assert forward_map(p0, 1.0) == pytest.approx(p0.q_plus, abs=1e-12)


def test_forward_map_forbidden_and_escape(p0):
    with pytest.raises(ForbiddenPointError):
        forward_map(p0, p0.t_star)
    with pytest.raises(EscapeError):
        forward_map(p0, 0.4)  # inside the gap (t1, t*) at these parameters


def test_inverse_map_forbidden(p_tilt):
    with pytest.raises(ForbiddenPointError):
        inverse_map(p_tilt, p_tilt.q_plus)


@settings(max_examples=300, derandomize=True)
@given(unit)
def test_forward_undoes_inverse(t):
    p = derive_params(ALPHA, LAM, 0.0)
    if abs(t - p.q_plus) < 1e-9:
        return
    try:
        assert forward_map(p, inverse_map(p, t)) == pytest.approx(t, abs=1e-12)
    except ForbiddenPointError:
        pass  # image landed on the branch boundary


@settings(max_examples=300, derandomize=True)
@given(unit, unit)
def test_inverse_is_branchwise_contraction(s, t):
    p = derive_params(ALPHA, LAM, ALPHA / 2)
    lo, hi = sorted((s, t))
    if lo < p.q_plus < hi:
        return
    if min(abs(lo - p.q_plus), abs(hi - p.q_plus)) < 1e-9:
        return
    assert abs(inverse_map(p, hi) - inverse_map(p, lo)) <= LAM * (hi - lo) + 1e-15


def test_iterate_periodic(p0):
    orbit = iterate(p0, 1 / 6, 10, "inverse")
    assert orbit.status == "ok"
    for j, v in enumerate(orbit.values):
        want = 1 / 6 if j % 2 == 0 else 5 / 6
        assert v == pytest.approx(want, abs=1e-12)


def test_iterate_stops_on_forbidden_and_escape(p0):
    forbidden = iterate(p0, p0.t_star, 5, "forward")
    assert forbidden.status == HIT_FORBIDDEN
    assert len(forbidden.values) == 1
    escaped = iterate(p0, 0.4, 5, "forward")
    assert escaped.status == ESCAPED


@pytest.mark.parametrize("t0", [math.nan, 7.0, -0.5, math.inf, -math.inf])
def test_iterate_rejects_a_start_outside_the_unit_interval(p0, t0):
    with pytest.raises(ParameterError):
        iterate(p0, t0, 3, "inverse")


def test_iterate_clamps_a_start_within_the_boundary_tolerance(p0):
    assert iterate(p0, 1.0 + 1e-13, 0).values == (1.0,)
    assert iterate(p0, -1e-13, 0).values == (0.0,)


def test_derive_params_rejects_a_nan_beta():
    with pytest.raises(ParameterError):
        derive_params(ALPHA, LAM, math.nan)


def test_iterate_inverse_stays_in_unit_interval(p_tilt, rng):
    for _ in range(20):
        orbit = iterate(p_tilt, rng.random(), 500, "inverse")
        assert orbit.status == "ok"
        assert all(0.0 <= v < 1.0 for v in orbit.values)


def test_orbit_value_range_enforced():
    with pytest.raises(ParameterError):
        Orbit((0.5, 1.2), "ok")


def test_periodic_points_symmetric(p0):
    pts = periodic_points(p0, 2)
    assert pts == [1 / 6, 5 / 6]  # lam/(2(lam+1)) and (lam+2)/(2(lam+1)) exactly
    assert periodic_points(p0, 1) == []
    for t in pts:
        cur = t
        for _ in range(2):
            cur = inverse_map(p0, cur)
        assert cur == pytest.approx(t, abs=1e-12)


def test_periodic_points_fixed_point_formula():
    p = derive_params(ALPHA, LAM, ALPHA)
    pts = periodic_points(p, 1)
    assert len(pts) == 1
    assert pts[0] == pytest.approx(p.t2 / (1 - LAM), abs=1e-12)
    assert inverse_map(p, pts[0]) == pytest.approx(pts[0], abs=1e-12)


def test_periodic_points_return_to_themselves(p_tilt):
    for period in (1, 2, 3, 4):
        for t in periodic_points(p_tilt, period):
            cur = t
            for _ in range(period):
                cur = inverse_map(p_tilt, cur)
            assert cur == pytest.approx(t, abs=1e-12)


def test_periodic_points_of_a_multiple_period_is_the_same_orbit():
    # lam**10 is about 1e-12 here, so branch words that differ from the
    # 2-cycle's in an early bit pass a 1e-12 round trip as well
    p = derive_params(0.0555312258000673, 0.06341983416921698, 0.0014824603713215728)
    cycle = periodic_points(p, 2)
    assert len(cycle) == 2
    for period in (2, 4, 6, 12):
        pts = periodic_points(p, period)
        assert len(pts) == len(cycle)
        assert all(abs(t - c) <= 1e-14 for t, c in zip(pts, cycle))


def _bound(alpha):
    return (math.cos(math.pi / 3 + alpha) / math.cos(math.pi / 3 - alpha)) ** 2


# beta a little either side of a change of the attractor's period, found by
# bisection on the enumerated points (the lower side has the first period)
_PERIOD_CHANGES = [
    (ALPHA, LAM, 0.022376410205246566),  # 2 -> 5
    (ALPHA, LAM, 0.028691370084731264),  # 8 -> 3
    (ALPHA, LAM, 0.04807040769684462),  # 10 -> 4
    (ALPHA, LAM, 0.06598716389214872),  # 7 -> 1
    (0.05, 0.7, 0.015985258311902676),  # 2 -> none up to 12
    (0.05, 0.7, 0.018728288449427085),  # 9 -> none up to 12
    (0.05, 0.7, 0.029160736336514587),  # 5 -> 8
    (0.2, 0.2, 0.03293592604972121),  # 3 -> 5
    (0.3, 0.09, 0.016074843917868526),  # 2 -> 1
    (0.1, 0.06, 0.004793135222593881),  # 2 -> 3
    (0.1, 0.06, 0.005368425253082968),  # 3 -> 1
]
_ORACLE_GRID = (
    [(a, lam, b) for a, lam in ((ALPHA, LAM), (math.pi / 20, 0.3), (math.pi / 10, 0.05))
     for b in (0.0, a)]
    + [(a, _bound(a) - 5e-4, b) for a in (0.01, 0.05, 0.3) for b in (0.0, a / 3, a)]
    + [(a, lam, b + d) for a, lam, b in _PERIOD_CHANGES for d in (-1e-9, 1e-9)]
)


@pytest.mark.parametrize("alpha, lam, beta", _ORACLE_GRID)
def test_periodic_points_match_every_branch_word(alpha, lam, beta):
    p = derive_params(alpha, lam, beta)
    for period in range(1, 13):
        got, want = periodic_points(p, period), enumerated_periodic_points(p, period)
        if lam >= 0.1:
            assert got == want, period
            continue
        # below lam = 0.1 the enumeration can keep several points of one orbit
        # point; merge them before comparing
        clusters = []
        for t in want:
            if clusters and t - clusters[-1][-1] <= 1e-11:
                clusters[-1].append(t)
            else:
                clusters.append([t])
        assert len(got) == len(clusters), period
        for t, near in zip(got, clusters):
            assert min(abs(t - u) for u in near) <= 1e-12, period


def test_tree_from_orbit_matches_direct_construction():
    # the 2-cycle moves with lam (it is 1/6 and 5/6 only at lam = 1/2), so the
    # orbit route is checked against the rhombus-by-rhombus build at three ratios
    for alpha, lam in ((math.pi / 20, 0.3), (math.pi / 10, 0.05), (ALPHA, LAM)):
        p = derive_params(alpha, lam, 0.0)
        cycle = periodic_points(p, 2)
        assert len(cycle) == 2
        for K in (1, 2, 5, 40):
            ldr = LadderParams(alpha, lam, K)
            for t0, side in zip(cycle, ("lower", "upper")):
                tree = tree_from_orbit(p, ldr, iterate(p, t0, K + 1, "inverse"), K)
                ref = direct_ladder_tree_A0(ldr, side)
                assert classify(tree) == "full"
                assert len(tree.vertices) == len(ref.vertices)
                for z in ref.vertices:
                    assert min(abs(z - w) for w in tree.vertices) <= 1e-15
                assert abs(tree.length - ref.length) <= 1e-15 * ref.length
                assert build_ladder_tree_A0(ldr, side).vertices == tree.vertices


@pytest.mark.parametrize("K", [1100, 2000])
def test_tree_from_orbit_past_underflow_matches_direct_construction(p0, K):
    # lam**K underflows to 0 here, so the level heights must not be divided by it;
    # the truncated network is exactly (1 - lam**K) times the infinite one
    ldr = LadderParams(ALPHA, LAM, K)
    tree = tree_from_orbit(p0, ldr, iterate(p0, 1 / 6, K + 1, "inverse"), K)
    want = (1 - LAM**K) * closed_form_length_A0(ALPHA, LAM)
    assert tree.length == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("K", [1040, 1048, 1050, 1057, 1058])
def test_orbit_from_tree_never_returns_a_short_orbit(p0, K):
    # past the subnormal radii the levels cannot be read: every segment comes
    # back, or the tree is refused
    orbit = iterate(p0, 1 / 6, K + 1, "inverse")
    tree = tree_from_orbit(p0, LadderParams(ALPHA, LAM, K), orbit, K)
    try:
        back = orbit_from_tree(tree, p0)
    except ParameterError:
        return
    assert len(back.values) == K + 1
    assert back.values == pytest.approx(orbit.values[: K + 1], abs=1e-9)


def test_orbit_from_tree_reads_up_to_the_subnormal_radii(p0):
    # at lam = 1/2 the deepest vertices turn subnormal from depth 1023 on
    def network(K):
        orbit = iterate(p0, 1 / 6, K + 1, "inverse")
        return orbit, tree_from_orbit(p0, LadderParams(ALPHA, LAM, K), orbit, K)

    orbit, tree = network(1022)
    assert orbit_from_tree(tree, p0).values == pytest.approx(orbit.values[:1023], abs=1e-9)
    with pytest.raises(ParameterError, match="subnormal"):
        orbit_from_tree(network(1023)[1], p0)


def test_orbit_tree_round_trip(p0, p_tilt):
    K = 10
    ldr = LadderParams(ALPHA, LAM, K)
    cases = [
        (p0, iterate(p0, 1 / 6, K, "inverse").values),
        (p0, iterate(p0, 5 / 6, K, "inverse").values),
        # a generic contraction orbit read backwards is a forward trajectory
        (p_tilt, tuple(reversed(iterate(p_tilt, 0.31, K, "inverse").values))),
    ]
    for p, values in cases:
        orbit = Orbit(values)
        tree = tree_from_orbit(p, ldr, orbit, K)
        back = orbit_from_tree(tree, p)
        assert back.start_index == 0
        assert len(back.values) >= K
        for a, b in zip(back.values, values):
            assert a == pytest.approx(b, abs=1e-9)


def test_tree_from_orbit_rejects_inconsistent_heights(p_tilt):
    ldr = LadderParams(ALPHA, LAM, 4)
    with pytest.raises(ParameterError):
        tree_from_orbit(p_tilt, ldr, Orbit((0.1, 0.9, 0.2, 0.8)), 4)


def test_tree_from_orbit_refuses_the_corner_height_at_every_level(p_tilt):
    # t* has no rhombus crossing, whether it is the only value or the last one
    t_star = p_tilt.t_star
    before = p_tilt.lam * (t_star - p_tilt.q_minus)  # forward_map sends it to t*
    assert forward_map(p_tilt, before) == pytest.approx(t_star, abs=1e-12)
    for values in ((t_star,), (before, t_star)):
        K = len(values)
        with pytest.raises(ForbiddenPointError):
            tree_from_orbit(p_tilt, LadderParams(ALPHA, LAM, K), Orbit(values), K)


def test_orbit_heights_scaling(p0):
    orbit = iterate(p0, 1 / 6, 4, "inverse")
    mus = orbit_heights(p0, orbit)
    for j, (nu, mu) in enumerate(zip(orbit.values, mus)):
        assert mu == pytest.approx(LAM**j * (p0.a + p0.b) * (nu - 0.5), abs=1e-15)


def test_ladder_chain_orbit_is_two_periodic_with_corner_hits(p0):
    # the mirrored-block chain is tilted along this frame's axis
    ldr = LadderParams(ALPHA, LAM, 9)
    beta = _chain_axis_angle()
    p = derive_params(ALPHA, LAM, beta)
    chain = build_ladder_tree_A1(ldr, "1111")
    orbit = orbit_from_tree(chain, p)
    assert orbit.start_index == 1
    for j, v in enumerate(orbit.values):
        want = 0.0 if j % 2 == 1 else orbit.values[0]
        assert v == pytest.approx(want, abs=1e-9)
    # the unmirrored chain is its reflection
    flipped = orbit_from_tree(reflect_tree(build_ladder_tree_A1(ldr, "0000")), p)
    assert flipped.values == pytest.approx(orbit.values, abs=1e-12)


def test_constant_orbit_bends_one_way():
    p = derive_params(ALPHA, LAM, ALPHA)
    (t,) = periodic_points(p, 1)
    K = 8
    ldr = LadderParams(ALPHA, LAM, K)
    tree = tree_from_orbit(p, ldr, Orbit((t,) * K), K)
    assert classify(tree) == "full"
    assert t > p.t_star  # every level takes the same branch
    defect = self_similarity_defect(tree, LAM, min_radius=LAM ** (K - 1))
    assert defect < 1e-9 * tree.diameter()


def _chain_axis_angle() -> float:
    import cmath

    s = math.sin(ALPHA)
    a = 2 * s * LAM / (1 - LAM**2)
    b = 2 * s * LAM**2 / (1 - LAM**2)
    c = math.cos(ALPHA) + math.sqrt(3) * s
    val = c + a * cmath.exp(1j * math.pi / 6) + b * cmath.exp(-1j * math.pi / 6)
    return math.atan2(val.imag, val.real)
