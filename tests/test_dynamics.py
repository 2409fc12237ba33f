import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steiner_ladder.analysis import classify, trees_mirror_equal
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
    self_similarity_defect,
)
from steiner_ladder.trees import reflect_tree

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


def test_tree_from_orbit_matches_direct_construction(p0):
    K = 12
    ldr = LadderParams(ALPHA, LAM, K)
    orbit = iterate(p0, 1 / 6, K + 1, "inverse")
    tree = tree_from_orbit(p0, ldr, orbit, K)
    lower = build_ladder_tree_A0(ldr, "lower")
    upper = build_ladder_tree_A0(ldr, "upper")
    assert classify(tree) == "full"
    assert tree.length == pytest.approx(lower.length, rel=1e-12)
    assert trees_mirror_equal(upper, tree, tol=1e-8)
    # starting at the other periodic point gives the upper network
    orbit2 = iterate(p0, 5 / 6, K + 1, "inverse")
    tree2 = tree_from_orbit(p0, ldr, orbit2, K)
    assert trees_mirror_equal(lower, tree2, tol=1e-8)
    assert tree2.length == pytest.approx(upper.length, rel=1e-12)


@pytest.mark.parametrize("K", [1100, 2000])
def test_tree_from_orbit_past_underflow_matches_direct_construction(p0, K):
    # lam**K underflows to 0 here, so the level heights must not be divided by it
    ldr = LadderParams(ALPHA, LAM, K)
    tree = tree_from_orbit(p0, ldr, iterate(p0, 1 / 6, K + 1, "inverse"), K)
    assert tree.length == pytest.approx(build_ladder_tree_A0(ldr, "lower").length, rel=1e-12)


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
