import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steiner_ladder.dynamics import _from_uv, _hex_uv
from steiner_ladder.errors import DegenerateInputError, ParameterError
from steiner_ladder.geometry import (
    HexFrame,
    Point,
    angle_at,
    equilateral_third,
    fermat_point,
)

from oracles import fermat_oracle, hex_solve_oracle

SQRT3 = math.sqrt(3)

coords = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def test_point_rejects_non_finite():
    with pytest.raises(DegenerateInputError):
        Point(float("nan"), 0.0)
    with pytest.raises(DegenerateInputError):
        Point(0.0, float("inf"))


def test_point_is_complex():
    p = Point(1.0, 2.0)
    assert complex(p) == 1 + 2j
    assert p.x == 1.0 and p.y == 2.0
    assert p + 1j == 1 + 3j


def test_equilateral_third_unit_base():
    assert abs(equilateral_third(0, 1, "left") - complex(0.5, SQRT3 / 2)) < 1e-15
    assert abs(equilateral_third(0, 1, "right") - complex(0.5, -SQRT3 / 2)) < 1e-15


def test_equilateral_third_vertical_base():
    p = equilateral_third(0, 2j, "left")
    assert abs(p - complex(-SQRT3, 1)) < 1e-14
    for q in (0, 2j):
        assert abs(abs(p - q) - 2.0) < 1e-14


def test_equilateral_third_degenerate():
    with pytest.raises(DegenerateInputError):
        equilateral_third(1 + 1j, 1 + 1j)
    with pytest.raises(ValueError):
        equilateral_third(0, 1, "up")


@settings(max_examples=200, derandomize=True)
@given(coords, coords, coords, coords, st.sampled_from(["left", "right"]))
@example(0.0, 1.0, 1e-6, 1.0, "left")
def test_equilateral_third_equidistant(x1, y1, x2, y2, side):
    p1, p2 = complex(x1, y1), complex(x2, y2)
    base = abs(p2 - p1)
    if base < 1e-9:
        return
    p = equilateral_third(p1, p2, side)
    # p - p1 rounds at the scale of the coordinates, not of the base
    tol = 1e-12 * max(base, abs(p1), abs(p2))
    assert abs(abs(p - p1) - base) <= tol
    assert abs(abs(p - p2) - base) <= tol


def test_angle_at_examples():
    assert abs(angle_at(0, 1, 1j) - math.pi / 2) < 1e-15
    assert abs(angle_at(0, 1, -1) - math.pi) < 1e-15
    third = cmath.exp(2j * math.pi / 3)
    assert abs(angle_at(0, 1, third) - 2 * math.pi / 3) < 1e-15
    # rays 1e-157 long: their raw dot and cross products would be subnormal
    assert abs(angle_at(0, 1e-157, 1e-157 * third) - 2 * math.pi / 3) < 1e-15
    with pytest.raises(DegenerateInputError):
        angle_at(0, 0, 1)


def test_fermat_equilateral_triangle():
    a, b, c = 0, 1, complex(0.5, SQRT3 / 2)
    p, kind = fermat_point(a, b, c)
    assert kind == "interior"
    centroid = (a + b + c) / 3
    assert abs(p - centroid) < 1e-12
    oracle_pt, oracle_val = fermat_oracle(a, b, c)
    assert abs(p - oracle_pt) < 1e-6
    assert abs(sum(abs(p - v) for v in (a, b, c)) - SQRT3) < 1e-12
    assert abs(oracle_val - SQRT3) < 1e-9


def test_fermat_sliver_triangle_interior():
    a, b, c = 0, 1, complex(0.5, 10)
    p, kind = fermat_point(a, b, c)
    assert kind == "interior"
    assert abs(p.real - 0.5) < 1e-12
    oracle_pt, _ = fermat_oracle(a, b, c)
    assert abs(p - oracle_pt) < 1e-6


def test_fermat_wide_angle_returns_vertex():
    # 150 degree angle at the origin
    a = 0
    b = 1
    c = cmath.exp(1j * math.radians(150))
    p, kind = fermat_point(a, b, c)
    assert kind == "vertex"
    assert p == 0


def test_fermat_interior_sees_equal_angles(rng):
    found = 0
    while found < 50:
        a, b, c = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
        try:
            p, kind = fermat_point(a, b, c)
        except DegenerateInputError:
            continue
        if kind != "interior":
            continue
        found += 1
        for u, v in ((a, b), (b, c), (a, c)):
            assert abs(angle_at(p, u, v) - 2 * math.pi / 3) < 1e-9


def test_hex_frame_invariants():
    f = HexFrame.from_axis(0.3)
    assert abs(f.e1 + f.e2 + f.e3) < 1e-12
    for e in (f.e1, f.e2, f.e3):
        assert abs(abs(e) - 1) < 1e-12
    with pytest.raises(ParameterError):
        HexFrame(1, 1j, -1 - 1j)  # not unit / not ccw structure


def test_hex_matches_linear_solve_oracle(rng):
    for axis in (0.0, -0.11, 0.37):
        f = HexFrame.from_axis(axis)
        for _ in range(100):
            p = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            h_u, h_v = _hex_uv(p, f)
            u, v, _w = hex_solve_oracle(p, f.e1)
            assert abs(h_u - u) < 1e-10 and abs(h_v - v) < 1e-10


def test_hex_round_trip(rng):
    f = HexFrame.from_axis(-0.2)
    for _ in range(1000):
        p = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        u, v = _hex_uv(p, f)
        assert abs(u * f.e1 + v * f.e2 - v * f.e3 - p) < 1e-10
        assert abs(_from_uv(u, v, f) - p) < 1e-10
