import cmath
import math

import pytest

from steiner_ladder.dynamics import _from_uv, _hex_uv
from steiner_ladder.errors import DegenerateInputError, ParameterError
from steiner_ladder.geometry import HexFrame, angle_at
from steiner_ladder.trees import TerminalSet

from oracles import hex_solve_oracle


def test_terminal_set_rejects_non_finite():
    # the finite check lives in as_points, which TerminalSet runs on its points
    with pytest.raises(DegenerateInputError):
        TerminalSet(("a", "b", "c"), (0j, complex("nan"), 1j))
    with pytest.raises(DegenerateInputError):
        TerminalSet.of([0, complex(0, math.inf)])
    points = TerminalSet(("a", "b"), (0, 1)).points
    assert points == (0j, 1 + 0j)
    assert [type(p) for p in points] == [complex, complex]


def test_angle_at_examples():
    assert abs(angle_at(0, 1, 1j) - math.pi / 2) < 1e-15
    assert abs(angle_at(0, 1, -1) - math.pi) < 1e-15
    third = cmath.exp(2j * math.pi / 3)
    assert abs(angle_at(0, 1, third) - 2 * math.pi / 3) < 1e-15
    # rays 1e-157 long: their raw dot and cross products would be subnormal
    assert abs(angle_at(0, 1e-157, 1e-157 * third) - 2 * math.pi / 3) < 1e-15
    with pytest.raises(DegenerateInputError):
        angle_at(0, 0, 1)


def test_hex_frame_invariants():
    f = HexFrame.from_axis(0.3)
    assert abs(f.e1 + f.e2 + f.e3) < 1e-12
    for e in (f.e1, f.e2, f.e3):
        assert abs(abs(e) - 1) < 1e-12
    with pytest.raises(ParameterError):
        HexFrame(1, 1j, -1 - 1j)  # not unit / not ccw structure


def test_hex_frame_rejects_nan():
    f = HexFrame.from_axis(0.0)
    with pytest.raises(ParameterError):
        HexFrame.from_axis(math.nan)
    with pytest.raises(ParameterError):
        HexFrame(complex(math.nan, 0.0), f.e2, f.e3)


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
