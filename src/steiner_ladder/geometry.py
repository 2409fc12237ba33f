"""Primitive planar geometry.

Points are complex numbers.  ``Point`` subclasses ``complex`` so instances
flow through arithmetic unchanged; plain ``complex`` values are accepted
everywhere a point is expected.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateInputError, ParameterError

SQRT3 = math.sqrt(3.0)
TWO_THIRDS_PI = 2.0 * math.pi / 3.0

# rotation by +-60 degrees, used for equilateral constructions
ROT_LEFT = complex(0.5, SQRT3 / 2.0)
ROT_RIGHT = complex(0.5, -SQRT3 / 2.0)

_OMEGA = complex(-0.5, SQRT3 / 2.0)  # exp(2*pi*i/3)


class Point(complex):
    """Planar point with finite coordinates; doubles as a complex number."""

    def __new__(cls, x: float, y: float = 0.0) -> "Point":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DegenerateInputError(f"non-finite coordinates ({x!r}, {y!r})")
        return super().__new__(cls, x, y)

    @classmethod
    def of(cls, z: complex) -> "Point":
        return cls(z.real, z.imag)

    @property
    def x(self) -> float:
        return self.real

    @property
    def y(self) -> float:
        return self.imag

    def __repr__(self) -> str:
        return f"Point({self.real!r}, {self.imag!r})"


def equilateral_third(p1: complex, p2: complex, side: str = "left") -> Point:
    """Third vertex of the equilateral triangle on ``p1 p2``.

    ``side`` selects the solution to the left or right of the directed
    segment p1 -> p2.
    """
    d = complex(p2) - complex(p1)
    if d == 0:
        raise DegenerateInputError("equilateral_third: coincident endpoints")
    if side == "left":
        return Point.of(p1 + d * ROT_LEFT)
    if side == "right":
        return Point.of(p1 + d * ROT_RIGHT)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def angle_at(vertex: complex, p: complex, q: complex) -> float:
    """Convex angle at ``vertex`` between rays towards ``p`` and ``q``, in [0, pi]."""
    u = complex(p) - complex(vertex)
    v = complex(q) - complex(vertex)
    if u == 0 or v == 0:
        raise DegenerateInputError("angle_at: ray endpoint coincides with vertex")
    # the quotient of the unit rays has the dot and cross products of the rays for
    # its parts; those of the raw rays are subnormal once the rays are 1e-157 long
    return abs(cmath.phase((v / abs(v)) / (u / abs(u))))


def fermat_point(a: complex, b: complex, c: complex) -> tuple[Point, str]:
    """Point minimising the summed distance to the triangle ``a b c``.

    Returns ``(point, "interior")`` when all angles are below 2*pi/3 (the
    interior point then sees each side under equal angles), otherwise
    ``(vertex, "vertex")`` for the wide-angle vertex.
    """
    pts = (complex(a), complex(b), complex(c))
    if pts[0] == pts[1] or pts[1] == pts[2] or pts[0] == pts[2]:
        raise DegenerateInputError("fermat_point: coincident vertices")
    for i in range(3):
        ang = angle_at(pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3])
        if ang >= TWO_THIRDS_PI - 1e-14:
            return Point.of(pts[i]), "vertex"
    # intersection of two Simpson lines [a, E_a], [b, E_b] where E_v is the
    # outward equilateral vertex on the opposite side
    e_a = _outward_equilateral(pts[1], pts[2], pts[0])
    e_b = _outward_equilateral(pts[0], pts[2], pts[1])
    p = line_intersection(pts[0], e_a, pts[1], e_b)
    return Point.of(p), "interior"


def _outward_equilateral(p: complex, q: complex, opposite: complex) -> complex:
    """Equilateral third point of [p q] on the side away from ``opposite``."""
    left = complex(equilateral_third(p, q, "left"))
    d = q - p
    side_of = lambda z: (d.real * (z - p).imag - d.imag * (z - p).real)
    if side_of(left) * side_of(opposite) < 0:
        return left
    return complex(equilateral_third(p, q, "right"))


def line_intersection(p1: complex, p2: complex, q1: complex, q2: complex) -> complex:
    """Meeting point of the lines p1 p2 and q1 q2; parallel lines raise at any scale."""
    d1 = p2 - p1
    d2 = q2 - q1
    denom = d1.real * d2.imag - d1.imag * d2.real
    if abs(denom) <= 1e-30 * abs(d1) * abs(d2):
        raise DegenerateInputError("line_intersection: parallel lines")
    w = q1 - p1
    t = (w.real * d2.imag - w.imag * d2.real) / denom
    return p1 + t * d1


@dataclass(frozen=True)
class HexFrame:
    """Three unit directions with zero sum, counter-clockwise oriented."""

    e1: complex
    e2: complex
    e3: complex

    def __post_init__(self) -> None:
        for e in (self.e1, self.e2, self.e3):
            if not abs(abs(e) - 1.0) <= 1e-12:
                raise ParameterError(f"frame vector {e!r} is not unit length")
        if not abs(self.e1 + self.e2 + self.e3) <= 1e-12:
            raise ParameterError("frame vectors do not sum to zero")
        cross = self.e1.real * self.e2.imag - self.e1.imag * self.e2.real
        if not cross > 0:
            raise ParameterError("frame is not counter-clockwise oriented")

    @classmethod
    def from_axis(cls, axis_angle: float = 0.0) -> "HexFrame":
        e1 = cmath.exp(1j * axis_angle)
        return cls(e1, e1 * _OMEGA, e1 * _OMEGA.conjugate())


def reflect_across(z: complex, axis_point: complex = 0j, axis_angle: float = 0.0) -> complex:
    """Reflect ``z`` across the line through ``axis_point`` at ``axis_angle``."""
    rot = cmath.exp(2j * axis_angle)
    return axis_point + rot * (complex(z) - complex(axis_point)).conjugate()


def convex_hull(points: list[complex]) -> list[complex]:
    """Andrew monotone chain; returns hull vertices in ccw order."""
    pts = sorted(set((z.real, z.imag) for z in map(complex, points)))
    if len(pts) <= 2:
        return [complex(x, y) for x, y in pts]

    def half(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return [complex(x, y) for x, y in hull]


def point_in_hull(z: complex, hull: list[complex], tol: float = 1e-9) -> bool:
    """True when ``z`` lies inside or on the (ccw) hull within ``tol``."""
    if not hull:
        return False
    if len(hull) == 1:
        return abs(z - hull[0]) <= tol
    if len(hull) == 2:
        return point_segment_distance(z, hull[0], hull[1]) <= tol
    for i, p in enumerate(hull):
        q = hull[(i + 1) % len(hull)]
        d = q - p
        if d.real * (z - p).imag - d.imag * (z - p).real < -tol * abs(d):
            return False
    return True


def point_segment_distance(z: complex, a: complex, b: complex) -> float:
    """Distance from ``z`` to the closed segment [a, b]."""
    z, a, b = complex(z), complex(a), complex(b)
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(z - a)
    t = ((z - a).real * d.real + (z - a).imag * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * d))
