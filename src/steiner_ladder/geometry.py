"""Primitive planar geometry.

Points are plain ``complex`` numbers.  Terminals are checked for finite
coordinates once, by ``trees.as_points`` (which ``TerminalSet`` also uses).
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


def angle_at(vertex: complex, p: complex, q: complex) -> float:
    """Convex angle at ``vertex`` between rays towards ``p`` and ``q``, in [0, pi]."""
    u = complex(p) - complex(vertex)
    v = complex(q) - complex(vertex)
    if u == 0 or v == 0:
        raise DegenerateInputError("angle_at: ray endpoint coincides with vertex")
    # the quotient of the unit rays has the dot and cross products of the rays for
    # its parts; those of the raw rays are subnormal once the rays are 1e-157 long
    return abs(cmath.phase((v / abs(v)) / (u / abs(u))))


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
    pts = sorted({(z.real, z.imag) for z in map(complex, points)})
    if len(pts) <= 2:
        return [complex(x, y) for x, y in pts]

    def half(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            px, py = p
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return [complex(x, y) for x, y in hull]


def points_in_hull(points: list[complex], hull: list[complex], tol: float = 1e-9) -> bool:
    """True when every point lies inside or on the (ccw) hull within ``tol``."""
    if not hull:
        return not points
    if len(hull) == 1:
        return all([abs(z - hull[0]) <= tol for z in points])
    if len(hull) == 2:
        return all([point_segment_distance(z, hull[0], hull[1]) <= tol for z in points])
    xy = [(z.real, z.imag) for z in points]
    for p, q in zip(hull, hull[1:] + hull[:1]):
        d = q - p
        dx, dy, px, py, bound = d.real, d.imag, p.real, p.imag, -tol * abs(d)
        for x, y in xy:
            if dx * (y - py) - dy * (x - px) < bound:
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
