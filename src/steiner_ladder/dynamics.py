"""Interval dynamics of the ladder networks.

The heights (in hexagonal coordinates) of the long segments joining
consecutive rhombi obey an affine two-branch recurrence; normalised to
[0, 1] the forward law is ``t -> t/lam + q_plus`` below ``t_star`` and
``t -> t/lam + q_minus`` above, and its inverse is the two-interval
piecewise contraction ``t -> frac(lam * t + t2)``.  Periodic points of the
inverse map correspond to self-similar networks; trajectories that hit the
branch boundary correspond to networks with a degree-two terminal.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import EscapeError, ForbiddenPointError, ParameterError
from .geometry import SQRT3, HexFrame, line_intersection
from .ladder import LadderParams, bisector_abscissa, condition_holds
from .trees import STEINER, TERMINAL, EmbeddedTree

OK = "ok"
HIT_FORBIDDEN = "hit_forbidden"
ESCAPED = "escaped"

FORWARD = "forward"
INVERSE = "inverse"

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class DynamicsParams:
    """Frame and affine-map constants for one (alpha, lam, beta) triple.

    ``a`` and ``b`` are the half side lengths of the unit-level rhombus
    (``b >= a``), ``delta`` the height of its centre, ``l`` its abscissa in
    the frame (tracked, never consumed by the maps).
    """

    alpha: float
    beta: float
    lam: float
    a: float
    b: float
    delta: float
    l: float
    frame: HexFrame
    q_plus: float
    q_minus: float
    t1: float
    t_star: float
    t2: float


@dataclass(frozen=True)
class Orbit:
    """Normalised trajectory, all values in [0, 1].

    ``values[j]`` is the height of the long segment entering rhombus number
    ``start_index + j + 1``.
    """

    values: tuple[float, ...]
    status: str = OK
    start_index: int = 0

    def __post_init__(self) -> None:
        if any(not 0.0 <= v <= 1.0 for v in self.values):
            raise ParameterError("orbit values must lie in [0, 1]")


def _unit_corners(alpha: float, frame: HexFrame) -> tuple[complex, complex, complex, complex]:
    """Corners (A, U, B, V) of the unit-level rhombus in the given frame."""
    a1 = cmath.exp(1j * alpha)
    b1 = cmath.exp(-1j * alpha)
    u1 = line_intersection(a1, a1 + frame.e2, b1, b1 + frame.e3)
    v1 = a1 + b1 - u1
    return a1, u1, b1, v1


def _hex_uv(z: complex, frame: HexFrame) -> tuple[float, float]:
    """Hexagonal coordinates ``(u, v)`` of ``z``: z = u*e1 + v*e2 - v*e3."""
    w = z * frame.e1.conjugate()
    return w.real, w.imag / SQRT3


def _from_uv(u: float, v: float, frame: HexFrame) -> complex:
    """The point u*e1 + v*e2 - v*e3, inverse of ``_hex_uv``."""
    return frame.e1 * complex(u, SQRT3 * v)


def derive_params(alpha: float, lam: float, beta: float) -> DynamicsParams:
    """Build the frame tilted by ``beta`` off the bisector and its constants.

    The frame is oriented so that ``b >= a``; the sign of ``beta`` is folded
    away (the two signs give mirror-image networks).
    """
    if not condition_holds(alpha, lam):
        raise ParameterError(f"(alpha={alpha}, lam={lam}) violate the admissibility condition")
    if abs(beta) > alpha + 1e-15:
        raise ParameterError(f"|beta| must not exceed alpha, got beta={beta}, alpha={alpha}")
    beta = abs(beta)
    frame = HexFrame.from_axis(-beta)
    a1, u1, b1, _v1 = _unit_corners(alpha, frame)
    b = abs(a1 - u1) / 2.0
    a = abs(b1 - u1) / 2.0
    l, delta = _hex_uv((a1 + b1) / 2.0, frame)
    if a > b + 1e-12:
        raise ParameterError("frame orientation produced a > b")  # unreachable
    q_plus = 0.5 + ((1.0 - lam) * delta - a) / (lam * (a + b)) + 1.0 / (2.0 * lam)
    q_minus = q_plus - 1.0 / lam
    return DynamicsParams(
        alpha=alpha,
        beta=beta,
        lam=lam,
        a=a,
        b=b,
        delta=delta,
        l=l,
        frame=frame,
        q_plus=q_plus,
        q_minus=q_minus,
        t1=lam * (1.0 - q_plus),
        t_star=a / (a + b),
        t2=-lam * q_minus,
    )


def forward_map(p: DynamicsParams, t: float) -> float:
    """Expanding two-branch law; raises when the step is not admissible."""
    if not -_BOUNDARY_TOL <= t <= 1.0 + _BOUNDARY_TOL:
        raise ParameterError(f"forward_map argument {t} outside [0, 1]")
    if abs(t - p.t_star) <= _BOUNDARY_TOL:
        raise ForbiddenPointError(f"t={t} hits the branch boundary t*={p.t_star}")
    v = t / p.lam + (p.q_plus if t < p.t_star else p.q_minus)
    if not -_BOUNDARY_TOL <= v <= 1.0 + _BOUNDARY_TOL:
        raise EscapeError(f"forward_map left [0, 1]: {v}")
    return min(1.0, max(0.0, v))


def inverse_map(p: DynamicsParams, t: float) -> float:
    """Contraction ``frac(lam * t + t2)``; undefined at the seam ``q_plus``."""
    if not -_BOUNDARY_TOL <= t <= 1.0 + _BOUNDARY_TOL:
        raise ParameterError(f"inverse_map argument {t} outside [0, 1]")
    if abs(t - p.q_plus) <= _BOUNDARY_TOL:
        raise ForbiddenPointError(f"t={t} hits the seam q+={p.q_plus}")
    v = p.lam * t + p.t2
    return v - math.floor(v)


def iterate(p: DynamicsParams, t0: float, n: int, direction: str = FORWARD) -> Orbit:
    """Orbit of length up to ``n + 1``; stops early on forbidden hits/escape."""
    if direction not in (FORWARD, INVERSE):
        raise ParameterError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    step = forward_map if direction == FORWARD else inverse_map
    values = [min(1.0, max(0.0, t0))]
    status = OK
    for _ in range(n):
        try:
            values.append(step(p, values[-1]))
        except ForbiddenPointError:
            status = HIT_FORBIDDEN
            break
        except EscapeError:
            status = ESCAPED
            break
    return Orbit(tuple(values), status)


def periodic_points(p: DynamicsParams, period: int) -> list[float]:
    """Fixed points of the ``period``-fold inverse map.

    Each of the ``2**period`` branch words gives one affine equation; the
    solutions surviving an explicit round-trip check are returned sorted.
    """
    if not 1 <= period <= 12:
        raise ParameterError(f"period must lie in 1..12, got {period}")
    lam, t2 = p.lam, p.t2
    found: list[float] = []
    for word in range(1 << period):
        rhs = 0.0
        for i in range(period):
            m = word >> i & 1
            rhs = rhs * lam + (t2 - m)
        denom = 1.0 - lam**period
        t = rhs / denom
        if not 0.0 <= t < 1.0:
            continue
        cur = t
        ok = True
        try:
            for _ in range(period):
                cur = inverse_map(p, cur)
        except (ForbiddenPointError, ParameterError):
            ok = False
        if ok and abs(cur - t) <= 1e-12:
            if all(abs(t - u) > 1e-12 for u in found):
                found.append(t)
    return sorted(found)


def _unit_height(p: DynamicsParams, nu: float) -> float:
    """Hexagonal height of normalised value ``nu`` at level 0; level j scales it by lam**j."""
    return (p.a + p.b) * (nu - 0.5) + p.delta


def orbit_heights(p: DynamicsParams, orbit: Orbit) -> list[float]:
    """Un-normalised hexagonal heights ``mu_j`` of an orbit's segments."""
    return [
        p.lam**j * _unit_height(p, v) for j, v in enumerate(orbit.values, start=orbit.start_index)
    ]


# ---------------------------------------------------------------------------
# orbit <-> tree


def tree_from_orbit(
    p: DynamicsParams, ldr: LadderParams, orbit: Orbit | Sequence[float], K: int | None = None
) -> EmbeddedTree:
    """Embedded network whose long segments sit at the orbit's heights.

    Processes one rhombus per orbit value starting at level
    ``orbit.start_index``; the entry leaf and the closing stub are anchored
    on the vertical lines through the cross-segment abscissa scaled by the
    matching power of ``lam``.
    """
    if isinstance(orbit, Orbit):
        if orbit.status != OK:
            raise ParameterError(f"orbit status must be 'ok', got {orbit.status!r}")
        values = orbit.values
        j0 = orbit.start_index
    else:
        values = tuple(float(v) for v in orbit)
        j0 = 0
    if K is None:
        K = len(values)
    if K < 1 or K > len(values):
        raise ParameterError(f"K must lie in 1..len(orbit), got {K}")
    lam = p.lam
    # heights must form a forward trajectory (an inverse-iterated orbit is one
    # when read backwards); otherwise the long segments would not line up
    for j in range(K - 1):
        t = values[j]
        if abs(t - p.t_star) <= _BOUNDARY_TOL:
            raise ForbiddenPointError(f"orbit value {t} hits the corner height t*")
        pred = t / lam + (p.q_plus if t < p.t_star else p.q_minus)
        if abs(pred - values[j + 1]) > 1e-9:
            raise ParameterError(
                f"orbit is not forward-consistent at step {j}: "
                f"expected {pred}, got {values[j + 1]}"
            )
    if abs(lam - ldr.lam) > 1e-15 or abs(p.alpha - ldr.alpha) > 1e-15:
        raise ParameterError("dynamics and ladder parameters disagree")
    frame = p.frame
    e1 = frame.e1
    a1, u1, b1, _v1 = _unit_corners(p.alpha, frame)
    v_a1 = _hex_uv(a1, frame)[1]
    v_u1 = _hex_uv(u1, frame)[1]
    v_b1 = _hex_uv(b1, frame)[1]
    e2_hat = frame.e2
    e3_hat = frame.e3
    r0 = bisector_abscissa(p.alpha, lam)

    def anchor(level: int, mu: float) -> complex:
        # point of the height-mu line on the vertical line x = lam**level * r0
        u = (lam**level * r0 + SQRT3 * mu * e1.imag) / e1.real
        return _from_uv(u, mu, frame)

    verts: list[complex] = []
    roles: list[str] = []
    edges: list[tuple[int, int]] = []

    def add(z: complex, role: str) -> int:
        verts.append(z)
        roles.append(role)
        return len(verts) - 1

    prev = add(anchor(j0, lam**j0 * _unit_height(p, values[0])), TERMINAL)
    for idx in range(K):
        j = j0 + idx
        nu = values[idx]
        s = lam**j
        a_c = s * a1
        u_c = s * u1
        b_c = s * b1
        if abs(nu - p.t_star) <= _BOUNDARY_TOL:
            raise ForbiddenPointError(f"orbit value {nu} hits the corner height t*")
        # level-0 height, since s underflows to 0 past level ~1075 at lam = 1/2
        scaled = _unit_height(p, nu)
        if nu > p.t_star:
            tfrac = (v_a1 - scaled) / (v_a1 - v_u1)
            t_pt = a_c + tfrac * (u_c - a_c)
            s_pt = t_pt + 2.0 * p.a * s * e3_hat
            near, far = a_c, b_c
        else:
            tfrac = (v_u1 - scaled) / (v_u1 - v_b1)
            t_pt = u_c + tfrac * (b_c - u_c)
            s_pt = t_pt + 2.0 * p.b * s * e2_hat
            near, far = b_c, a_c
        corner = abs(t_pt - near) <= 1e-13 * s
        ti = add(near if corner else t_pt, TERMINAL if corner else STEINER)
        edges.append((prev, ti))
        if not corner:
            edges.append((ti, add(near, TERMINAL)))
        si = add(s_pt, STEINER)
        edges.append((ti, si))
        edges.append((si, add(far, TERMINAL)))
        prev = si
    mu_out = _hex_uv(verts[prev], frame)[1]
    end = anchor(j0 + K, mu_out)
    if abs(end - verts[prev]) > 1e-13 * lam ** (j0 + K):
        edges.append((prev, add(end, TERMINAL)))
    else:
        roles[prev] = STEINER  # degree-2 closing branch point
    return EmbeddedTree.build(verts, roles, edges)


def orbit_from_tree(tree: EmbeddedTree, p: DynamicsParams) -> Orbit:
    """Recover the normalised heights of a ladder network's long segments."""
    e1 = p.frame.e1
    adj = tree.adjacency()
    lam = p.lam
    entries: list[tuple[float, int, float]] = []  # (outer u, level or -1, mu)
    for u_i, v_i in tree.edges:
        d = tree.vertices[v_i] - tree.vertices[u_i]
        if abs(d) == 0:
            continue
        dh = d / abs(d)
        if abs(dh.real * e1.imag - dh.imag * e1.real) > 1e-7:
            continue
        ua, mua = _hex_uv(tree.vertices[u_i], p.frame)
        ub, mub = _hex_uv(tree.vertices[v_i], p.frame)
        inner = u_i if ua < ub else v_i
        level = _lattice_level(tree, adj, inner, lam)
        entries.append((max(ua, ub), level, 0.5 * (mua + mub)))
    if not entries:
        raise ParameterError("tree has no segments parallel to the frame axis")
    entries.sort(key=lambda e: -e[0])
    levels: list[int] = []
    for _outer_u, level, _mu in entries:
        if level < 0:
            if not levels:
                raise ParameterError("cannot fix the scale of the first segment")
            level = levels[-1] + 1
        levels.append(level)
    if levels != list(range(levels[0], levels[0] + len(levels))):
        raise ParameterError(f"segment levels are not consecutive: {levels}")
    values = []
    for level, (_ou, _lv, mu) in zip(levels, entries):
        nu = 0.5 + (mu / lam**level - p.delta) / (p.a + p.b)
        if not -1e-6 <= nu <= 1.0 + 1e-6:
            raise ParameterError(f"height at level {level} maps outside [0, 1]: {nu}")
        values.append(min(1.0, max(0.0, nu)))
    return Orbit(tuple(values), OK, start_index=levels[0])


def _lattice_level(tree: EmbeddedTree, adj, inner: int, lam: float) -> int:
    """Depth index from the radius of the nearest lattice terminal, or -1."""
    candidates = []
    if tree.roles[inner] == TERMINAL:
        candidates.append(inner)
    else:
        candidates.extend(w for w in adj[inner] if tree.roles[w] == TERMINAL)
    for w in candidates:
        r = abs(tree.vertices[w])
        if r <= 0:
            continue
        j = round(math.log(r) / math.log(lam))
        if abs(r - lam**j) <= 1e-6 * r:
            return j
    return -1
