"""Diagnostics for embedded trees.

Covers the complex length functional (a real linear form in the low-degree
vertices of a tree whose branching angles are all 2*pi/3), wind-rose
extraction, full / full* classification, geometric validity reports, the
local-minimality gradient, decomposition at repeated terminals, and mirror
comparison.
"""

from __future__ import annotations

import math
from cmath import phase
from collections import Counter
from dataclasses import dataclass

from .errors import DegenerateInputError, ParameterError
from .geometry import TWO_THIRDS_PI, convex_hull, point_segment_distance, points_in_hull
from .trees import TERMINAL, EmbeddedTree, as_points, reflect_tree, scale_tree

FULL = "full"
FULL_STAR = "full*"
NEITHER = "neither"

ANGLE_TOL = 1e-9
WIND_ROSE_TOL = 1e-6
SAMPLES_PER_EDGE = 9  # segments each edge is cut into by the sampled Hausdorff gaps
WEDGE_TOL = 1e-9  # pieces shorter than this, or this far off line, do not split a wedge cut


@dataclass(frozen=True)
class WindRose:
    """Undirected edge directions, as angles in [0, pi)."""

    directions: tuple[float, ...]


@dataclass(frozen=True)
class ValidityReport:
    connected: bool
    acyclic: bool
    max_angle_violation: float
    degree_histogram: dict[int, int]
    inside_hull: bool

    @property
    def ok(self) -> bool:
        return (
            self.connected
            and self.acyclic
            and self.max_angle_violation <= ANGLE_TOL
            and self.inside_hull
        )


def _vertex_angles(tree: EmbeddedTree, adj: list[list[int]]) -> list[list[float]]:
    """Pairwise convex angles between edges at each non-leaf vertex, bit for bit ``angle_at``'s."""
    verts = tree.vertices
    out: list[list[float]] = []
    for z, nbrs in zip(verts, adj):
        if len(nbrs) < 2:
            continue
        units = []
        for j in nbrs:
            d = verts[j] - z
            if d == 0:
                raise DegenerateInputError("angle_at: ray endpoint coincides with vertex")
            units.append(d / abs(d))
        if len(units) == 3:
            u0, u1, u2 = units
            out.append([abs(phase(u1 / u0)), abs(phase(u2 / u0)), abs(phase(u2 / u1))])
        else:
            out.append([abs(phase(v / u)) for a, u in enumerate(units) for v in units[a + 1 :]])
    return out


def _classify(tree: EmbeddedTree, adj: list[list[int]]) -> str:
    if not all(tree._connected_acyclic()):
        return NEITHER
    deg = list(map(len, adj))
    if deg and max(deg) > 3:
        return NEITHER
    for angles in _vertex_angles(tree, adj):
        for ang in angles:
            if abs(ang - TWO_THIRDS_PI) > ANGLE_TOL:
                return NEITHER
    return FULL_STAR if 2 in deg else FULL


def classify(tree: EmbeddedTree) -> str:
    """``full`` / ``full*`` / ``neither`` by angle inspection.

    full*: connected, acyclic, and every convex angle between edges sharing a
    vertex equals 2*pi/3 (so degrees are at most 3).  full additionally has no
    degree-2 vertex.
    """
    return _classify(tree, tree.adjacency())


def wind_rose(tree: EmbeddedTree) -> WindRose:
    """Cluster edge directions modulo pi within ``WIND_ROSE_TOL`` radians."""
    angles = []
    for u, v in tree.edges:
        d = tree.vertices[v] - tree.vertices[u]
        if d == 0:
            continue
        angles.append(math.atan2(d.imag, d.real) % math.pi)
    angles.sort()
    reps: list[float] = []
    for ang in angles:
        if any(_mod_pi_gap(ang, r) <= WIND_ROSE_TOL for r in reps):
            continue
        reps.append(ang)
    return WindRose(tuple(sorted(reps)))


def _mod_pi_gap(a: float, b: float) -> float:
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def maxwell_length(tree: EmbeddedTree) -> tuple[float, float]:
    """Length of a full* tree as a linear form in its low-degree vertices.

    Each degree-1 vertex contributes conj(outgoing unit direction) * vertex;
    a degree-2 vertex uses the direction completing its two edges to a
    regular tripod.  Returns ``(real_part, |imaginary_residual|)``; the
    residual vanishes for exact full* trees.  An edge of length zero raises
    ``DegenerateInputError``, at a leaf too: there ``classify`` reads no angle
    and still calls the tree full, and ``validate_steiner_geometry`` passes it.
    """
    adj = tree.adjacency()
    if _classify(tree, adj) == NEITHER:
        raise ParameterError("maxwell_length requires a full or full* tree")
    total = 0j
    for z, nbrs in zip(tree.vertices, adj):
        if not 0 < len(nbrs) < 3:  # a lone vertex is a full tree of length 0
            continue
        units = []
        for j in nbrs:
            d = tree.vertices[j] - z
            if d == 0:
                raise DegenerateInputError("maxwell_length: neighbour coincides with vertex")
            units.append(d / abs(d))
        if len(units) == 1:
            c = -units[0]
        else:
            s = units[0] + units[1]
            c = -s / abs(s)
        total += c.conjugate() * z
    return total.real, abs(total.imag)


def local_min_gradient(tree: EmbeddedTree) -> float:
    """Max norm of the length gradient over movable (branching) vertices."""
    adj = tree.adjacency()
    worst = 0.0
    for i, nbrs in enumerate(adj):
        if tree.roles[i] == TERMINAL:
            continue
        z = tree.vertices[i]
        s = 0j
        for j in nbrs:
            d = tree.vertices[j] - z
            if d == 0:
                raise DegenerateInputError("local_min_gradient: neighbour coincides with vertex")
            s += d / abs(d)
        worst = max(worst, abs(s))
    return worst


def validate_steiner_geometry(tree: EmbeddedTree, terminals=None) -> ValidityReport:
    """Aggregate geometric checks a claimed minimal tree must pass."""
    adj = tree.adjacency()
    hist = dict(Counter(map(len, adj)))
    violation = 0.0
    for angles in _vertex_angles(tree, adj):
        violation = max(violation, *[TWO_THIRDS_PI - a for a in angles])
    if terminals is not None:
        hull_pts = as_points(terminals)
    else:
        hull_pts = [tree.vertices[i] for i in tree.terminal_indices()]
    hull = convex_hull(hull_pts)
    scale = tree.diameter() or 1.0
    inside = points_in_hull(tree.vertices, hull, tol=1e-9 * scale)
    return ValidityReport(
        *tree._connected_acyclic(),  # connected, acyclic
        max_angle_violation=violation,
        degree_histogram=hist,
        inside_hull=inside,
    )


def is_decomposable(tree: EmbeddedTree) -> bool:
    """True when some terminal vertex has degree >= 2 (a splitting point)."""
    deg = tree.degrees()
    return any(deg[i] >= 2 for i in tree.terminal_indices())


def block_decompose(tree: EmbeddedTree) -> list[EmbeddedTree]:
    """Split at every terminal of degree >= 2 into its full components.

    Splitting terminals are duplicated into each incident component; the
    component lengths sum to the total length.
    """
    edges = tree.edges
    incident: list[list[int]] = [[] for _ in tree.vertices]  # edge ids at each vertex
    for e, (u, v) in enumerate(edges):
        incident[u].append(e)
        incident[v].append(e)
    cut = [r == TERMINAL and len(inc) >= 2 for r, inc in zip(tree.roles, incident)]
    seen = bytearray(len(edges))
    if len(set(edges)) < len(edges):  # a repeated edge is dropped: its later copies start seen
        first: dict[tuple[int, int], int] = {}
        for e, uv in enumerate(edges):
            seen[e] = first.setdefault(uv, e) != e
    blocks: list[EmbeddedTree] = []
    for e0 in range(len(edges)):
        if seen[e0]:
            continue
        seen[e0] = 1
        comp = [e0]
        stack = [e0]
        while stack:
            for w in edges[stack.pop()]:
                if cut[w]:
                    continue
                for e in incident[w]:
                    if not seen[e]:
                        seen[e] = 1
                        comp.append(e)
                        stack.append(e)
        idxs = sorted({i for e in comp for i in edges[e]})
        remap = {g: l for l, g in enumerate(idxs)}
        blocks.append(
            EmbeddedTree.build(
                [tree.vertices[g] for g in idxs],
                [tree.roles[g] for g in idxs],
                [(remap[edges[e][0]], remap[edges[e][1]]) for e in comp],
            )
        )
    return blocks


def _sample_segments(tree: EmbeddedTree) -> list[complex]:
    pts: list[complex] = []
    for u, v in tree.edges:
        a, b = tree.vertices[u], tree.vertices[v]
        for k in range(SAMPLES_PER_EDGE + 1):
            pts.append(a + (b - a) * (k / SAMPLES_PER_EDGE))
    return pts


def distance_to_tree(z: complex, tree: EmbeddedTree) -> float:
    return min(
        point_segment_distance(z, tree.vertices[u], tree.vertices[v]) for u, v in tree.edges
    )


def hausdorff_gap(t1: EmbeddedTree, t2: EmbeddedTree) -> float:
    """Symmetric sampled Hausdorff distance between two trees."""
    d1 = max(distance_to_tree(z, t2) for z in _sample_segments(t1))
    d2 = max(distance_to_tree(z, t1) for z in _sample_segments(t2))
    return max(d1, d2)


def self_similarity_defect(
    tree: EmbeddedTree,
    ratio: float,
    center: complex = 0j,
    min_radius: float = 0.0,
) -> float:
    """One-sided Hausdorff gap from the scaled tree to the original.

    Sample points of the scaled tree closer than ``min_radius`` to the centre
    are ignored, which masks the truncation tail of finite-depth networks.
    """
    samples = _sample_segments(scale_tree(tree, ratio, center))
    return max(
        (distance_to_tree(z, tree) for z in samples if abs(z - center) >= min_radius),
        default=0.0,
    )


def trees_mirror_equal(
    t1: EmbeddedTree,
    t2: EmbeddedTree,
    axis_point: complex = 0j,
    axis_angle: float = 0.0,
    tol: float = 1e-8,
) -> bool:
    """True when t1 reflected across the axis coincides with t2 within ``tol``."""
    return hausdorff_gap(reflect_tree(t1, axis_point, axis_angle), t2) <= tol


def clip_to_wedge(
    tree: EmbeddedTree, apex: complex, bisector_angle: float, half_angle: float
) -> list[tuple[complex, complex]]:
    """Sub-segments of the tree inside the closed wedge at ``apex``.

    The wedge opens ``half_angle`` to each side of the ``bisector_angle``
    direction.  Implemented as two half-plane clips.
    """
    normals = []
    for side in (half_angle + math.pi / 2, -half_angle - math.pi / 2):
        ang = bisector_angle + side
        normals.append(complex(math.cos(ang), math.sin(ang)))
    # inside: dot(z - apex, -normal) >= 0 for both boundary normals
    out = []
    for u, v in tree.edges:
        a, b = tree.vertices[u] - apex, tree.vertices[v] - apex
        lo, hi = 0.0, 1.0
        ok = True
        for nrm in normals:
            fa = -(a.real * nrm.real + a.imag * nrm.imag)
            fb = -(b.real * nrm.real + b.imag * nrm.imag)
            if fa < 0 and fb < 0:
                ok = False
                break
            if fa < 0:
                lo = max(lo, fa / (fa - fb))
            elif fb < 0:
                hi = min(hi, fa / (fa - fb))
        if ok and lo < hi - 1e-15:
            p = tree.vertices[u]
            q = tree.vertices[v]
            out.append((p + (q - p) * lo, p + (q - p) * hi))
    return out


def wedge_intersection_is_segment(tree: EmbeddedTree, apex: complex, bisector_angle: float) -> bool:
    """True when the tree meets the 120-degree wedge in a single segment or not at all."""
    pieces = clip_to_wedge(tree, apex, bisector_angle, math.pi / 3)
    pieces = [(a, b) for a, b in pieces if abs(b - a) > WEDGE_TOL]
    if len(pieces) <= 1:
        return True
    origin, end = pieces[0]
    turn = (end - origin).conjugate() / abs(end - origin)  # first piece onto the real axis
    slack = WEDGE_TOL * (1.0 + max(abs(b - a) for a, b in pieces))
    # each piece in coordinates along (real) and across (imag) the first one;
    # they must all be collinear and their intervals along it contiguous
    spans = []
    for a, b in pieces:
        wa = (a - origin) * turn
        wb = (b - origin) * turn
        if max(abs(wa.imag), abs(wb.imag)) > slack:
            return False
        spans.append((min(wa.real, wb.real), max(wa.real, wb.real)))
    spans.sort()
    cur = spans[0][1]
    for lo, hi in spans[1:]:
        if lo > cur + slack:
            return False
        cur = max(cur, hi)
    return True
