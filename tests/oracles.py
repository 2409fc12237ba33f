"""Independent oracles.

Everything here is deliberately dumb and slow: grid searches, coordinate
descent, exhaustive filters, every branch word of the inverse map, every
vertex pair of a tree, and a rhombus-by-rhombus construction of the A0
network, edge-tuple block splitting and a one-point-at-a-time hull test.
The oracles never import solver internals or the dynamics route's builders,
so they stay independent of the code paths they check.
"""

from __future__ import annotations

import itertools
import math

from steiner_ladder.dynamics import DynamicsParams, inverse_map, require_condition
from steiner_ladder.errors import ForbiddenPointError, ParameterError
from steiner_ladder.geometry import (
    SQRT3,
    TWO_THIRDS_PI,
    angle_at,
    convex_hull,
    point_segment_distance,
)
from steiner_ladder.ladder import UPPER, LadderParams, x_point
from steiner_ladder.trees import STEINER, TERMINAL, EmbeddedTree


def total_distance(p: complex, anchors) -> float:
    return sum(abs(p - complex(a)) for a in anchors)


def fermat_oracle(a: complex, b: complex, c: complex) -> tuple[complex, float]:
    """Grid search plus shrinking refinement for the 3-point median."""
    anchors = [complex(a), complex(b), complex(c)]
    xs = [z.real for z in anchors]
    ys = [z.imag for z in anchors]
    cx, cy = sum(xs) / 3, sum(ys) / 3
    half = max(max(xs) - min(xs), max(ys) - min(ys)) / 2 + 1e-9
    best = complex(cx, cy)
    best_val = total_distance(best, anchors)
    for _ in range(60):
        step = half / 8
        for i in range(-8, 9):
            for j in range(-8, 9):
                p = complex(cx + i * step, cy + j * step)
                v = total_distance(p, anchors)
                if v < best_val:
                    best, best_val = p, v
        cx, cy = best.real, best.imag
        half *= 0.55
        if half < 1e-13:
            break
    return best, best_val


def two_steiner_descent(corners) -> float:
    """Coordinate descent for the best two-branch-point tree on 4 terminals.

    Tries all three pairings of the terminals onto the two branch points and
    returns the shortest total length found.
    """
    pts = [complex(c) for c in corners]
    best = math.inf
    for pairing in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
        i, j, k, l = pairing
        s1 = (pts[i] + pts[j]) / 2
        s2 = (pts[k] + pts[l]) / 2

        def length(s1: complex, s2: complex) -> float:
            return (
                abs(pts[i] - s1) + abs(pts[j] - s1) + abs(s1 - s2)
                + abs(pts[k] - s2) + abs(pts[l] - s2)
            )

        step = max(abs(p - q) for p in pts for q in pts) / 4
        val = length(s1, s2)
        while step > 1e-9:
            moved = 0
            while moved < 400:
                improved = False
                for ds in (step, 1j * step, -step, -1j * step):
                    for which in (0, 1):
                        cand1 = s1 + ds if which == 0 else s1
                        cand2 = s2 + ds if which == 1 else s2
                        v = length(cand1, cand2)
                        if v < val - 1e-15:
                            s1, s2, val = cand1, cand2, v
                            improved = True
                if not improved:
                    break
                moved += 1
            step *= 0.5
        best = min(best, val)
    return best


def brute_block_decompositions(n: int, min_block: int = 2) -> set[frozenset[frozenset[int]]]:
    """All glued-block decompositions by filtering every subset collection."""
    ground = list(range(n))
    blocks = [
        frozenset(c)
        for size in range(min_block, n + 1)
        for c in itertools.combinations(ground, size)
    ]
    out: set[frozenset[frozenset[int]]] = set()
    max_blocks = n - 1
    for count in range(1, max_blocks + 1):
        for combo in itertools.combinations(blocks, count):
            if sum(len(b) - 1 for b in combo) != n - 1:
                continue
            if any(
                len(combo[i] & combo[j]) > 1
                for i in range(count)
                for j in range(i + 1, count)
            ):
                continue
            parent = list(range(n))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for b in combo:
                it = iter(sorted(b))
                r = find(next(it))
                for o in it:
                    parent[find(o)] = r
            if len({find(i) for i in ground}) == 1:
                out.add(frozenset(combo))
    return out


def brute_mst_length(points) -> float:
    """Minimum spanning length by trying every spanning edge subset."""
    pts = [complex(p) for p in points]
    n = len(pts)
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = math.inf
    for combo in itertools.combinations(all_edges, n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in combo:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            best = min(best, sum(abs(pts[u] - pts[v]) for u, v in combo))
    return best


def minimax_distances(points) -> list[list[float]]:
    """Bottleneck distances: over all paths between two points, the least longest edge.

    Floyd-Warshall on the complete graph with max in place of +.  Between
    two points this is the longest edge on their path in any minimum
    spanning tree.
    """
    pts = [complex(p) for p in points]
    n = len(pts)
    b = [[abs(p - q) for q in pts] for p in pts]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                b[i][j] = min(b[i][j], max(b[i][k], b[k][j]))
    return b


def hex_solve_oracle(p: complex, e1: complex) -> tuple[float, float, float]:
    """Canonical hex coordinates by solving the 2x2 linear system directly."""
    omega = complex(-0.5, math.sqrt(3) / 2)
    e2 = e1 * omega
    e3 = e1 * omega.conjugate()
    d = e2 - e3
    det = e1.real * d.imag - e1.imag * d.real
    u = (p.real * d.imag - p.imag * d.real) / det
    v = (e1.real * p.imag - e1.imag * p.real) / det
    return u, v, -v


def direct_ladder_tree_A0(params: LadderParams, side: str = UPPER) -> EmbeddedTree:
    """The A0 network built rhombus by rhombus from the ladder geometry alone.

    An independent reference for ``build_ladder_tree_A0``, which builds the
    same network from the inverse map's 2-cycle through ``tree_from_orbit``.

    Starts at the entry point on the cross segment, alternates above/below
    the bisector through one rhombus per depth, and closes with a stub ending
    at the homothetic image of the entry point (ratio ``lam**K``), so the
    truncated length is exactly ``(1 - lam**K)`` times the infinite one.
    """
    alpha, lam, K = params.alpha, params.lam, params.depth
    require_condition(alpha, lam)

    sin_a = math.sin(alpha)
    cos_a = math.cos(alpha)
    x0 = complex(x_point(alpha, lam, side))

    verts: list[complex] = [x0]
    roles: list[str] = [TERMINAL]
    edges: list[tuple[int, int]] = []

    def add(z: complex, role: str) -> int:
        verts.append(z)
        roles.append(role)
        return len(verts) - 1

    # the entry height is s*sin(a)/(1+lam) at every level, so the crossing
    # point sits at the fixed parameter lam/(1+lam) along the rhombus side
    tau = lam / (1.0 + lam)
    prev = 0
    from_above = side == UPPER
    for j in range(1, K + 1):
        s = lam ** (j - 1)
        a_j = s * complex(cos_a, sin_a)
        b_j = s * complex(cos_a, -sin_a)
        u_j = s * complex(cos_a + sin_a / SQRT3, 0.0)
        if from_above:
            t_pt = a_j + tau * (u_j - a_j)
            s_pt = t_pt - s * sin_a * complex(1.0 / SQRT3, 1.0)
            near, far = a_j, b_j
        else:
            t_pt = b_j + tau * (u_j - b_j)
            s_pt = t_pt + s * sin_a * complex(-1.0 / SQRT3, 1.0)
            near, far = b_j, a_j
        ti = add(t_pt, STEINER)
        si = add(s_pt, STEINER)
        ni = add(near, TERMINAL)
        fi = add(far, TERMINAL)
        edges += [(prev, ti), (ti, ni), (ti, si), (si, fi)]
        prev = si
        from_above = not from_above
    # heights alternate, so odd truncations exit through the mirrored point
    x_end = x0 if K % 2 == 0 else x0.conjugate()
    end = add(lam**K * x_end, TERMINAL)
    edges.append((prev, end))
    return EmbeddedTree.build(verts, roles, edges)


def enumerated_periodic_points(p: DynamicsParams, period: int) -> list[float]:
    """Fixed points of the ``period``-fold inverse map, from all ``2**period`` branch words.

    Each word gives one affine equation; the solutions surviving an explicit
    round-trip check are returned sorted.  Where ``lam**(period - 1)`` nears
    the 1e-12 tolerance, words that differ from an orbit's in an early bit
    pass too: the lowest passing word wins the dedupe, and two points 1e-12
    apart can both be kept for one orbit point.
    """
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
        try:
            for _ in range(period):
                cur = inverse_map(p, cur)
        except ForbiddenPointError:
            continue
        if abs(cur - t) <= 1e-12 and all(abs(t - u) > 1e-12 for u in found):
            found.append(t)
    return sorted(found)


def pairwise_diameter(tree: EmbeddedTree) -> float:
    """Largest distance over every pair of vertices."""
    pts = tree.vertices
    if len(pts) < 2:
        return 0.0
    return max(abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1 :])


def tuple_block_decompose(tree: EmbeddedTree) -> list[EmbeddedTree]:
    """Full components split at terminals of degree >= 2, walked by ``(min, max)`` edge tuples."""
    deg = tree.degrees()
    cut = {i for i in tree.terminal_indices() if deg[i] >= 2}
    adj = tree.adjacency()
    seen_edges: set[tuple[int, int]] = set()
    blocks: list[EmbeddedTree] = []
    for u0, v0 in tree.edges:
        if (u0, v0) in seen_edges:
            continue
        comp_edges = [(u0, v0)]
        stack = [(u0, v0)]
        seen_edges.add((u0, v0))
        while stack:
            u, v = stack.pop()
            for w in (u, v):
                if w in cut:
                    continue
                for x in adj[w]:
                    e = (min(w, x), max(w, x))
                    if e not in seen_edges:
                        seen_edges.add(e)
                        comp_edges.append(e)
                        stack.append(e)
        idxs = sorted({i for e in comp_edges for i in e})
        remap = {g: l for l, g in enumerate(idxs)}
        blocks.append(
            EmbeddedTree.build(
                [tree.vertices[g] for g in idxs],
                [tree.roles[g] for g in idxs],
                [(remap[u], remap[v]) for u, v in comp_edges],
            )
        )
    return blocks


def point_in_hull(z: complex, hull: list[complex], tol: float) -> bool:
    """One point against every edge of a ccw hull, within ``tol``."""
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


def connected_acyclic(tree: EmbeddedTree) -> tuple[bool, bool]:
    """Breadth-first components: connected when one, acyclic when E = V - components."""
    adj = tree.adjacency()
    comp = [-1] * len(adj)
    count = 0
    for s in range(len(adj)):
        if comp[s] < 0:
            comp[s] = count
            queue = [s]
            for u in queue:
                for w in adj[u]:
                    if comp[w] < 0:
                        comp[w] = count
                        queue.append(w)
            count += 1
    return count <= 1, len(tree.edges) == len(adj) - count


def angles_by_angle_at(tree: EmbeddedTree) -> list[list[float]]:
    """``angle_at`` for each pair of edges at each vertex, pairs in neighbour order."""
    out = []
    for z, nbrs in zip(tree.vertices, tree.adjacency()):
        pts = [tree.vertices[j] for j in nbrs]
        out.append([angle_at(z, p, q) for a, p in enumerate(pts) for q in pts[a + 1 :]])
    return out


def classify_by_angle_at(tree: EmbeddedTree, angle_tol: float) -> str:
    """full / full* / neither from ``angle_at``; every angle is read before any verdict."""
    connected, acyclic = connected_acyclic(tree)
    if not (connected and acyclic):
        return "neither"
    deg = tree.degrees()
    if any(d > 3 for d in deg):
        return "neither"
    angles = angles_by_angle_at(tree)
    if any(abs(a - TWO_THIRDS_PI) > angle_tol for at in angles for a in at):
        return "neither"
    return "full*" if 2 in deg else "full"


def validity_fields(tree: EmbeddedTree, hull_pts: list[complex]) -> dict:
    """The fields of ``ValidityReport`` from ``angle_at``, BFS and ``point_in_hull``."""
    hist: dict[int, int] = {}
    for d in tree.degrees():
        hist[d] = hist.get(d, 0) + 1
    violation = 0.0
    for at in angles_by_angle_at(tree):
        for a in at:
            violation = max(violation, TWO_THIRDS_PI - a)
    hull = convex_hull(hull_pts)
    tol = 1e-9 * (tree.diameter() or 1.0)
    connected, acyclic = connected_acyclic(tree)
    return dict(
        connected=connected,
        acyclic=acyclic,
        max_angle_violation=violation,
        degree_histogram=hist,
        inside_hull=all(point_in_hull(v, hull, tol) for v in tree.vertices),
    )


def maxwell_by_angle_at(tree: EmbeddedTree, angle_tol: float) -> tuple[float, float]:
    """The Maxwell form of a tree ``classify_by_angle_at`` accepts, leaf by leaf."""
    if classify_by_angle_at(tree, angle_tol) == "neither":
        raise ParameterError("not a full* tree")
    total = 0j
    for z, nbrs in zip(tree.vertices, tree.adjacency()):
        units = [(tree.vertices[j] - z) / abs(tree.vertices[j] - z) for j in nbrs]
        if len(units) == 1:
            total += (-units[0]).conjugate() * z
        elif len(units) == 2:
            s = units[0] + units[1]
            total += (-s / abs(s)).conjugate() * z
    return total.real, abs(total.imag)
