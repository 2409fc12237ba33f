"""Exact geometric Steiner trees for small planar terminal sets.

A full tree is found by the classic merge/reconstruct scheme.  Two subtrees
hanging from one branching point are replaced by the third vertex of an
equilateral triangle on their points (both orientations are tried).  The
segment left between the root terminal and the last such point gives the
tree's length.  Walking the merges backwards intersects each segment with the
circumcircle arc of its triangle to place the branching points; a branch
whose point leaves the open arc is infeasible (``_reconstruct``).

``solve_exact`` and ``minimal_full_tree`` build these equilateral points
bottom-up, once per terminal mask, and share them across every subset that
roots them at a lower terminal (``_merges``, ``_full_component_table``).
Every equilateral point is E = sum of omega^k_i * z_i over its terminals,
omega = e^(i pi/3), so rooted trees with equal exponents k_i share one E,
and so every point and length built on it.  Each mask below the top is held
once, as signature classes (``_Classes``): one E per exponent tuple, keyed
exactly by the exponents packed into one int, with the merges (alternatives)
that give it.  The memo is compact: columns of floats and packed ints, and
masks of up to three terminals, whose signatures never repeat, skip the key
index.  The top mask (every terminal but 0, read by the full set only) is
streamed merge by merge and not held.
Each point carries a cone: the directions, seen from the point, of the part
of its arc at which its children can still place their branching points; a
class carries a cone covering those of its alternatives.  Pairs whose child
cones leave no common part of the new arc are cut, and a subset's root must
lie in the cone of the point it reads, so almost every infeasible orientation
is dropped before any placement.  A candidate's trees are then placed
top-down over its classes (``_realise``, one ``_place`` per branching point);
an alternative whose branching point misses its arc is dropped with its
whole subtree.
``realize_full_topology`` keeps the per-topology scan: a merge plan and a
depth-first search over the orientation words (``_scan_topology``).

``solve_exact`` then glues full components at shared terminals (blocks
pairwise share at most one terminal and the block graph is a tree), which
covers every possible Steiner minimal tree structure.  It also bounds each
subset's full trees by the subset's minimum spanning length (the MST test of
GeoSteiner): a structure holding a full tree longer than that by more than
the tolerance can swap it for the MST, so it is not within the tolerance of
the optimum, and no such tree is placed (``_rooted_full_trees``).
"""

from __future__ import annotations

import cmath
import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DegenerateInputError, ParameterError
from .geometry import ROT_LEFT, ROT_RIGHT, SQRT3
from .topology import MAX_TERMINALS, Topology, iter_full_topologies
from .trees import STEINER, TERMINAL, EmbeddedTree, as_points


@dataclass(frozen=True)
class SteinerSolution:
    """Global minimum plus every distinct optimum within ``tol`` terminal spans of it."""

    best: EmbeddedTree
    co_optima: tuple[EmbeddedTree, ...]
    optimality_gap_tol: float


# Solver tolerances, in units of the terminal span (see ``_normalise``).  ``_SLACK``
# is also the angle, in radians, by which the cone cuts of ``_merges`` err towards keeping.
_EPS = 1e-12  # coincident points, zero edges, proper crossings, rounding
_SLACK = 1e-10  # margin kept over ``tol``; agreement of merge and edge lengths; key grid
_SAME = 1e-6  # vertex distance under which two optima are the same tree


def _normalise(points: tuple[complex, ...]) -> tuple[tuple[complex, ...], Callable]:
    """Terminals moved to their centroid and divided by their span, and the map back.

    The map back keeps the caller's terminals (the first vertices of a tree)
    bit for bit and moves only the branching points.
    """
    n = len(points)
    centre = sum(points) / max(n, 1)
    span = max((abs(p - q) for p in points for q in points), default=0.0) or 1.0  # 1.0: coincident

    def back(tree: EmbeddedTree) -> EmbeddedTree:
        moved = [centre + span * v for v in tree.vertices[n:]]
        return EmbeddedTree.build([*points, *moved], tree.roles, tree.edges)

    return tuple((p - centre) / span for p in points), back


# ---------------------------------------------------------------------------
# merge planning


def _merge_plan(topo: Topology) -> tuple[list[tuple[int, int, int, int]], int, int]:
    """Merge schedule ``(steiner, leaf_a, leaf_b, remaining_neighbor)``.

    Terminal 0 is never consumed, so the reduced tree always ends as the
    segment [terminal 0, last merged label]; that anchors the reconstruction.
    """
    n = topo.n_terminals
    total = n + topo.n_steiner
    cur: dict[int, set[int]] = {v: set() for v in range(total)}
    for u, v in topo.edges:
        cur[u].add(v)
        cur[v].add(u)
    root = 0
    plan: list[tuple[int, int, int, int]] = []
    remaining = set(range(n, total))
    while remaining:
        chosen = None
        for s in sorted(remaining):
            leaves = sorted(v for v in cur[s] if len(cur[v]) == 1 and v != root)
            if len(leaves) >= 2:
                chosen = (s, leaves[0], leaves[1])
                break
        if chosen is None:
            raise ParameterError("topology is not a full Steiner topology")
        s, a, b = chosen
        third = next(iter(cur[s] - {a, b}))
        plan.append((s, a, b, third))
        del cur[a]
        del cur[b]
        cur[s] -= {a, b}
        remaining.discard(s)
    last = plan[-1][0]
    return plan, root, last


def _validate_full_topology(points: Sequence[complex], topo: Topology) -> None:
    if topo.n_terminals != len(points):
        raise ParameterError(
            f"topology is on {topo.n_terminals} terminals, got {len(points)} points"
        )
    deg = [0] * (topo.n_terminals + topo.n_steiner)
    for u, v in topo.edges:
        deg[u] += 1
        deg[v] += 1
    if any(d != 1 for d in deg[: topo.n_terminals]) or any(
        d != 3 for d in deg[topo.n_terminals :]
    ):
        raise ParameterError("topology is not full (terminal degree 1, branch degree 3)")


# ---------------------------------------------------------------------------
# realization


def _reconstruct(
    points: Sequence[complex],
    pseudo: list[complex],
    plan: list[tuple[int, int, int, int]],
    root: int,
    last: int,
) -> dict[int, complex] | None:
    """Final branching positions for one orientation word, or None if infeasible."""
    n = len(points)
    final: dict[int, complex] = {}
    for s, a, b, third in reversed(plan):
        q = _place(
            final[third] if third >= n else points[third],
            pseudo[s],
            pseudo[a] if a >= n else points[a],
            pseudo[b] if b >= n else points[b],
        )
        if q is None:
            return None
        final[s] = q
    return final


def _place(X: complex, E: complex, p1: complex, p2: complex) -> complex | None:
    """Branching point of the merge of ``p1`` and ``p2`` into ``E`` whose parent is at ``X``.

    It is where the segment from ``X`` to ``E`` meets the circumcircle of
    ``p1 p2 E`` on the arc facing away from ``E``; None when it misses the open arc.
    """
    center = (p1 + p2 + E) / 3.0
    chord = p2 - p1
    radius = abs(chord) / SQRT3
    eps = 1e-12 * radius
    d = E - X
    dd = d.real * d.real + d.imag * d.imag
    if dd <= eps * eps:
        return None
    f = X - center
    bq = 2.0 * (f.real * d.real + f.imag * d.imag)
    cq = f.real * f.real + f.imag * f.imag - radius * radius
    disc = bq * bq - 4.0 * dd * cq
    if disc < 0.0:
        disc = 0.0
    sq = math.sqrt(disc)
    # stable quadratic roots (dd > 0 here); E sits on the circle so one root is ~1,
    # and t is the other
    if bq >= 0.0:
        qf = -0.5 * (bq + sq)
    else:
        qf = -0.5 * (bq - sq)
    t = qf / dd
    if qf != 0.0 and abs(cq / qf - 1.0) > abs(t - 1.0):
        t = cq / qf
    seg = math.sqrt(dd)
    if not (t * seg > eps and (1.0 - t) * seg > eps):
        return None
    q = X + t * d
    # q must sit on the arc facing away from E: strictly opposite side of the chord
    cross_e = chord.real * (E - p1).imag - chord.imag * (E - p1).real
    cross_q = chord.real * (q - p1).imag - chord.imag * (q - p1).real
    if cross_e >= 0.0:
        if cross_q > -eps * abs(chord):
            return None
    else:
        if cross_q < eps * abs(chord):
            return None
    return q


def _scan_topology(
    points: Sequence[complex],
    topo: Topology,
    topo_key: int,
    best: float,
    keep: float,
    out: list,
) -> float:
    """DFS over the 2^(n-2) orientation words of one topology.

    Valid realizations with merge length below ``best + keep`` are appended to
    ``out`` as ``(length, topo_key, word, final_positions, topo)``; returns the
    updated best valid length.  Pruning against the running best is safe
    because the caller re-filters against the final best.
    """
    plan, root, last = _merge_plan(topo)
    m = len(plan)
    pos: list[complex] = list(points) + [0j] * topo.n_steiner
    sides = [0] * m
    steps = [(s, a, b) for s, a, b, _ in plan]

    def rec(k: int, best: float) -> float:
        if k == m:
            L = abs(pos[root] - pos[last])
            if L < best + keep:
                final = _reconstruct(points, pos, plan, root, last)
                if final is not None:
                    out.append((L, topo_key, tuple(sides), dict(final), topo))
                    if L < best:
                        best = L
            return best
        s, a, b = steps[k]
        pa = pos[a]
        d = pos[b] - pa
        pos[s] = pa + d * ROT_LEFT
        sides[k] = 0
        best = rec(k + 1, best)
        pos[s] = pa + d * ROT_RIGHT
        sides[k] = 1
        best = rec(k + 1, best)
        return best

    return rec(0, best)


def _tree_from_candidate(
    points: Sequence[complex], topo: Topology, final: dict[int, complex]
) -> EmbeddedTree | None:
    n = topo.n_terminals
    verts = list(points) + [final[s] for s in range(n, n + topo.n_steiner)]
    for u, v in topo.edges:
        if abs(verts[u] - verts[v]) <= _EPS:
            return None
    tree = EmbeddedTree.build(verts, [TERMINAL] * n + [STEINER] * topo.n_steiner, topo.edges)
    return tree


def realize_full_topology(terminals, topo: Topology) -> EmbeddedTree | None:
    """Realize ``topo`` on the given terminals, or None when infeasible.

    Both equilateral orientations are tried at every merge; among valid
    reconstructions the shortest is returned (orientation word breaks ties).
    """
    points = as_points(terminals)
    if len(points) != 2:
        _validate_full_topology(points, topo)
    return _shortest_full_tree(points, topo)


def minimal_full_tree(terminals) -> EmbeddedTree | None:
    """Shortest realizable full topology over all topologies, or None."""
    points = as_points(terminals)
    if not 2 <= len(points) <= MAX_TERMINALS:
        raise ParameterError(f"minimal_full_tree requires 2..{MAX_TERMINALS} terminals")
    return _shortest_full_tree(points, None)


def _shortest_full_tree(points, topo: Topology | None) -> EmbeddedTree | None:
    """``topo`` realized, or with None the best full tree on every terminal.

    The latter is the full set's entry of the component table, built alone:
    the masks below the top are generated for its merges, but no subset's
    trees are placed.
    """
    if len(points) == 2:
        return EmbeddedTree.build(points, [TERMINAL, TERMINAL], [(0, 1)])
    unit, back = _normalise(points)
    if topo is None:
        table: dict[int, list[tuple[float, EmbeddedTree]]] = {}
        top = (1 << len(unit)) - 2
        _rooted_full_trees(unit, _memo(unit), top, _EPS, table)
        kept = table[top | 1]
    else:
        kept = _subset_full_trees(unit, _EPS, (topo,))[1]
    return back(kept[0][1]) if kept else None


def _subset_full_trees(
    points: Sequence[complex],
    keep: float,
    topos: Iterable[Topology] | None = None,
) -> tuple[float, list[tuple[float, EmbeddedTree]]]:
    """Valid full trees on ``points`` within ``keep`` of the shortest one.

    ``topos`` defaults to streaming every full topology on ``points``, in
    enumeration order.  Returns ``(best, kept)``: the shortest valid
    merge length seen and the kept trees in (length, topology number,
    orientation word) order.
    """
    out: list = []
    best = math.inf
    source = topos if topos is not None else iter_full_topologies(len(points))
    for key, topo in enumerate(source):
        best = _scan_topology(points, topo, key, best, keep, out)
    kept = []
    for L, key, word, final, topo in sorted(
        (c for c in out if c[0] <= best + keep), key=lambda c: (c[0], c[1], c[2])
    ):
        tree = _tree_from_candidate(points, topo, final)
        if tree is not None and abs(tree.length - L) <= _SLACK:
            kept.append((L, tree))
    return best, kept


# ---------------------------------------------------------------------------
# equilateral points shared across subsets

_TAU = 2.0 * math.pi
_ARC = math.pi / 3.0  # the Steiner arc of an equilateral point, seen from it
# a merge packs as big << _BIG | i << _I | j << 1 | side (see ``_Classes``)
_IDX = 24  # bits of a class index; at nine terminals a held mask has some 5,000 classes
_LOW = (1 << _IDX) - 1
_I = _IDX + 1
_BIG = 2 * _IDX + 1


class _Classes:
    """The equilateral points of one terminal mask, one per signature class.

    Every equilateral point is E = sum of omega^k_i * z_i over its terminals,
    omega = e^(i pi/3) = ``ROT_LEFT``, so rooted trees with equal exponents
    share one E.  The exponents pack exactly into one int of six n-bit
    terminal masks, one per power of omega: the class ``key``.  A class
    holds, column by column, its ``E``, a cone ``mid +- half`` that covers
    the cone of each of its alternatives, and its key where a larger mask
    reads it (see ``_classes``).  An alternative is a
    merge that gives E, packed as ``big << _BIG | i << _I | j << 1 | side``:
    class i of mask ``big`` and class j of the rest, merged by ``ROT_LEFT``
    (side 0) or ``ROT_RIGHT`` (side 1).  With ``head`` None a class has one
    alternative, ``alts[c]``; otherwise ``head[c]`` indexes its newest one in
    ``alts`` and ``nxt`` links each to the one before, -1 ending the list.
    """

    __slots__ = ("E", "mid", "half", "key", "alts", "head", "nxt")

    def __init__(self, E, mid, half, key, alts, head=None, nxt=None) -> None:
        self.E: Sequence[complex] = E
        self.mid: Sequence[float] = mid
        self.half: Sequence[float] = half
        self.key: Sequence[int] = key
        self.alts: Sequence[int] = alts
        self.head: array | None = head
        self.nxt: array | None = nxt

    def alternatives(self, c: int) -> Sequence[int]:
        """The packed merges that give class ``c``."""
        if self.head is None:
            return (self.alts[c],)
        out = []
        k = self.head[c]
        while k >= 0:
            out.append(self.alts[k])
            k = self.nxt[k]
        return out


def _memo(points: tuple[complex, ...]) -> dict[int, _Classes]:
    """The class memo of ``points``, holding the terminals other than 0."""
    return {
        1 << i: _Classes((points[i],), (0.0,), (math.inf,), (1 << i,), ())
        for i in range(1, len(points))
    }


def _classes(T: int, points: tuple[complex, ...], memo: dict[int, _Classes]) -> _Classes:
    """The signature classes of mask ``T``, generated once and held in ``memo``.

    Three terminals cannot repeat a signature, so up to three every merge is
    a class of its own, kept in tuples.  Larger masks merge their merges by
    key.  A mask keeps its keys only when such a larger mask reads them: one
    below the top mask, which holds at most n - 2 terminals.
    """
    C = memo.get(T)
    if C is not None:
        return C
    size = T.bit_count()
    keep = len(points) - 2 > max(size, 3)
    if size <= 3:
        rows = list(_merges(T, points, memo, keep))
        E, mid, half, alts, keys = zip(*rows) if rows else ((),) * 5
        C = memo[T] = _Classes(E, mid, half, keys if keep else (), alts)
        return C
    E, mid, half = [], array("d"), array("d")
    alts, head, nxt = array("Q"), array("q"), array("q")
    index: dict[int, int] = {}  # key -> class, in class order
    for e, m, h, alt, key in _merges(T, points, memo, True):
        c = index.get(key)
        if c is None:
            c = index[key] = len(E)
            E.append(e)
            mid.append(m)
            half.append(h)
            head.append(-1)
        else:
            mid[c], half[c] = _cone_union(mid[c], half[c], m, h)
        nxt.append(head[c])
        head[c] = len(alts)
        alts.append(alt)
    C = memo[T] = _Classes(E, mid, half, list(index) if keep else (), alts, head, nxt)
    return C


def _cone_union(m1: float, h1: float, m2: float, h2: float) -> tuple[float, float]:
    """A cone ``mid +- half`` covering the cones ``m1 +- h1`` and ``m2 +- h2``.

    Once ``half + _SLACK`` reaches 2pi/3 it is the full circle (half = inf):
    a wider cone also meets the arc of ``_merges`` through its image at 2pi,
    which the interval test there does not see.
    """
    d = (m2 - m1 + math.pi) % _TAU - math.pi
    lo = min(-h1, d - h2)
    hi = max(h1, d + h2)
    half = 0.5 * (hi - lo)
    if half + _SLACK >= 2.0 * _ARC:
        return 0.0, math.inf
    return m1 + 0.5 * (hi + lo), half


def _merges(T: int, points: tuple[complex, ...], memo: dict[int, _Classes], keyed: bool):
    """Yield every feasible merge of two child classes into an equilateral point on ``T``.

    A merge is ``(E, mid, half, alt, key)``, ``alt`` packed as in
    ``_Classes`` and ``key`` its signature key, or None unless ``keyed``.
    E = e1 + (e2 - e1) * rotation multiplies e1 by omega^5 and e2 by omega
    for ``ROT_LEFT``, the other way round for ``ROT_RIGHT``, and multiplying
    by omega^p rotates a key's six n-bit blocks by p.
    The cone ``mid +- half`` holds the directions from E to the part of its
    Steiner arc (the circumcircle arc between its children, seen from E under
    60 degrees) at which both children can still place their own branching
    points: the parent of E must lie in it.  Along the arc, parameter phi in
    [0, pi/3] turns the directions from E, from the left child and from the
    right child at the same rate, so each child's cone, widened by
    ``_SLACK`` radians, cuts an interval of phi.  A pair is cut when the two
    intervals share no phi in [0, pi/3]; only pairs that ``_place`` would
    reject are.
    """
    n = len(points)
    full = (1 << 6 * n) - 1
    pi, tau, arc, turn, phase = math.pi, _TAU, _ARC, 2.0 * _ARC, cmath.phase
    left, right = ROT_LEFT, ROT_RIGHT
    low = T & -T
    rest = T ^ low
    A = rest
    while A:
        A = (A - 1) & rest
        T1, T2 = low | A, rest ^ A
        small, big = (T1, T2) if T1.bit_count() <= T2.bit_count() else (T2, T1)
        sc = _classes(small, points, memo)
        smalls = [
            (j << 1, e, m, h + _SLACK) for j, (e, m, h) in enumerate(zip(sc.E, sc.mid, sc.half))
        ]
        if not smalls:
            continue
        if keyed:  # the keys of the small classes times omega and omega^5
            turned = [((k << n | k >> 5 * n) & full, (k << 5 * n | k >> n) & full) for k in sc.key]
        bc = _classes(big, points, memo)
        key = None
        for i, (e1, m1, h1) in enumerate(zip(bc.E, bc.mid, bc.half)):
            h1 += _SLACK
            bi = big << _BIG | i << _I
            if keyed:
                kb = bc.key[i]
                b1, b5 = (kb << n | kb >> 5 * n) & full, (kb << 5 * n | kb >> n) & full
            # With sigma = 1 for ROT_LEFT and -1 for ROT_RIGHT, at phi = 0 the arc
            # leaves e1 along v - sigma*pi/3 and is seen from e2 along v + pi: the
            # children's cones sit at f1 = sigma*((m1 + sigma*pi/3 + pi - v) mod 2pi - pi)
            # and f2 = sigma*((m2 - v) mod 2pi - pi) along the arc.
            a_left, a_right = m1 + arc + pi, m1 - arc + pi
            for j, e2, m2, h2 in smalls:
                d = e2 - e1
                v = phase(d)
                f2 = (m2 - v) % tau - pi
                f1 = (a_left - v) % tau - pi
                lo = f1 - h1 if f1 - h1 > f2 - h2 else f2 - h2
                hi = f1 + h1 if f1 + h1 < f2 + h2 else f2 + h2
                if lo < 0.0:
                    lo = 0.0
                if hi > arc:
                    hi = arc
                if lo <= hi:
                    if keyed:
                        key = b5 | turned[j >> 1][0]
                    # from E the arc starts towards e1, along v - sigma*2pi/3
                    yield e1 + d * left, v - turn + 0.5 * (lo + hi), 0.5 * (hi - lo), bi | j, key
                f2 = -f2
                f1 = pi - (a_right - v) % tau
                lo = f1 - h1 if f1 - h1 > f2 - h2 else f2 - h2
                hi = f1 + h1 if f1 + h1 < f2 + h2 else f2 + h2
                if lo < 0.0:
                    lo = 0.0
                if hi > arc:
                    hi = arc
                if lo <= hi:
                    if keyed:
                        key = b1 | turned[j >> 1][1]
                    yield e1 + d * right, v + turn - 0.5 * (lo + hi), 0.5 * (hi - lo), bi | j | 1, key


def _realise(
    T: int, alts: Sequence[int], E: complex, X: complex, memo: dict[int, _Classes]
) -> list:
    """Every placement of the rooted full trees behind the point ``E`` of mask ``T``.

    ``alts`` are the merges that give E and ``X`` is the parent of its
    branching point.  An alternative whose branching point misses its arc is
    dropped with its whole subtree.  A placed tree is ``(position, left,
    right)``, a terminal its index.
    """
    out = []
    for alt in alts:
        big = alt >> _BIG
        small = T ^ big
        bc, sc = memo[big], memo[small]
        i, j = alt >> _I & _LOW, alt >> 1 & _LOW
        s = _place(X, E, bc.E[i], sc.E[j])
        if s is None:
            continue
        if big & (big - 1):
            lefts = _realise(big, bc.alternatives(i), bc.E[i], s, memo)
            if not lefts:
                continue
        else:
            lefts = (big.bit_length() - 1,)
        if small & (small - 1):
            rights = _realise(small, sc.alternatives(j), sc.E[j], s, memo)
        else:
            rights = (small.bit_length() - 1,)
        for a in lefts:
            for b in rights:
                out.append((s, a, b))
    return out


def _flatten(tree, local: dict[int, int], plan: list, final: dict[int, complex], third: int) -> int:
    """Label of the placed ``tree`` in a merge plan whose merges it appends, children first.

    A terminal is labelled by its local index.  A branching point takes the
    next label after the terminals and the points in ``final``, which
    receives its position, and joins the plan as ``(label, left, right,
    third)``, ``third`` being its parent.
    """
    if isinstance(tree, int):
        return local[tree]
    s = len(local) + len(final)
    final[s] = tree[0]
    a = _flatten(tree[1], local, plan, final, s)
    b = _flatten(tree[2], local, plan, final, s)
    plan.append((s, a, b, third))
    return s


# ---------------------------------------------------------------------------
# exact solver over block structures


def solve_exact(terminals, tol: float = 1e-9) -> SteinerSolution:
    """Exact Steiner minimal trees on 2..9 terminals.

    Every candidate is a union of full components glued at shared terminals;
    full components are exhausted per terminal subset via the merge scheme.
    ``co_optima`` lists all geometrically distinct optima within ``tol`` of
    the best length, canonically ordered; ``best`` is the shortest of them.
    ``tol`` is in units of the terminal span (the largest distance between
    two terminals), so similar inputs give similar answers; it must be
    zero or more, and ``inf`` keeps every structure.
    """
    if not tol >= 0:
        raise ParameterError(f"tol must be zero or more, got {tol!r}")
    terminals = as_points(terminals)
    n = len(terminals)
    if not 2 <= n <= MAX_TERMINALS:
        raise ParameterError(f"solve_exact requires 2..{MAX_TERMINALS} terminals, got {n}")
    points, back = _normalise(terminals)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= _EPS:
                raise DegenerateInputError(f"terminals {i} and {j} coincide")

    keep = tol + _SLACK
    table = _full_component_table(points, keep, bounded=True)

    weight = {mask: entries[0][0] for mask, entries in table.items() if entries}
    min_total, g = _hypertree_dp(n, weight)
    if not math.isfinite(min_total):
        raise ParameterError("no connected structure found")  # unreachable: segments always exist

    structures = _enumerate_structures(n, weight, g, min_total, keep)

    candidates: list[EmbeddedTree] = []
    for structure in sorted(structures, key=lambda s: tuple(sorted(s))):
        blocks = sorted(structure)
        per_block = [table[b] for b in blocks]
        floor = sum(entries[0][0] for entries in per_block)
        slack = min_total + tol - floor
        for combo in itertools.product(*per_block):
            extra = sum(L for L, _t in combo) - floor
            if extra > slack + _EPS:
                continue
            tree = _assemble(points, blocks, [t for _L, t in combo])
            if not _has_crossing(tree):
                candidates.append(tree)

    if not candidates:
        raise ParameterError("no valid embedding found")  # unreachable
    best_len = min(t.length for t in candidates)
    optima = [t for t in candidates if t.length <= best_len + tol]
    optima = _dedupe(optima, _SAME)
    optima.sort(key=_canonical_key)
    optima = [back(t) for t in optima]
    return SteinerSolution(min(optima, key=lambda t: t.length), tuple(optima), tol)


def _full_component_table(
    points: tuple[complex, ...], keep: float, bounded: bool = False
) -> dict[int, list[tuple[float, EmbeddedTree]]]:
    """Best full trees (within ``keep``) for every terminal subset mask.

    With ``bounded`` a subset of three or more terminals drops every tree
    at least ``keep`` longer than its minimum spanning length (see
    ``_rooted_full_trees``); the segments of two terminals are always kept.
    """
    n = len(points)
    table: dict[int, list[tuple[float, EmbeddedTree]]] = {}
    for i, j in itertools.combinations(range(n), 2):
        seg = EmbeddedTree.build([points[i], points[j]], [TERMINAL, TERMINAL], [(0, 1)])
        table[(1 << i) | (1 << j)] = [(seg.length, seg)]
    memo = _memo(points)
    for T in range(6, 1 << n, 2):
        if T.bit_count() >= 2:
            _rooted_full_trees(points, memo, T, keep, table, bounded)
    return table


def _rooted_full_trees(
    points: tuple[complex, ...],
    memo: dict[int, _Classes],
    T: int,
    keep: float,
    table: dict[int, list[tuple[float, EmbeddedTree]]],
    bounded: bool = False,
) -> None:
    """Enter in ``table`` the best full trees (within ``keep``) of every subset T + r, r < min(T).

    A subset is rooted at its lowest terminal r, and its full trees are the
    equilateral points of T seen from r.  Below the top mask (every terminal
    but 0, read by r = 0 only) these are the signature classes of T, shared by
    every r; the top mask is streamed merge by merge and not held.  A point is
    a candidate when r lies in its cone; with merge length L = |r - E| below
    the running best plus ``keep`` its trees are placed at once.  Each entry
    keeps the valid trees within ``keep`` of the shortest valid L, ordered by
    length.

    With ``bounded`` the running best of a subset S starts at MST(S), its
    minimum spanning length, instead of infinity, so a tree with L >= MST(S)
    + ``keep`` is never placed.  No such tree is a block of a structure
    within ``tol`` = ``keep`` - ``_SLACK`` of the optimum: replacing it by
    the MST of its terminals leaves a connected network more than ``keep``
    shorter, and no connected network is shorter than the optimum.
    """
    n = len(points)
    members = [i for i in range(n) if T >> i & 1]
    subsets = []
    for r in range(members[0]):
        idxs = [r, *members]
        local = {i: k for k, i in enumerate(idxs)}
        subsets.append((T | 1 << r, tuple(points[i] for i in idxs), local, []))
    # three terminals have no full tree longer than their MST: the Fermat tree is shortest
    bounded = bounded and len(members) > 2
    best = [_prim(pts)[0] if bounded else math.inf for _S, pts, _local, _found in subsets]
    if T == (1 << n) - 2:
        C = None
        cands = _merges(T, points, memo, False)
    else:
        C = _classes(T, points, memo)
        cands = zip(C.E, C.mid, C.half, range(len(C.E)), itertools.repeat(None))
    for E, mid, half, ref, _key in cands:
        for k, (_S, pts, local, found) in enumerate(subsets):
            x = pts[0] - E
            L = abs(x)
            if L >= best[k] + keep:
                continue
            if abs((cmath.phase(x) - mid + math.pi) % _TAU - math.pi) > half + _SLACK:
                continue  # the root is outside the cone
            alts = (ref,) if C is None else C.alternatives(ref)
            for tree in _realise(T, alts, E, pts[0], memo):
                plan: list[tuple[int, int, int, int]] = []
                final: dict[int, complex] = {}
                _flatten(tree, local, plan, final, 0)
                found.append((L, plan, final))
                best[k] = min(best[k], L)
    for k, (S, pts, _local, found) in enumerate(subsets):
        entries = []
        for L, plan, final in sorted(
            (c for c in found if c[0] <= best[k] + keep), key=lambda c: c[0]
        ):
            edges = [(t, s) for s, _a, _b, t in plan]  # every merge to its parent
            edges += [(c, s) for s, a, b, _t in plan for c in (a, b) if c < len(pts)]
            topo = Topology(len(pts), len(plan), tuple(sorted(edges)))
            tree = _tree_from_candidate(pts, topo, final)
            if tree is not None and abs(tree.length - L) <= _SLACK:
                entries.append((L, tree))
        table[S] = entries


def _gluings(
    S: int, weight: dict[int, float], g: dict[int, float]
) -> Iterator[tuple[int, float, int]]:
    """Every way to split a leaf block off a hypertree spanning ``S``.

    Yields ``(block, weight, prev)`` where ``prev`` is ``S`` minus the block
    plus its attachment terminal; ``prev`` keeps terminal 0 and has a value
    in ``g``.
    """
    B = S
    while B:
        w = weight.get(B)
        if w is not None:
            rest = S & ~B
            bits = B
            while bits:
                attach = bits & -bits
                bits ^= attach
                prev = rest | attach
                if prev in g:  # every key of g holds terminal 0
                    yield B, w, prev
        B = (B - 1) & S


def _hypertree_dp(n: int, weight: dict[int, float]) -> tuple[float, dict[int, float]]:
    """Min cost to span mask S (S containing terminal 0) by glued blocks.

    A hypertree always has a leaf block; removing it (keeping its attachment
    terminal) leaves a hypertree, which gives the recurrence.
    """
    full = (1 << n) - 1
    g = {1: 0.0}
    masks = sorted((m for m in range(3, full + 1) if m & 1), key=lambda m: bin(m).count("1"))
    for S in masks:
        best = min((g[prev] + w for _B, w, prev in _gluings(S, weight, g)), default=math.inf)
        if math.isfinite(best):
            g[S] = best
    return g.get(full, math.inf), g


def _enumerate_structures(
    n: int, weight: dict[int, float], g: dict[int, float], min_total: float, budget_slack: float
) -> set[frozenset[int]]:
    """All block structures whose total weight is within the budget of optimal."""
    out: set[frozenset[int]] = set()

    def rec(S: int, budget: float, acc: tuple[int, ...]) -> None:
        if S == 1:
            out.add(frozenset(acc))
            return
        for B, w, prev in _gluings(S, weight, g):
            if g[prev] + w <= budget:
                rec(prev, budget - w, acc + (B,))

    rec((1 << n) - 1, min_total + budget_slack, ())
    return out


def _assemble(
    points: tuple[complex, ...], blocks: list[int], trees: list[EmbeddedTree]
) -> EmbeddedTree:
    n = len(points)
    verts: list[complex] = list(points)
    roles: list[str] = [TERMINAL] * n
    edges: list[tuple[int, int]] = []
    for mask, tree in zip(blocks, trees):
        idxs = [i for i in range(n) if mask >> i & 1]
        mapping: dict[int, int] = {}
        for local, v in enumerate(tree.vertices):
            if tree.roles[local] == TERMINAL:
                mapping[local] = idxs[local]
            else:
                verts.append(v)
                roles.append(STEINER)
                mapping[local] = len(verts) - 1
        for u, v in tree.edges:
            edges.append((mapping[u], mapping[v]))
    return EmbeddedTree.build(verts, roles, edges)


def _has_crossing(tree: EmbeddedTree) -> bool:
    """True when two edges not sharing a vertex properly cross."""
    segs = [(u, v, tree.vertices[u], tree.vertices[v]) for u, v in tree.edges]
    for i in range(len(segs)):
        u1, v1, a1, b1 = segs[i]
        for j in range(i + 1, len(segs)):
            u2, v2, a2, b2 = segs[j]
            if {u1, v1} & {u2, v2}:
                continue
            if _proper_cross(a1, b1, a2, b2, _EPS):
                return True
    return False


def _proper_cross(a: complex, b: complex, c: complex, d: complex, eps: float) -> bool:
    def orient(p: complex, q: complex, r: complex) -> float:
        return (q.real - p.real) * (r.imag - p.imag) - (q.imag - p.imag) * (r.real - p.real)

    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    return (o1 > eps and o2 < -eps or o1 < -eps and o2 > eps) and (
        o3 > eps and o4 < -eps or o3 < -eps and o4 > eps
    )


def _collapsed_vertices(tree: EmbeddedTree, tol: float) -> list[complex]:
    out: list[complex] = []
    for v in tree.vertices:
        if all(abs(v - w) > tol for w in out):
            out.append(v)
    return out


def trees_geometrically_equal(t1: EmbeddedTree, t2: EmbeddedTree, tol: float) -> bool:
    """Vertex sets match under greedy nearest pairing within ``tol``."""
    a = _collapsed_vertices(t1, tol * 1e-3)
    b = _collapsed_vertices(t2, tol * 1e-3)
    if len(a) != len(b):
        return False
    unused = list(b)
    for v in a:
        best_i = min(range(len(unused)), key=lambda i: abs(unused[i] - v), default=None)
        if best_i is None or abs(unused[best_i] - v) > tol:
            return False
        unused.pop(best_i)
    return True


def _dedupe(trees: list[EmbeddedTree], tol: float) -> list[EmbeddedTree]:
    out: list[EmbeddedTree] = []
    for t in trees:
        if not any(trees_geometrically_equal(t, u, tol) for u in out):
            out.append(t)
    return out


def _canonical_key(tree: EmbeddedTree):
    """Order of co-optima; ``tree`` is in the unit frame."""
    pts = sorted((round(v.real / _SLACK), round(v.imag / _SLACK)) for v in tree.vertices)
    return (round(tree.length / _SLACK), len(tree.vertices), tuple(pts))


# ---------------------------------------------------------------------------
# spanning-tree utilities


def _prim(points: Sequence[complex]) -> tuple[float, list[tuple[int, int]]]:
    """Length and edges ``(parent, child)`` of a Euclidean minimum spanning tree (Prim).

    Ties go to the lower index, and the edges come in the order their
    children join the tree.
    """
    n = len(points)
    dist = [math.inf] * n
    link = [0] * n
    todo = list(range(1, n))
    total = 0.0
    edges: list[tuple[int, int]] = []
    u = 0
    while todo:
        pu = points[u]
        nearest = todo[0]
        for v in todo:
            d = abs(pu - points[v])
            if d < dist[v]:
                dist[v] = d
                link[v] = u
            if dist[v] < dist[nearest]:
                nearest = v
        todo.remove(nearest)
        total += dist[nearest]
        edges.append((link[nearest], nearest))
        u = nearest
    return total, edges


def minimum_spanning_tree(terminals) -> EmbeddedTree:
    """Euclidean minimum spanning tree on the complete terminal graph (Prim)."""
    points = as_points(terminals)
    n = len(points)
    if n < 2:
        raise ParameterError("minimum_spanning_tree requires n >= 2")
    return EmbeddedTree.build(points, [TERMINAL] * n, _prim(points)[1])


def steiner_ratio(terminals, tol: float = 1e-9) -> float:
    """Steiner minimal length divided by minimum spanning length."""
    points = as_points(terminals)
    solution = solve_exact(points, tol=tol)
    return solution.best.length / minimum_spanning_tree(points).length
