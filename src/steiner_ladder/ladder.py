"""Self-similar input families on an angle and their explicit networks.

Terminals sit on the two sides of an angle of half-width ``alpha`` at
distances ``lam**(k-1)`` from the vertex (the angle bisector is the positive
real axis, the A side in the upper half-plane).  The admissible parameter
region is ``sqrt(lam) < cos(pi/3 + alpha) / cos(pi/3 - alpha)``.

Two families are built: ``A1`` (the points alone, plus the accumulation
vertex) and ``A0`` (additionally a cross segment [A0 B0] at distance
``1/lam - tan(alpha)/(sqrt(3) lam)``).  The optimal network for ``A1`` is a
chain of rescaled 5-terminal full blocks hinged at every second A- or B-side
terminal; for ``A0`` it is a single full tree entering through a point ``x``
on the cross segment, offset ``sin(alpha)/(1 + lam)`` from its midpoint.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ParameterError
from .geometry import SQRT3, Point, line_intersection
from .solver import minimal_full_tree
from .trees import STEINER, TERMINAL, EmbeddedTree, TerminalSet, merge_trees

UPPER = "upper"
LOWER = "lower"


@dataclass(frozen=True)
class LadderParams:
    """Half-angle, contraction ratio and truncation depth of a ladder input."""

    alpha: float
    lam: float
    depth: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.pi / 6:
            raise ParameterError(f"alpha must lie in (0, pi/6), got {self.alpha}")
        if not 0.0 < self.lam <= 0.5:
            raise ParameterError(f"lam must lie in (0, 1/2], got {self.lam}")
        if isinstance(self.depth, bool) or not isinstance(self.depth, int):
            raise ParameterError(f"depth must be an integer, got {self.depth!r}")
        if self.depth < 1:
            raise ParameterError(f"depth must be >= 1, got {self.depth}")


def condition_holds(alpha: float, lam: float) -> bool:
    """Strict admissibility inequality for the block structure to be optimal."""
    if not 0.0 < alpha < math.pi / 2 or lam <= 0.0:
        raise ParameterError("condition_holds requires alpha in (0, pi/2) and lam > 0")
    rhs = math.cos(math.pi / 3 + alpha) / math.cos(math.pi / 3 - alpha)
    return math.sqrt(lam) < rhs


def require_condition(alpha: float, lam: float) -> None:
    if not condition_holds(alpha, lam):
        raise ParameterError(
            f"parameters (alpha={alpha}, lam={lam}) violate the admissibility condition"
        )


def separation_gap(alpha: float, lam: float) -> float:
    """Slack of the separation inequality used by the cross-segment bound."""
    return bisector_abscissa(alpha, lam) - math.cos(alpha) - SQRT3 * math.sin(alpha) / (1.0 - lam)


def separation_predicate(alpha: float, lam: float) -> bool:
    return separation_gap(alpha, lam) >= 0.0


def terminal_a(alpha: float, lam: float, k: int) -> Point:
    """Upper-side terminal at depth k (unit distance for k=1)."""
    return Point.of(lam ** (k - 1) * cmath.exp(1j * alpha))


def terminal_b(alpha: float, lam: float, k: int) -> Point:
    return Point.of(lam ** (k - 1) * cmath.exp(-1j * alpha))


def segment_radius(alpha: float, lam: float) -> float:
    """Distance of the cross-segment endpoints A0, B0 from the angle vertex."""
    return 1.0 / lam - math.tan(alpha) / (SQRT3 * lam)


def bisector_abscissa(alpha: float, lam: float) -> float:
    """Abscissa of the cross segment: cos(a)/lam - sin(a)/(sqrt(3) lam)."""
    return math.cos(alpha) / lam - math.sin(alpha) / (SQRT3 * lam)


def build_input(params: LadderParams, family: str = "A1") -> TerminalSet:
    """Terminal set of the requested family at the params' truncation depth."""
    if family not in ("A1", "A0"):
        raise ParameterError(f"family must be 'A1' or 'A0', got {family!r}")
    alpha, lam, K = params.alpha, params.lam, params.depth
    labels = [f"A{k}" for k in range(1, K + 1)] + [f"B{k}" for k in range(1, K + 1)] + ["Ainf"]
    points = (
        [terminal_a(alpha, lam, k) for k in range(1, K + 1)]
        + [terminal_b(alpha, lam, k) for k in range(1, K + 1)]
        + [Point(0.0, 0.0)]
    )
    segment = None
    if family == "A0":
        r = segment_radius(alpha, lam)
        labels += ["A0", "B0"]
        points += [Point.of(r * cmath.exp(1j * alpha)), Point.of(r * cmath.exp(-1j * alpha))]
        segment = ("A0", "B0")
    meta = {"family": family, "alpha": alpha, "lambda": lam, "depth": K}
    return TerminalSet(tuple(labels), tuple(points), family=meta, segment=segment)


# ---------------------------------------------------------------------------
# closed forms


def closed_form_length_A1(alpha: float, lam: float) -> float:
    """Length of the optimal infinite network for the A1 family."""
    require_condition(alpha, lam)
    s = math.sin(alpha)
    value = (
        math.cos(alpha)
        + SQRT3 * s
        + (2.0 * lam / (1.0 - lam * lam)) * cmath.exp(1j * math.pi / 6) * s
        + (2.0 * lam * lam / (1.0 - lam * lam)) * cmath.exp(-1j * math.pi / 6) * s
    )
    return abs(value)


def closed_form_length_A0(alpha: float, lam: float) -> float:
    """Length of the optimal infinite network for the A0 family."""
    require_condition(alpha, lam)
    return bisector_abscissa(alpha, lam) + SQRT3 * math.sin(alpha) / (1.0 - lam)


def x_offset(alpha: float, lam: float) -> float:
    """Offset of the entry point from the cross-segment midpoint."""
    return math.sin(alpha) / (lam + 1.0)


def x_point(alpha: float, lam: float, side: str = UPPER) -> Point:
    """Entry point of the A0 network on the cross segment [A0 B0]."""
    if side not in (UPPER, LOWER):
        raise ParameterError(f"side must be 'upper' or 'lower', got {side!r}")
    sign = 1.0 if side == UPPER else -1.0
    return Point(bisector_abscissa(alpha, lam), sign * x_offset(alpha, lam))


def length_by_J(alpha: float, lam: float, J: Iterable[int], K: int) -> float:
    """Length functional of a bend-choice set, truncated at depth ``K``.

    ``J`` selects the indices (1-based) whose per-level contribution goes to
    the upper-rotated geometric sum: |c + a e^{i pi/6} + b e^{-i pi/6}| with
    a, b the two complementary sums of ``2 sin(alpha) lam**j``.
    """
    jset = set(J)
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in (*jset, K)):
        raise ParameterError(f"J indices and K must be integers >= 1, got J={J!r}, K={K!r}")
    s = math.sin(alpha)
    a = 2.0 * s * sum(lam**j for j in range(1, K + 1) if j in jset)
    b = 2.0 * s * sum(lam**j for j in range(1, K + 1) if j not in jset)
    c = math.cos(alpha) + SQRT3 * s
    return abs(c + a * cmath.exp(1j * math.pi / 6) + b * cmath.exp(-1j * math.pi / 6))


# ---------------------------------------------------------------------------
# explicit constructions


@functools.lru_cache(maxsize=32)
def _five_block(alpha: float, lam: float) -> EmbeddedTree:
    """Unique optimal full tree on A1, A2, A3, B1, B2, its vertices 0..4 in that order.

    The chain needs the entry tripod, the branching point joining A1 and B1,
    on or below the bisector.
    """
    pts = [terminal_a(alpha, lam, k) for k in (1, 2, 3)]
    pts += [terminal_b(alpha, lam, k) for k in (1, 2)]
    tree = minimal_full_tree(pts)
    if tree is None:
        raise ParameterError("no full tree exists on the 5-terminal block")
    adj = tree.adjacency()
    if not any(tree.vertices[s].imag <= 0 for s in set(adj[0]) & set(adj[3])):
        raise ParameterError("no branching point joins A1 and B1 on or below the bisector")
    return tree


def parse_word(word: str) -> tuple[int, ...]:
    """Normalize a mirror word such as '0110' to a bit tuple."""
    if not isinstance(word, str) or set(word) - {"0", "1"}:
        raise ParameterError(f"mirror word must be a string of 0s and 1s, got {word!r}")
    return tuple(int(ch) for ch in word)


def build_ladder_tree_A1(params: LadderParams, word: str) -> EmbeddedTree:
    """Chain of rescaled 5-terminal blocks for the A1 family.

    Depth ``K`` must be odd; the chain has ``(K-1)//2`` blocks, one word bit
    each.  Block j spans levels 2j + 1..2j + 3: its terminals are the lattice
    points A, B at those levels (three on the A side, two on the B side, the
    sides swapped for bit 1) and its branching points are those of the unit
    block scaled by ``lam**(2j)`` (conjugated for bit 1).  Bit 0 keeps the
    entry tripod below the bisector, bit 1 mirrors the block across it.
    Consecutive blocks share one terminal of degree 2 (the hinge), on the A
    side below an unmirrored block and on the B side below a mirrored one;
    both blocks compute it from its level, so ``merge_trees`` fuses it.
    """
    alpha, lam, K = params.alpha, params.lam, params.depth
    require_condition(alpha, lam)
    if K < 3 or K % 2 == 0:
        raise ParameterError(f"A1 ladder depth must be odd and >= 3, got {K}")
    bits = parse_word(word)
    if len(bits) != (K - 1) // 2:
        raise ParameterError(
            f"word length must be (depth-1)//2 = {(K - 1) // 2}, got {len(bits)}"
        )
    base = _five_block(alpha, lam)
    blocks = []
    for j, bit in enumerate(bits):
        three, two = (terminal_b, terminal_a) if bit else (terminal_a, terminal_b)
        terminals = [three(alpha, lam, 2 * j + k) for k in (1, 2, 3)]
        terminals += [two(alpha, lam, 2 * j + k) for k in (1, 2)]
        steiner = [lam ** (2 * j) * z for z in base.vertices[5:]]
        if bit:
            steiner = [z.conjugate() for z in steiner]
        blocks.append(EmbeddedTree.build(terminals + steiner, base.roles, base.edges))
    return merge_trees(blocks)


def build_ladder_tree_A0(params: LadderParams, side: str = UPPER) -> EmbeddedTree:
    """Indecomposable full network for the A0 family, truncated at depth K.

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


def build_triangle_tree(params: LadderParams, side: str = UPPER) -> EmbeddedTree:
    """Demo variant: the cross-segment network with side anchors instead.

    The entry leaf is promoted to a branching point by adding two edges from
    it to fresh terminals on the two angle sides, completing a regular tripod
    there.  All terminals then lie on the sides of the triangle spanned by
    the two anchors and the angle vertex.  Constructed as a demonstration; no
    minimality claim is made or checked.
    """
    base = build_ladder_tree_A0(params, side)
    alpha = params.alpha
    x0 = base.vertices[0]
    verts = list(base.vertices)
    roles = list(base.roles)
    edges = list(base.edges)
    roles[0] = STEINER
    # the existing edge at the entry leaf points inward along the bisector;
    # the two new edges leave at +-60 degrees and meet the angle sides
    for ang, ray in ((math.pi / 3, cmath.exp(1j * alpha)), (-math.pi / 3, cmath.exp(-1j * alpha))):
        anchor = line_intersection(x0, x0 + cmath.exp(1j * ang), 0j, ray)
        verts.append(anchor)
        roles.append(TERMINAL)
        edges.append((0, len(verts) - 1))
    return EmbeddedTree.build(verts, roles, edges)

