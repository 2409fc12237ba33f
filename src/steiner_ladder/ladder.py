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

The A0 network is ``dynamics.tree_from_orbit`` on the inverse map's 2-cycle,
so this module imports ``dynamics``, which imports nothing from here.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable

from . import dynamics as dyn
from .dynamics import bisector_abscissa, condition_holds, require_condition
from .errors import ParameterError
from .geometry import SQRT3
from .solver import minimal_full_tree
from .trees import EmbeddedTree, TerminalSet, merge_trees

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


def separation_gap(alpha: float, lam: float) -> float:
    """Slack of the separation inequality used by the cross-segment bound."""
    return bisector_abscissa(alpha, lam) - math.cos(alpha) - SQRT3 * math.sin(alpha) / (1.0 - lam)


def separation_predicate(alpha: float, lam: float) -> bool:
    return separation_gap(alpha, lam) >= 0.0


def terminal_a(alpha: float, lam: float, k: int) -> complex:
    """Upper-side terminal at depth k (unit distance for k=1)."""
    return lam ** (k - 1) * cmath.exp(1j * alpha)


def terminal_b(alpha: float, lam: float, k: int) -> complex:
    return lam ** (k - 1) * cmath.exp(-1j * alpha)


def segment_radius(alpha: float, lam: float) -> float:
    """Distance of the cross-segment endpoints A0, B0 from the angle vertex."""
    return 1.0 / lam - math.tan(alpha) / (SQRT3 * lam)


def build_input(params: LadderParams, family: str = "A1") -> TerminalSet:
    """Terminal set of the requested family at the params' truncation depth."""
    if family not in ("A1", "A0"):
        raise ParameterError(f"family must be 'A1' or 'A0', got {family!r}")
    alpha, lam, K = params.alpha, params.lam, params.depth
    labels = [f"A{k}" for k in range(1, K + 1)] + [f"B{k}" for k in range(1, K + 1)] + ["Ainf"]
    points = (
        [terminal_a(alpha, lam, k) for k in range(1, K + 1)]
        + [terminal_b(alpha, lam, k) for k in range(1, K + 1)]
        + [0j]
    )
    segment = None
    if family == "A0":
        r = segment_radius(alpha, lam)
        labels += ["A0", "B0"]
        points += [r * cmath.exp(1j * alpha), r * cmath.exp(-1j * alpha)]
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


def x_point(alpha: float, lam: float, side: str = UPPER) -> complex:
    """Entry point of the A0 network on the cross segment [A0 B0]."""
    if side not in (UPPER, LOWER):
        raise ParameterError(f"side must be 'upper' or 'lower', got {side!r}")
    sign = 1.0 if side == UPPER else -1.0
    return complex(bisector_abscissa(alpha, lam), sign * x_offset(alpha, lam))


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

    ``tree_from_orbit`` on the inverse map's 2-cycle at ``beta = 0``: the
    network enters at ``x_point`` on the cross segment, alternates sides of
    the bisector through one rhombus per depth and closes with a stub at the
    entry point's image under the homothety of ratio ``lam**K``, so its
    length is ``(1 - lam**K)`` times the infinite one.
    """
    if side not in (UPPER, LOWER):
        raise ParameterError(f"side must be 'upper' or 'lower', got {side!r}")
    p0 = dyn.derive_params(params.alpha, params.lam, 0.0)
    t0 = dyn.periodic_points(p0, 2)[side == UPPER]
    K = params.depth
    return dyn.tree_from_orbit(p0, params, dyn.iterate(p0, t0, K + 1, dyn.INVERSE), K)
