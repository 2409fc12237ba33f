"""Abstract full Steiner topologies.

Terminals of an ``n``-terminal topology are labelled ``0 .. n-1`` and the
``n-2`` branching labels are ``n .. 2n-3``.  The encoding is not canonical:
renumbering the branching labels gives another encoding of the same
topology, which realises the same tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import ParameterError

MAX_TERMINALS = 9


@dataclass(frozen=True)
class Topology:
    """Abstract tree: terminals of degree 1, branching labels of degree 3."""

    n_terminals: int
    n_steiner: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_terminals + self.n_steiner)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def count_full_topologies(n: int) -> int:
    """(2n-4)! / (2^(n-2) (n-2)!) full topologies on ``n`` labelled terminals."""
    if n < 3:
        raise ParameterError(f"count_full_topologies requires n >= 3, got {n}")
    return math.factorial(2 * n - 4) // (2 ** (n - 2) * math.factorial(n - 2))


def iter_full_topologies(n: int) -> Iterator[Topology]:
    """Yield every full topology on ``n`` terminals, each exactly once, as it is built.

    Branching label ``n`` joins terminals 0, 1 and 2; terminal ``k`` is then
    attached by splitting each edge of every topology on ``k`` terminals with
    the fresh label ``n + k - 2``.  Edges are sorted ``(min, max)`` pairs.
    """
    if not 3 <= n <= MAX_TERMINALS:
        raise ParameterError(f"iter_full_topologies requires 3 <= n <= {MAX_TERMINALS}")

    def grow(edges: list[tuple[int, int]], k: int) -> Iterator[list[tuple[int, int]]]:
        if k == n:
            yield edges
            return
        s = n + k - 2  # branching label created when terminal k is attached
        for i, (u, v) in enumerate(edges):
            rest = edges[:i] + edges[i + 1 :]
            yield from grow(rest + [(u, s), (s, v), (k, s)], k + 1)

    for edges in grow([(0, n), (1, n), (2, n)], 3):
        yield Topology(n, n - 2, tuple(sorted((u, v) if u < v else (v, u) for u, v in edges)))


def enumerate_full_topologies(n: int) -> list[Topology]:
    """All full topologies on ``n`` terminals (see ``iter_full_topologies``)."""
    return list(iter_full_topologies(n))
