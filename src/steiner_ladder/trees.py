"""Embedded trees and terminal sets shared by the solver and constructions.

Terminals are plain ``complex`` values.  ``as_points`` is the one place that
reads them: it turns a ``TerminalSet`` or any point sequence into a tuple of
finite ``complex`` points, and ``TerminalSet`` stores what it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DegenerateInputError, ParameterError
from .geometry import convex_hull, reflect_across

TERMINAL = "terminal"
STEINER = "steiner"


@dataclass(frozen=True)
class EmbeddedTree:
    """Geometric tree: vertex coordinates, roles and an index-pair edge list."""

    vertices: tuple[complex, ...]
    roles: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    length: float

    @classmethod
    def build(
        cls,
        vertices: Sequence[complex],
        roles: Sequence[str],
        edges: Iterable[tuple[int, int]],
    ) -> "EmbeddedTree":
        verts = tuple(map(complex, vertices))
        rls = tuple(roles)
        if len(verts) != len(rls):
            raise ParameterError("vertex/role length mismatch")
        edge_t = tuple([(v, u) if v < u else (u, v) for u, v in edges])
        length = math.fsum([abs(verts[u] - verts[v]) for u, v in edge_t])
        return cls(verts, rls, edge_t, length)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.vertices]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * len(self.vertices)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def terminal_indices(self) -> list[int]:
        return [i for i, r in enumerate(self.roles) if r == TERMINAL]

    def diameter(self) -> float:
        """Largest vertex distance; the farthest pair are corners of the convex hull."""
        hull = convex_hull(self.vertices)
        return max((abs(p - q) for i, p in enumerate(hull) for q in hull[i + 1 :]), default=0.0)

    def _connected_acyclic(self) -> tuple[bool, bool]:
        """``(is_connected(), is_acyclic())`` from one union-find pass over the edges."""
        root = list(range(len(self.vertices)))
        joins = 0
        for u, v in self.edges:
            while root[u] != u:
                root[u] = u = root[root[u]]
            while root[v] != v:
                root[v] = v = root[root[v]]
            joins += u != v
            root[u] = v
        return joins >= len(self.vertices) - 1, joins == len(self.edges)

    def is_connected(self) -> bool:
        return self._connected_acyclic()[0]

    def is_acyclic(self) -> bool:
        """False when an edge joins two connected vertices, a self-loop or repeat included."""
        return self._connected_acyclic()[1]


def transform_tree(tree: EmbeddedTree, fn) -> EmbeddedTree:
    """Apply a pointwise map to every vertex, recomputing the length."""
    return EmbeddedTree.build([fn(v) for v in tree.vertices], tree.roles, tree.edges)


def scale_tree(tree: EmbeddedTree, ratio: float, center: complex = 0j) -> EmbeddedTree:
    c = complex(center)
    return transform_tree(tree, lambda z: c + ratio * (z - c))


def reflect_tree(
    tree: EmbeddedTree, axis_point: complex = 0j, axis_angle: float = 0.0
) -> EmbeddedTree:
    return transform_tree(tree, lambda z: reflect_across(z, axis_point, axis_angle))


def merge_trees(parts: Sequence[EmbeddedTree]) -> EmbeddedTree:
    """Union of trees sharing vertices; equal vertices are identified.

    Vertices are matched by exact equality, so a vertex shared by two parts
    must have bit-identical coordinates in both; distinct vertices are never
    fused, however close.  A shared vertex keeps the terminal role if it is a
    terminal in any part.
    """
    verts: list[complex] = []
    roles: list[str] = []
    edges: list[tuple[int, int]] = []
    index_of: dict[complex, int] = {}

    def locate(z: complex, role: str) -> int:
        i = index_of.get(z)
        if i is None:
            i = index_of[z] = len(verts)
            verts.append(z)
            roles.append(role)
        elif role == TERMINAL:
            roles[i] = TERMINAL
        return i

    for part in parts:
        index = [locate(v, r) for v, r in zip(part.vertices, part.roles)]
        for u, v in part.edges:
            a, b = index[u], index[v]
            if a != b:
                edges.append((a, b))
    return EmbeddedTree.build(verts, roles, edges)


@dataclass(frozen=True)
class TerminalSet:
    """Ordered labelled terminals, optionally tagged with a generating family."""

    labels: tuple[str, ...]
    points: tuple[complex, ...]
    family: dict | None = field(default=None, compare=False)
    segment: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", as_points(self.points))
        if len(self.labels) != len(self.points):
            raise ParameterError("labels/points length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ParameterError("terminal labels must be unique")
        if self.segment is not None:
            for lab in self.segment:
                if lab not in self.labels:
                    raise ParameterError(f"segment endpoint {lab!r} is not a terminal")

    @classmethod
    def of(cls, points: Sequence[complex], labels: Sequence[str] | None = None) -> "TerminalSet":
        pts = tuple(points)
        if labels is None:
            labels = tuple(f"t{i}" for i in range(len(pts)))
        return cls(tuple(labels), pts)

    def __len__(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def point(self, label: str) -> complex:
        return self.points[self.index(label)]

    def select(self, labels: Sequence[str]) -> "TerminalSet":
        pts = tuple(self.point(lab) for lab in labels)
        return TerminalSet(tuple(labels), pts)


def as_points(terminals) -> tuple[complex, ...]:
    """Coerce a TerminalSet or a plain point sequence into finite complex points."""
    if isinstance(terminals, TerminalSet):
        return terminals.points  # checked when the set was made
    pts = tuple(complex(p) for p in terminals)
    for z in pts:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DegenerateInputError("non-finite terminal coordinate")
    return pts
