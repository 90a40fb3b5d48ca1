"""Cartesian products of complete graphs, viewed as toroidal grids.

The graph K_n [box] K_m has vertex set Z_n x Z_m, and two vertices are
adjacent exactly when they agree in one coordinate.  Each row induces a
copy of K_m (its edges are "horizontal"), each column a copy of K_n
("vertical"), so the edge count is n*C(m,2) + m*C(n,2).

Graphs are kept implicit: the two dimensions determine everything, a
shape's vertices are one shared tuple, and edges are enumerated on
demand.  Inside the pipeline a vertex is its index row * m + col and a
step a (drow, dcol) int pair; the objects here are for witnesses and
output.  All values here are immutable and all operations are pure.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator, NamedTuple

VERTEX_TUPLE_SHAPES = 8  # grid shapes whose vertex tuples are kept


class DimensionError(ValueError):
    """A grid dimension outside the supported range."""


class Validated:
    """The first base of a NamedTuple that validates in ``__new__``: its ``_make``, and so its
    ``_replace``, build through the class instead of around it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class GridVertex(NamedTuple):
    """A point of Z_n x Z_m; ordering is lexicographic by (row, col)."""

    row: int
    col: int

    def __str__(self) -> str:
        return f"({self.row},{self.col})"


class GridEdge(Validated, NamedTuple("GridEdge", [("u", GridVertex), ("v", GridVertex)])):
    """Unordered pair of grid vertices that agree in exactly one coordinate.

    Endpoints are stored in lexicographic order, so equal edges compare
    and hash equal and collections of edges behave as sets of unordered
    pairs.  Pairs that differ in both coordinates (or none) are rejected.
    """

    __slots__ = ()

    def __new__(cls, u: GridVertex, v: GridVertex):
        if u == v:
            raise ValueError(f"degenerate edge at {u}")
        if u.row != v.row and u.col != v.col:
            raise ValueError(f"{u}-{v} is not a grid edge")
        if v < u:
            u, v = v, u
        return super().__new__(cls, u, v)

    def __str__(self) -> str:
        return f"{self.u}-{self.v}"


class GridGraph(Validated, NamedTuple("GridGraph", [("n", int), ("m", int)])):
    """K_n [box] K_m.  Holds only the dimensions."""

    __slots__ = ()

    def __new__(cls, n: int, m: int):
        if n < 2 or m < 2:
            raise DimensionError(f"grid needs n, m >= 2, got {n} x {m}")
        return super().__new__(cls, n, m)

    @property
    def vertex_count(self) -> int:
        return self.n * self.m

    @property
    def edge_count(self) -> int:
        return self.n * comb(self.m, 2) + self.m * comb(self.n, 2)

    @lru_cache(maxsize=VERTEX_TUPLE_SHAPES)
    def vertices(self) -> tuple[GridVertex, ...]:
        """Every vertex, vertex i at (i // m, i % m); one shared tuple per grid shape."""
        return tuple([GridVertex(a, b) for a in range(self.n) for b in range(self.m)])

    def edges(self) -> Iterator[GridEdge]:
        """Every edge once: horizontal by (row, col, col'), then vertical by (col, row, row')."""
        for a in range(self.n):
            for b1 in range(self.m):
                for b2 in range(b1 + 1, self.m):
                    yield GridEdge(GridVertex(a, b1), GridVertex(a, b2))
        for b in range(self.m):
            for a1 in range(self.n):
                for a2 in range(a1 + 1, self.n):
                    yield GridEdge(GridVertex(a1, b), GridVertex(a2, b))

    def edge(self, u: GridVertex, v: GridVertex) -> GridEdge:
        """Canonical edge on two vertices of this graph."""
        if not all(0 <= w.row < self.n and 0 <= w.col < self.m for w in (u, v)):
            raise ValueError(f"{u}-{v} is not inside the {self.n} x {self.m} grid")
        return GridEdge(u, v)

    def __str__(self) -> str:
        return f"K_{self.n} box K_{self.m}"
