"""Vertex permutations, small finite groups, and their action on edges.

A permutation is a graph and a table of vertex indices on it (vertex i
is graph.vertices()[i]), and permutation_from_cycles is the one entry
point that reads vertex objects.  A FiniteGroup holds one vertex table
per element, and builds a Permutation from one only for a witness.
gather composes a table with an index sequence in one C-level itemgetter
call, for the closure, the fixed-edge test and EdgeAction.images.
EdgeAction is a graph's integer edge keys (vertex i is row * m + col on
a grid, label - 1 on K_n; edge i < j is i * |V| + j), the one form every
decompose.Subgraph is stored in (walk_keys keys a Walk's index path,
keys() the edges of Subgraph.of_edges); edges() builds edge and vertex
objects back only for witnesses, orbit ids and Subgraph.edges.
EdgeAction.images transports the base through a group's tables,
splitting its keys into their ends once; image_keys transports through
one table, which is faster where that split would serve one table only
(the invariance loop).  |E| distinct images of a base certify
semiregularity and the transversal at once (see decompose).  The other
checks read the vertex tables directly: both ends of an edge lie on one
grid line (one line of all vertices on K_n), so automorphism_violation
and fixed_edge_witness walk the lines, and an element fixes an edge
setwise exactly when it fixes both ends or swaps them.  Only edge_orbits
images whole orbits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb
from operator import eq, itemgetter
from typing import Iterable, Iterator, NamedTuple

from .grid import DimensionError, GridEdge, GridGraph, GridVertex

DEFAULT_GROUP_CAP = 100_000

ROW_SHIFT = "row_shift"
DIAGONAL_SHIFT = "diagonal_shift"
EXPLICIT = "explicit"


class GroupTooLarge(RuntimeError):
    """The generated closure exceeded the configured element cap."""


def gather(indices):
    """A function taking a table t to the tuple of t[i] for i in ``indices``, in C.

    operator.itemgetter of one index returns the bare item, so that case
    is wrapped back into a 1-tuple.  ``indices`` must not be empty.
    """
    get = itemgetter(*indices)
    return get if len(indices) > 1 else lambda t: (get(t),)


class Permutation:
    """A bijection of a graph's vertices, stored as a table of vertex indices.

    Vertex i is ``graph.vertices()[i]`` and goes to vertex ``table[i]``.
    The constructor does not validate: each caller hands it a bijection.
    ``kind`` records how the permutation was built (row_shift,
    diagonal_shift or explicit) and only matters for serialization;
    equality and hashing depend on the graph and the table alone, so a
    composite that happens to equal a named shift compares equal to it.
    """

    __slots__ = ("graph", "table", "kind")

    def __init__(self, graph, table: tuple, kind: str = EXPLICIT):
        self.graph, self.table, self.kind = graph, table, kind

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.table == other.table and self.graph == other.graph

    def __hash__(self) -> int:
        return hash((self.graph, self.table))

    def __repr__(self) -> str:
        return f"Permutation({self.kind}, domain={len(self.table)})"


def row_shift(n: int, m: int) -> Permutation:
    """The grid automorphism (a, b) -> (a+1, b).  Generates a cyclic group of order n."""
    table = tuple([(i + m) % (n * m) for i in range(n * m)])
    return Permutation(GridGraph(n, m), table, ROW_SHIFT)


def diagonal_shift(n: int) -> Permutation:
    """The square-grid automorphism (a, b) -> (a+1, b+1) on K_n [box] K_n."""
    table = tuple([(a + 1) % n * n + (b + 1) % n for a in range(n) for b in range(n)])
    return Permutation(GridGraph(n, n), table, DIAGONAL_SHIFT)


def _lines(graph) -> list[range]:
    """Rows, then columns, as index ranges (K_n is one); their pairs, in order, order the edges."""
    if not isinstance(graph, GridGraph):
        return [range(graph.vertex_count)]
    n, m = graph.n, graph.m
    return [range(a * m, a * m + m) for a in range(n)] + [range(b, n * m, m) for b in range(m)]


def automorphism_violation(graph, perm: Permutation):
    """First edge, in the pair order of ``_lines``, whose image under ``perm`` is no edge, or None.

    Every bijection of a complete graph is an automorphism.  On a grid,
    a line's images form a clique only if they all share a row or all a
    column; the first line that fails has its pairs scanned for the witness.
    """
    if perm.graph != graph:
        raise ValueError(f"the permutation does not act on the vertices of {graph}")
    if not isinstance(graph, GridGraph):
        return None
    m = graph.m
    rows = [j // m for j in perm.table]
    cols = [j % m for j in perm.table]
    for line in _lines(graph):
        at = slice(line.start, line.stop, line.step)
        if len(set(rows[at])) > 1 and len(set(cols[at])) > 1:
            i, j = next(
                (i, j) for i, j in combinations(line, 2) if rows[i] != rows[j] and cols[i] != cols[j]
            )
            vertices = graph.vertices()
            return GridEdge(vertices[i], vertices[j])
    return None


def permutation_from_cycles(graph, cycles: Iterable[tuple]) -> Permutation:
    """An automorphism from disjoint cycles, e.g. [(1, 4, 7), (2, 5, 8), (3, 6, 9)]."""
    index = {v: i for i, v in enumerate(graph.vertices())}
    table = list(range(len(index)))
    seen: set = set()
    for cyc in cycles:
        for x in cyc:
            if x not in index:
                raise ValueError(f"{x} is not a vertex")
            if x in seen:
                raise ValueError(f"cycles are not disjoint at {x}")
            seen.add(x)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            table[index[a]] = index[b]
    perm = Permutation(graph, tuple(table))
    bad = automorphism_violation(graph, perm)
    if bad is not None:
        raise ValueError(f"not an automorphism: image of {bad} is not an edge")
    return perm


class FiniteGroup:
    """A generated permutation group on ``graph``, held as its elements' vertex tables.

    ``tables`` lists the identity first and then follows breadth-first
    discovery order over the generators, so iteration order is
    deterministic for a fixed generator sequence.
    """

    __slots__ = ("generators", "graph", "tables")

    def __init__(self, generators: tuple[Permutation, ...], tables: tuple[tuple, ...]):
        self.generators, self.tables = tuple(generators), tuple(tables)
        self.graph = self.generators[0].graph

    @property
    def order(self) -> int:
        return len(self.tables)

    def tables_on(self, graph) -> tuple[tuple, ...]:
        """``tables``; ValueError unless the group acts on the vertices of ``graph``."""
        if self.graph != graph:
            raise ValueError(f"the group does not act on the vertices of {graph} but of {self.graph}")
        return self.tables

    def non_identity(self) -> tuple[Permutation, ...]:
        """The non-identity elements in group order, built as Permutations when called."""
        return tuple([Permutation(self.graph, t) for t in self.tables[1:]])

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

    @property
    def generator_kind(self) -> str:
        kinds = {g.kind for g in self.generators}
        return kinds.pop() if kinds in ({ROW_SHIFT}, {DIAGONAL_SHIFT}) else EXPLICIT


def generate_group(generators: Iterable[Permutation], cap: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    """Close a generator list under composition.

    ValueError for a generator whose table does not hold one entry per
    vertex.  Raises GroupTooLarge as soon as the closure would exceed
    ``cap`` elements, so runaway generators fail fast instead of
    exhausting memory.  A generator equal to an earlier one adds no
    element and is not applied again; the group keeps every generator as
    given.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    graph = gens[0].graph
    if any(g.graph != graph for g in gens):
        raise ValueError("generators act on different vertex sets")
    ident = tuple(range(graph.vertex_count))
    for i, g in enumerate(gens):
        if len(g.table) != len(ident):
            raise ValueError(f"generator {i} has {len(g.table)} entries, not one per vertex of {graph}")
    tables = [g.table for g in dict.fromkeys(gens)]
    found = [ident]
    seen = {ident}
    queue = deque([ident])
    while queue:
        compose = gather(queue.popleft())
        for t in tables:
            nxt = compose(t)
            if nxt in seen:
                continue
            if len(found) + 1 > cap:
                raise GroupTooLarge(f"group closure exceeds cap of {cap} elements")
            seen.add(nxt)
            found.append(nxt)
            queue.append(nxt)
    return FiniteGroup(gens, found)


class EdgeAction:
    """A graph's edges as integer keys, for any group's action on them.

    Vertex i is row * m + col on a grid and label - 1 on a complete
    graph, and the edge on i < j has key i * |V| + j, so keys sort like
    GridEdge/LabelEdge objects.  The group enters only as vertex tables
    handed to image_keys and images; edge images are computed, never
    stored.  edges() builds validated edge objects, for witnesses,
    orbit ids and Subgraph.edges only: nothing else reads ``vertices``,
    the graph's vertex tuple.
    """

    __slots__ = ("graph", "size", "_grid")

    def __init__(self, graph):
        self.graph, self.size = graph, graph.vertex_count
        self._grid = (graph.n, graph.m) if isinstance(graph, GridGraph) else None

    @property
    def vertices(self) -> tuple:
        """The graph's vertex objects, vertex i at index i."""
        return self.graph.vertices()

    def key(self, e) -> int | None:
        """The key of an edge of the graph, or None for an edge outside it."""
        u, v = e.u, e.v
        if self._grid is None:
            ok = 1 <= u <= self.size and 1 <= v <= self.size
            return (u - 1) * self.size + v - 1 if ok else None
        n, m = self._grid
        if 0 <= u.row < n and 0 <= u.col < m and 0 <= v.row < n and 0 <= v.col < m:
            return (u.row * m + u.col) * self.size + v.row * m + v.col
        return None

    def keys(self, edges: tuple) -> list[int]:
        """Keys of edges of the graph, in order; ValueError for an edge outside it."""
        out = [self.key(e) for e in edges]
        if None in out:
            raise ValueError(f"{edges[out.index(None)]} is not an edge of {self.graph}")
        return out

    def edges(self, keys) -> tuple:
        """The edge objects of ``keys``, in order."""
        vertices, size, make = self.vertices, self.size, self.graph.edge
        return tuple([make(vertices[k // size], vertices[k % size]) for k in keys])

    def image_keys(self, table: tuple, keys) -> list[int]:
        """Keys of the images of ``keys`` under one vertex table (in no particular order)."""
        size = self.size
        return [
            a * size + b if (a := table[k // size]) < (b := table[k % size]) else b * size + a
            for k in keys
        ]

    def images(self, tables, keys) -> Iterator[list[int]]:
        """image_keys of ``keys`` under each of ``tables``, in order."""
        size = self.size
        first, second = gather([k // size for k in keys]), gather([k % size for k in keys])
        for t in tables:
            yield [a * size + b if a < b else b * size + a for a, b in zip(first(t), second(t))]

    def walk_keys(self, walk) -> list[int]:
        """Keys of a walk's edges, in walk order; an edge walked twice appears twice."""
        path, size = walk.path, self.size
        return [i * size + j if i < j else j * size + i for i, j in zip(path, path[1:])]

    def all_keys(self) -> Iterator[int]:
        """Every edge key of the graph, ascending: for each i, the rest of its row, then column."""
        size = self.size
        m = self._grid[1] if self._grid is not None else size
        ranges = []
        for i, row in zip(range(size), range(0, size * size, size)):
            ranges += (range(row + i + 1, row + i - i % m + m), range(row + i + m, row + size, m))
        return chain.from_iterable(ranges)

    def check_keys(self, keys) -> None:
        """ValueError naming the first of ``keys`` that is not the key of an edge of the graph."""
        size = self.size
        m = self._grid[1] if self._grid is not None else size
        for k in keys:
            i, j = divmod(k, size)
            if not 0 <= i < j < size or (i // m != j // m and (j - i) % m):
                name = f"{self.vertices[i]}-{self.vertices[j]}" if 0 <= i < size else f"key {k}"
                raise ValueError(f"{name} is not an edge of {self.graph}")


@dataclass(frozen=True, slots=True)
class EdgeOrbit:
    """One orbit of the edge action: a sort key plus the member keys, ascending."""

    id: tuple
    keys: tuple
    action: EdgeAction = field(repr=False, compare=False)


def edge_orbits(graph, group: FiniteGroup) -> list[EdgeOrbit]:
    """The orbits of the induced edge action, sorted by orbit id.

    Under a row-shift group on a grid, a horizontal orbit is labelled
    ("H", b1, b2) by its column pair and a vertical one ("V", t, b) by
    its folded row offset min(t, n-t) and column.  Any other action gets
    opaque ids ("O", least member edge).  Orbits partition the edge set.
    """
    tables, action = group.tables_on(graph), EdgeAction(graph)
    size, seen, found = action.size, set(), []
    labelled = isinstance(graph, GridGraph) and group.generator_kind == ROW_SHIFT
    m = graph.m if labelled else 0
    for k in action.all_keys():
        if k not in seen:
            i, j = divmod(k, size)
            orbit = {a * size + b if (a := t[i]) < (b := t[j]) else b * size + a for t in tables}
            seen.update(orbit)
            oid = k  # k, first in all_keys, is the least member, an opaque id's edge
            if labelled:  # k is at row 0, and its row offset d is 0 on a row, min(t, n-t) on a column
                d = (j - i) // m
                oid = ("V", d, i % m) if d else ("H", i % m, j % m)
            found.append((oid, tuple(sorted(orbit))))
    found.sort()
    if labelled:
        return [EdgeOrbit(oid, keys, action) for oid, keys in found]
    least = action.edges([k for k, _ in found])
    return [EdgeOrbit(("O", e), keys, action) for e, (_, keys) in zip(least, found)]


def fixed_edge_witness(graph, group: FiniteGroup):
    """A pair (element, edge) with the non-identity element fixing the edge, or None.

    Fixing is setwise: the element fixes both ends or swaps them.  The
    witness is the first such pair with the non-identity elements in
    group order and, for each, the edges in the row-then-column pair
    order of ``_lines``: the pair an exhaustive scan finds, i.e. on the
    first line that has one, the lesser of its first two fixed points and
    its first 2-cycle.
    Only the vertex tables are read, O(|G| * |V|) work.
    """
    tables, lines = group.tables_on(graph), _lines(graph)
    for t in tables[1:]:
        if sum(map(eq, gather(t)(t), range(len(t)))) < 2:
            continue  # a fixed edge needs two fixed points or a 2-cycle
        for line in lines:
            fixed = [i for i in line if t[i] == i][:2]
            pairs = [(i, t[i]) for i in line if i < t[i] and t[i] in line and t[t[i]] == i][:1]
            if len(fixed) == 2:
                pairs.append(tuple(fixed))
            if pairs:
                i, j = min(pairs)
                vertices = graph.vertices()
                return Permutation(graph, t), graph.edge(vertices[i], vertices[j])
    return None


def same_orbit_row_shift(e: GridEdge, f: GridEdge, n: int, m: int) -> bool:
    """Row-shift orbit equivalence decided by arithmetic, without enumeration.

    Writing each edge as an ordered pair (u, v), the edges lie in one
    orbit of the cyclic row-shift group exactly when either
      (a) u and u' share a column and v - u = v' - u', or
      (b) u shares a column with v' and v - u = u' - v',
    with differences taken componentwise mod (n, m).  The disjunction is
    independent of the chosen endpoint order.
    """
    if n < 2 or m < 2:
        raise DimensionError(f"grid needs n, m >= 2, got {n} x {m}")
    for e_ in (e, f):
        u, v = e_.u, e_.v
        if not (0 <= u.row < n and 0 <= u.col < m and 0 <= v.row < n and 0 <= v.col < m):
            raise ValueError(f"{e_} is not an edge of K_{n} box K_{m}")

    def diff(a: GridVertex, b: GridVertex) -> tuple[int, int]:
        return ((a.row - b.row) % n, (a.col - b.col) % m)

    de = diff(e.v, e.u)
    if e.u.col == f.u.col and de == diff(f.v, f.u):
        return True
    return e.u.col == f.v.col and de == diff(f.u, f.v)


class OrbitCensus(NamedTuple):
    horizontal_orbits: int
    vertical_orbits: int
    orbit_size: int


def orbit_census(n: int, m: int) -> OrbitCensus:
    """Closed-form orbit counts for the row-shift action on K_n [box] K_m, n odd.

    For odd n every orbit has size n; there are C(m,2) horizontal orbits
    (one per unordered column pair) and m(n-1)/2 vertical ones (one per
    column and folded offset).  Even n is rejected: the element shifting
    by n/2 fixes edges setwise and the counts above do not apply.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"census requires odd n >= 3, got n={n}")
    if m < 2:
        raise ValueError(f"census requires m >= 2, got m={m}")
    return OrbitCensus(comb(m, 2), m * (n - 1) // 2, n)
