"""Vertex permutations, small finite groups, and their induced edge action.

Groups here are tiny (cyclic shifts and the like), so elements are
materialized as explicit mapping tables and the closure is computed by
breadth-first multiplication.  Edge orbits are enumerated directly, one
image per element per orbit, i.e. |E| images in total when the action
is semiregular.  Semiregularity is read off the orbit sizes by the
orbit-stabilizer theorem (|orbit| * |stabilizer| = |G|): the action is
semiregular exactly when every edge orbit has |G| edges, and only edges
of shorter orbits are searched for a fixing element.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .grid import GridEdge, GridGraph, GridVertex

__all__ = [
    "DEFAULT_GROUP_CAP",
    "EdgeOrbit",
    "FiniteGroup",
    "GroupTooLarge",
    "OrbitCensus",
    "Permutation",
    "automorphism_violation",
    "diagonal_shift",
    "edge_image",
    "edge_orbits",
    "explicit_permutation",
    "fixed_edge_witness",
    "generate_group",
    "identity_permutation",
    "is_semiregular_on_edges",
    "orbit_census",
    "permutation_from_cycles",
    "row_shift",
    "same_orbit_row_shift",
]

DEFAULT_GROUP_CAP = 100_000

ROW_SHIFT = "row_shift"
DIAGONAL_SHIFT = "diagonal_shift"
EXPLICIT = "explicit"


class GroupTooLarge(RuntimeError):
    """The generated closure exceeded the configured element cap."""


class Permutation:
    """A bijection of a finite vertex set.

    ``kind`` records how the permutation was built (row_shift,
    diagonal_shift or explicit) and only matters for serialization;
    equality and hashing depend on the mapping alone, so a composite
    that happens to equal a named shift compares equal to it.
    """

    __slots__ = ("kind", "n", "m", "_map", "_hash")

    def __init__(self, mapping, kind: str = EXPLICIT, n: int | None = None, m: int | None = None):
        table = dict(mapping)
        if set(table.values()) != set(table.keys()):
            raise ValueError("mapping is not a bijection on its domain")
        self._map = table
        self.kind = kind
        self.n = n
        self.m = m
        self._hash = hash(frozenset(table.items()))

    def __call__(self, v):
        return self._map[v]

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({self.kind}, domain={len(self._map)})"

    @property
    def domain(self):
        return self._map.keys()

    @property
    def is_identity(self) -> bool:
        return all(v == w for v, w in self._map.items())

    def mapping(self) -> dict:
        return dict(self._map)

    def then(self, other: Permutation) -> Permutation:
        """Composite: apply ``self`` first, then ``other``."""
        if self._map.keys() != other._map.keys():
            raise ValueError("cannot compose permutations of different domains")
        return Permutation({v: other._map[w] for v, w in self._map.items()}, n=self.n, m=self.m)

    def inverse(self) -> Permutation:
        return Permutation({w: v for v, w in self._map.items()}, n=self.n, m=self.m)


def row_shift(n: int, m: int) -> Permutation:
    """The grid automorphism (a, b) -> (a+1, b).  Generates a cyclic group of order n."""
    graph = GridGraph(n, m)
    mapping = {v: GridVertex((v.row + 1) % n, v.col) for v in graph.vertices()}
    return Permutation(mapping, kind=ROW_SHIFT, n=n, m=m)


def diagonal_shift(n: int) -> Permutation:
    """The square-grid automorphism (a, b) -> (a+1, b+1) on K_n [box] K_n."""
    graph = GridGraph(n, n)
    mapping = {v: GridVertex((v.row + 1) % n, (v.col + 1) % n) for v in graph.vertices()}
    return Permutation(mapping, kind=DIAGONAL_SHIFT, n=n, m=n)


def identity_permutation(graph) -> Permutation:
    return Permutation({v: v for v in graph.vertices()})


def automorphism_violation(graph, perm: Permutation):
    """First edge whose image under ``perm`` is not an edge, or None."""
    for e in graph.edges():
        try:
            graph.edge(perm(e.u), perm(e.v))
        except ValueError:
            return e
    return None


def explicit_permutation(graph, mapping) -> Permutation:
    """A validated automorphism of ``graph`` given as a vertex mapping."""
    perm = Permutation(mapping)
    if set(perm.domain) != set(graph.vertices()):
        raise ValueError("mapping domain does not match the vertex set")
    bad = automorphism_violation(graph, perm)
    if bad is not None:
        raise ValueError(f"not an automorphism: image of {bad} is not an edge")
    return perm


def permutation_from_cycles(graph, cycles: Iterable[tuple]) -> Permutation:
    """An automorphism from disjoint cycles, e.g. [(1, 4, 7), (2, 5, 8), (3, 6, 9)]."""
    mapping = {v: v for v in graph.vertices()}
    seen: set = set()
    for cyc in cycles:
        for x in cyc:
            if x not in mapping:
                raise ValueError(f"{x} is not a vertex")
            if x in seen:
                raise ValueError(f"cycles are not disjoint at {x}")
            seen.add(x)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            mapping[a] = b
    perm = Permutation(mapping)
    bad = automorphism_violation(graph, perm)
    if bad is not None:
        raise ValueError(f"not an automorphism: image of {bad} is not an edge")
    return perm


class FiniteGroup:
    """All elements of a generated permutation group.

    ``elements`` lists the identity first and then follows breadth-first
    discovery order over the generators, so iteration order is
    deterministic for a fixed generator sequence.
    """

    __slots__ = ("generators", "elements")

    def __init__(self, generators: tuple[Permutation, ...], elements: tuple[Permutation, ...]):
        self.generators = tuple(generators)
        self.elements = tuple(elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    def non_identity(self) -> tuple[Permutation, ...]:
        return self.elements[1:]

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

    @property
    def generator_kind(self) -> str:
        kinds = {g.kind for g in self.generators}
        if kinds == {ROW_SHIFT}:
            return ROW_SHIFT
        if kinds == {DIAGONAL_SHIFT}:
            return DIAGONAL_SHIFT
        return EXPLICIT


def generate_group(generators: Iterable[Permutation], cap: int = DEFAULT_GROUP_CAP) -> FiniteGroup:
    """Close a generator list under composition.

    Raises GroupTooLarge as soon as the closure would exceed ``cap``
    elements, so runaway generators fail fast instead of exhausting
    memory.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator (use identity_permutation for the trivial group)")
    domain = gens[0].domain
    for g in gens[1:]:
        if g.domain != domain:
            raise ValueError("generators act on different vertex sets")
    ident = Permutation({v: v for v in domain}, n=gens[0].n, m=gens[0].m)
    elements = [ident]
    seen = {ident}
    queue = deque([ident])
    while queue:
        cur = queue.popleft()
        for g in gens:
            nxt = cur.then(g)
            if nxt in seen:
                continue
            if len(elements) + 1 > cap:
                raise GroupTooLarge(f"group closure exceeds cap of {cap} elements")
            seen.add(nxt)
            elements.append(nxt)
            queue.append(nxt)
    return FiniteGroup(gens, tuple(elements))


def edge_image(perm: Permutation, graph, e):
    """Image of an edge under a vertex permutation, in canonical form."""
    return graph.edge(perm(e.u), perm(e.v))


@dataclass(frozen=True, slots=True)
class EdgeOrbit:
    """One orbit of the edge action: a sort key plus the member edges."""

    id: tuple
    edges: tuple

    @property
    def size(self) -> int:
        return len(self.edges)


def _row_shift_orbit_id(n: int, e: GridEdge) -> tuple:
    if e.u.row == e.v.row:
        b1, b2 = sorted((e.u.col, e.v.col))
        return ("H", b1, b2)
    t = (e.v.row - e.u.row) % n
    t = min(t, n - t)
    return ("V", t, e.u.col)


def edge_orbits(graph, group: FiniteGroup) -> list[EdgeOrbit]:
    """The orbits of the induced edge action, sorted by orbit id.

    Under a row-shift group on a grid, a horizontal orbit is labelled
    ("H", b1, b2) by its column pair and a vertical one ("V", t, b) by
    its folded row offset min(t, n-t) and column.  Any other action gets
    opaque ids ("O", least member edge).  Orbits partition the edge set.
    """
    structured = isinstance(graph, GridGraph) and group.generator_kind == ROW_SHIFT
    seen: set = set()
    orbits: list[EdgeOrbit] = []
    for e in graph.edges():
        if e in seen:
            continue
        members = {edge_image(g, graph, e) for g in group.elements}
        ordered = tuple(sorted(members))
        seen.update(ordered)
        if structured:
            oid = _row_shift_orbit_id(graph.n, ordered[0])
        else:
            oid = ("O", ordered[0])
        orbits.append(EdgeOrbit(oid, ordered))
    orbits.sort(key=lambda o: o.id)
    return orbits


def fixed_edge_witness(graph, group: FiniteGroup, orbits: list[EdgeOrbit] | None = None):
    """A pair (element, edge) with the non-identity element fixing the edge, or None.

    Fixing is setwise: an element that swaps the two endpoints fixes the
    edge.  By orbit-stabilizer an edge has a non-trivial stabilizer
    exactly when its orbit has fewer than |G| edges, so None is returned
    as soon as every orbit is full and otherwise only edges of short
    orbits are tested.  The witness is the first fixed pair when the
    non-identity elements are taken in group order and, for each, the
    edges in ``graph.edges()`` order: the pair an exhaustive scan finds.
    ``orbits`` are the edge_orbits of (graph, group) when the caller
    already has them.
    """
    if orbits is None:
        orbits = edge_orbits(graph, group)
    short = {e for o in orbits if o.size < group.order for e in o.edges}
    if not short:
        return None
    candidates = [e for e in graph.edges() if e in short]
    for g in group.non_identity():
        for e in candidates:
            if edge_image(g, graph, e) == e:
                return g, e
    return None


def is_semiregular_on_edges(graph, group: FiniteGroup) -> bool:
    """True iff no non-identity element maps any edge to itself."""
    return fixed_edge_witness(graph, group) is None


def same_orbit_row_shift(e: GridEdge, f: GridEdge, n: int, m: int) -> bool:
    """Row-shift orbit equivalence decided by arithmetic, without enumeration.

    Writing each edge as an ordered pair (u, v), the edges lie in one
    orbit of the cyclic row-shift group exactly when either
      (a) u and u' share a column and v - u = v' - u', or
      (b) u shares a column with v' and v - u = u' - v',
    with differences taken componentwise mod (n, m).  The disjunction is
    independent of the chosen endpoint order.
    """
    grid = GridGraph(n, m)
    for e_ in (e, f):
        if not (grid.contains(e_.u) and grid.contains(e_.v)):
            raise ValueError(f"{e_} is not an edge of {grid}")

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
