"""Brute-force oracles for cross-checking library criteria.

Everything here works with plain tuples, dicts, and sets, or with the
library's edge objects, on purpose: the point is an independent route to
the same answers, not a fast one.  The object-based verifier, parser and
automorphism scan below are the library's own before they moved onto the
integer edge action; the parser still reads walk bases through Step and
GridVertex objects.  Step is the library's step type, and
walk_vertex_objects and walk_edge_objects a walk's object views, as they
were before steps became (drow, dcol) int pairs and a Walk its index
path.  The quadratic
orbit-conflict scan (on Step objects or pairs) is the library's
before it became one pass, the pair scan on vertex tables is
automorphism_violation's before it tested each grid line as a whole,
the orbit-path precondition checks are the builder's before the
bijection test decided the common case, walk_edge_set is how a walk
became a base before walks were keyed, and blocks_to_text and
dot_for_blocks are the edge text and DOT writers as they were on edge
objects, before they read key arrays.  permutation_of and apply are a
Permutation's vertex-object constructor and call, as they were before a
permutation became a graph and a table of vertex indices.
brute_isomorphic tries every vertex bijection, the reference for the
backtracking search in subgraphs_isomorphic; adjacency is a subgraph's
neighbour sets on vertex objects, as Subgraph.adjacency() gave them.  tuple_closure is
generate_group as it was before it gathered with itemgetter, composing
one ``tuple(map(t.__getitem__, cur))`` at a time.  walk_image is
Walk.image, a walk's image under one vertex table, as it was before split
carried the base's cut to every block instead of imaging each block walk.
brute_edge_orbits closes each edge's orbit on edge objects and labels it
from the paper's definition, the reference for edge_orbits' ids and order.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

from rookpaths.decompose import (
    CompleteGraph,
    Decomposition,
    PartitionCheck,
    PreconditionFailed,
    Subgraph,
    TransversalCheck,
    VerificationReport,
    subgraphs_isomorphic,
)
from rookpaths.grid import GridEdge, GridGraph, GridVertex
from rookpaths.groups import (
    DEFAULT_GROUP_CAP,
    DIAGONAL_SHIFT,
    EXPLICIT,
    ROW_SHIFT,
    FiniteGroup,
    GroupTooLarge,
    EdgeOrbit,
    Permutation,
    diagonal_shift,
    edge_orbits,
    fixed_edge_witness,
    gather,
    generate_group,
    row_shift,
)
from rookpaths.serialize import (
    MAX_ACTION_ENTRIES,
    MAX_EDGES,
    MAX_VERTICES,
    PALETTE,
    SchemaError,
)
from rookpaths.staircase import Walk, walk_from_array

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


@dataclass(frozen=True, slots=True)
class Step:
    """Difference between consecutive walk vertices.

    A step moves along a single grid line, so exactly one component may
    be nonzero once reduced modulo the grid dimensions.  Reduction needs
    the dimensions and therefore happens where they are known (see
    walk_from_array); only the always-degenerate (0, 0) is rejected here.
    """

    drow: int
    dcol: int

    def __post_init__(self) -> None:
        if self.drow == 0 and self.dcol == 0:
            raise ValueError("degenerate step (0,0)")


def _normalize_steps(arr: Iterable, n: int, m: int) -> list[tuple[int, int]]:
    steps = []
    for i, s in enumerate(arr):
        raw = (s.drow, s.dcol) if isinstance(s, Step) else tuple(s)
        dr, dc = raw[0] % n, raw[1] % m
        if (dr == 0) == (dc == 0):
            raise ValueError(
                f"step {i + 1} = {raw} does not move along one grid line mod ({n},{m})"
            )
        steps.append((dr, dc))
    return steps


def walk_vertex_objects(walk) -> tuple:
    """A walk's vertex objects, read from its index path row * m + col."""
    return tuple(GridVertex(*divmod(i, walk.m)) for i in walk.path)


def walk_edge_objects(walk) -> list:
    """A walk's edge objects in walk order, one per pair of consecutive vertices."""
    vertices = walk_vertex_objects(walk)
    return [GridEdge(a, b) for a, b in zip(vertices, vertices[1:])]


def walk_image(walk: Walk, table: tuple) -> Walk:
    """The walk through the images of its vertices under one vertex table."""
    return Walk(walk.n, walk.m, gather(walk.path)(table))


def brute_grid_edges(n, m):
    """All edges of K_n box K_m as frozensets of raw (row, col) tuples."""
    edges = set()
    for a in range(n):
        for b1 in range(m):
            for b2 in range(b1 + 1, m):
                edges.add(frozenset({(a, b1), (a, b2)}))
    for b in range(m):
        for a1 in range(n):
            for a2 in range(a1 + 1, n):
                edges.add(frozenset({(a1, b), (a2, b)}))
    return edges


def brute_row_shift(n, m):
    return {(a, b): ((a + 1) % n, b) for a in range(n) for b in range(m)}


def brute_diagonal_shift(n):
    return {(a, b): ((a + 1) % n, (b + 1) % n) for a in range(n) for b in range(n)}


def permutation_of(graph, mapping) -> Permutation:
    """The permutation of ``graph`` given as a vertex-object mapping.

    ValueError, as the library's constructor raised before a permutation
    became a table of indices, unless ``mapping`` is a bijection of the
    graph's vertices.
    """
    vertices = graph.vertices()
    images = dict(mapping)
    index = {v: i for i, v in enumerate(vertices)}
    table = tuple(index.get(images.get(v), -1) for v in vertices)
    if len(images) != len(vertices) or -1 in table or len(set(table)) != len(table):
        raise ValueError("mapping is not a bijection on its domain")
    return Permutation(graph, table)


def apply(perm: Permutation, v):
    """The image of vertex object ``v`` under ``perm``; KeyError for a vertex outside its graph."""
    graph = perm.graph
    vertices = graph.vertices()
    i = v.row * graph.m + v.col if isinstance(graph, GridGraph) else v - 1
    if not 0 <= i < len(vertices) or vertices[i] != v:
        raise KeyError(v)
    return vertices[perm.table[i]]


def perm_edge(perm, edge):
    return frozenset(perm[v] for v in edge)


def brute_orbits(edges, perms):
    """Partition of `edges` into orbits under the group generated by `perms`.

    Closure by breadth-first search; returns a set of frozensets of edges.
    """
    remaining = set(edges)
    orbits = set()
    while remaining:
        seed = next(iter(remaining))
        orbit = {seed}
        frontier = [seed]
        while frontier:
            e = frontier.pop()
            for p in perms:
                img = perm_edge(p, e)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        orbits.add(frozenset(orbit))
        remaining -= orbit
    return orbits


def brute_edge_orbits(graph, group: FiniteGroup) -> list[tuple]:
    """edge_orbits as (id, ascending member keys) pairs, in id order, on edge objects.

    Each orbit is an edge's closure under the generators.  Under row
    shifts on a grid the id is the paper's label, ("H", b1, b2) for the
    columns of a row edge and ("V", min(t, n - t), b) for a column edge
    t rows long, and every member must give the same one; any other
    group gets ("O", least edge).  A key is i * |V| + j for the vertex
    indices i < j of the edge's ends.
    """
    vertices = graph.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    shifts = isinstance(graph, GridGraph) and {g.kind for g in group.generators} == {ROW_SHIFT}

    def label(e):
        if e.u.row == e.v.row:
            return ("H", e.u.col, e.v.col)
        t = (e.v.row - e.u.row) % graph.n
        return ("V", min(t, graph.n - t), e.u.col)

    remaining, found = set(graph.edges()), []
    while remaining:
        orbit = {min(remaining)}
        frontier = list(orbit)
        while frontier:
            e = frontier.pop()
            for g in group.generators:
                image = graph.edge(apply(g, e.u), apply(g, e.v))
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        remaining -= orbit
        labels = {label(e) for e in orbit} if shifts else {("O", min(orbit))}
        assert len(labels) == 1, labels
        keys = sorted(index[e.u] * len(vertices) + index[e.v] for e in orbit)
        found.append((labels.pop(), tuple(keys)))
    return sorted(found)


def group_elements(group: FiniteGroup) -> list[Permutation]:
    """Every element of ``group`` as a Permutation on its graph, in group order."""
    return [Permutation(group.graph, t) for t in group.tables]


def brute_fixed_edge_witness(graph, group):
    """The first (element, edge) with the non-identity element fixing the edge, or None.

    Exhaustive over all non-identity elements (in group order) and all
    edges (in graph order); fixing is setwise.
    """
    for g in group.non_identity():
        for e in graph.edges():
            if graph.edge(apply(g, e.u), apply(g, e.v)) == e:
                return g, e
    return None


def edge_image(perm, graph, e):
    """Image of an edge under a vertex permutation, in canonical form."""
    return graph.edge(apply(perm, e.u), apply(perm, e.v))


def brute_partition_witnesses(graph, blocks: Iterable[Subgraph]) -> PartitionCheck:
    """Do the blocks cover every edge exactly once?  Witnesses either way."""
    counts: Counter = Counter()
    for b in blocks:
        counts.update(b.edges)
    graph_edges = set(graph.edges())
    foreign = sorted(e for e in counts if e not in graph_edges)
    if foreign:
        raise ValueError(f"{foreign[0]} is not an edge of {graph}")
    duplicated = tuple(sorted(e for e, c in counts.items() if c > 1))
    missing = tuple(sorted(e for e in graph_edges if e not in counts))
    return PartitionCheck(not duplicated and not missing, duplicated, missing)


def adjacency(sub: Subgraph) -> dict:
    """Each vertex of an edge of ``sub`` with the set of its neighbours, as vertex objects."""
    adj: dict = {}
    for e in sub.edges:
        adj.setdefault(e.u, set()).add(e.v)
        adj.setdefault(e.v, set()).add(e.u)
    return adj


def brute_isomorphic(a: Subgraph, b: Subgraph) -> bool:
    """Is some bijection of the vertices an isomorphism?  Tries every one, up to 8 vertices."""
    pairs_a = [(e.u, e.v) for e in a.edges]
    edges_b = {frozenset((e.u, e.v)) for e in b.edges}
    verts_a = list({v for pair in pairs_a for v in pair})
    verts_b = list({v for pair in edges_b for v in pair})
    if len(verts_a) > 8:
        raise ValueError(f"{len(verts_a)} vertices, more than the oracle's 8")
    if len(verts_a) != len(verts_b) or len(pairs_a) != len(edges_b):
        return False
    for images in permutations(verts_b):
        image = dict(zip(verts_a, images))
        if all(frozenset((image[u], image[v])) in edges_b for u, v in pairs_a):
            return True
    return False


def brute_verify_decomposition(graph, group: FiniteGroup, dec: Decomposition) -> VerificationReport:
    """Recheck every structural claim of a decomposition by enumeration.

    Nothing about ``dec`` is trusted: the edge partition, the block
    shapes, invariance and transitivity under the group, the base
    stabilizer, and semiregularity of the action are each recomputed
    from scratch.  Every failed flag carries a concrete witness.
    """
    witnesses: dict = {}

    partition = brute_partition_witnesses(graph, dec.blocks)
    ok_partition = partition.ok
    if not ok_partition:
        witnesses["is_partition"] = {
            "duplicated": list(partition.duplicated),
            "missing": list(partition.missing),
            "foreign": [],
        }

    ok_iso = True
    for idx, block in enumerate(dec.blocks):
        if not subgraphs_isomorphic(block, dec.base):
            ok_iso = False
            witnesses["blocks_isomorphic_to_base"] = {"block_index": idx}
            break

    block_keys = [frozenset(b.edges) for b in dec.blocks]
    block_set = set(block_keys)

    def image_key(sub_edges, g: Permutation) -> frozenset:
        return frozenset(edge_image(g, graph, e) for e in sub_edges)

    ok_invariant = True
    for idx, block in enumerate(dec.blocks):
        for gdx, gen in enumerate(group.generators):
            if image_key(block.edges, gen) not in block_set:
                ok_invariant = False
                witnesses["group_invariant"] = {"block_index": idx, "generator_index": gdx}
                break
        if not ok_invariant:
            break

    ok_transitive = True
    if dec.blocks:
        reached = {image_key(dec.base.edges, g) for g in group_elements(group)}
        if reached != block_set:
            ok_transitive = False
            unreached = sorted(i for i, key in enumerate(block_keys) if key not in reached)
            witnesses["group_transitive"] = {"unreached_blocks": unreached}

    base_key = frozenset(dec.base.edges)
    stabilizer = sum(1 for g in group_elements(group) if image_key(dec.base.edges, g) == base_key)
    ok_stabilizer = stabilizer == 1
    if not ok_stabilizer:
        witnesses["stabilizer_trivial"] = {"stabilizer_order": stabilizer}

    fixed = fixed_edge_witness(graph, group)
    ok_semiregular = fixed is None
    if not ok_semiregular:
        witnesses["semiregular"] = {"element": fixed[0], "edge": fixed[1]}

    flags = {
        "is_partition": ok_partition,
        "blocks_isomorphic_to_base": ok_iso,
        "group_invariant": ok_invariant,
        "group_transitive": ok_transitive,
        "stabilizer_trivial": ok_stabilizer,
        "semiregular": ok_semiregular,
    }
    # a report stores only witnesses: each flag must hold exactly when it has none
    for name, ok in flags.items():
        assert ok == (name not in witnesses), name
    return VerificationReport(witnesses)


def orbit_transversal_check(sub: Subgraph, orbits: list[EdgeOrbit]) -> TransversalCheck:
    """Exactly-one-edge-per-orbit test; counts are aligned with ``orbits``.

    Edges of the subgraph that lie in no orbit at all make the check
    fail regardless of the counts.
    """
    if not orbits:
        return TransversalCheck(False, ())
    key = orbits[0].action.key
    position = {k: pos for pos, orbit in enumerate(orbits) for k in orbit.keys}
    counts = [0] * len(orbits)
    stray = False
    for e in sub.edges:
        pos = position.get(key(e))
        if pos is None:
            stray = True
            continue
        counts[pos] += 1
    ok = not stray and all(c == 1 for c in counts)
    return TransversalCheck(ok, tuple(counts))


def orbit_path_preconditions(graph, group: FiniteGroup, base: Subgraph) -> None:
    """The builder's precondition checks on the orbits: PreconditionFailed or None."""
    orbits = edge_orbits(graph, group)
    fixed = fixed_edge_witness(graph, group)
    if fixed is not None:
        g, e = fixed
        raise PreconditionFailed(
            f"group is not semiregular on edges: an element fixes {e}", witness=fixed
        )
    check = orbit_transversal_check(base, orbits)
    if not check.ok:
        bad = [orbits[i].id for i, c in enumerate(check.counts) if c != 1]
        raise PreconditionFailed(
            f"base subgraph is not an orbit transversal: counts off in {len(bad)} orbits",
            witness=(bad, check.counts),
        )


def brute_group_elements(n, m, gens):
    """All permutation dicts generated by `gens` on the n x m vertex set."""
    ident = {(a, b): (a, b) for a in range(n) for b in range(m)}
    seen = {tuple(sorted(ident.items()))}
    elements = [ident]
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            composed = {v: g[cur[v]] for v in cur}
            key = tuple(sorted(composed.items()))
            if key not in seen:
                seen.add(key)
                elements.append(composed)
                frontier.append(composed)
    return elements


def tuple_closure(generators, cap: int) -> list[tuple]:
    """generate_group's element tables, in its breadth-first order; GroupTooLarge past ``cap``."""
    tables = [g.table for g in dict.fromkeys(generators)]
    ident = tuple(range(len(tables[0])))
    found, seen, queue = [ident], {ident}, deque([ident])
    while queue:
        cur = queue.popleft()
        for t in tables:
            nxt = tuple(map(t.__getitem__, cur))
            if nxt in seen:
                continue
            if len(found) + 1 > cap:
                raise GroupTooLarge(f"group closure exceeds cap of {cap} elements")
            seen.add(nxt)
            found.append(nxt)
            queue.append(nxt)
    return found


def walk_vertices(start, steps, n, m):
    """Vertex list of a walk, raw modular arithmetic only."""
    a, b = start
    out = [(a % n, b % m)]
    for dr, dc in steps:
        a, b = (a + dr) % n, (b + dc) % m
        out.append((a, b))
    return out


def vertices_distinct(start, steps, n, m):
    vs = walk_vertices(start, steps, n, m)
    return len(set(vs)) == len(vs)


def no_zero_run(steps, n, m):
    """True iff no contiguous nonempty run of steps sums to (0,0) mod (n,m)."""
    ell = len(steps)
    for i in range(ell):
        sr = sc = 0
        for j in range(i, ell):
            sr = (sr + steps[j][0]) % n
            sc = (sc + steps[j][1]) % m
            if sr == 0 and sc == 0:
                return False
    return True


def walk_edge_orbits_distinct(start, steps, n, m):
    """True iff the walk's edges, counted by position, lie in pairwise
    distinct orbits of the row shift. Orbits come from raw closure."""
    vs = walk_vertices(start, steps, n, m)
    shift = brute_row_shift(n, m)
    orbit_of = {}
    ids = []
    for u, v in zip(vs, vs[1:]):
        e = frozenset({u, v})
        if e not in orbit_of:
            orbit = {e}
            frontier = [e]
            while frontier:
                cur = frontier.pop()
                img = perm_edge(shift, cur)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
            rep = frozenset(orbit)
            for member in orbit:
                orbit_of[member] = rep
        ids.append(orbit_of[e])
    return len(set(ids)) == len(ids)


def walk_edge_set(walk) -> list:
    """A walk's edges, sorted, or the ValueError a walk that repeats an edge raised.

    This is the edge-object path bases were built on before walks were
    keyed: sort the walk's edge objects and name the least one that
    occurs twice, as ``duplicate edge (a,b)-(c,d)``.
    """
    edges = sorted(walk_edge_objects(walk))
    for a, b in zip(edges, edges[1:]):
        if a == b:
            raise ValueError(f"duplicate edge {a}")
    return edges


def _vertex_dot_id(v) -> str:
    if isinstance(v, GridVertex):
        return f"{v.row},{v.col}"
    return str(v)


def edges_to_text(edges: Iterable) -> str:
    """One edge per line, canonical endpoint first: (a,b)-(c,d) or u-v."""
    return "".join(f"{e}\n" for e in edges)


def blocks_to_text(blocks) -> str:
    """Edge text for several blocks, with a comment header per block."""
    chunks = []
    for i, b in enumerate(blocks):
        chunks.append(f"# block {i}\n")
        chunks.append(edges_to_text(b.edges))
    return "".join(chunks)


def dot_for_blocks(blocks) -> str:
    edge_lists = [b.edges for b in blocks]
    vertices = sorted({v for edges in edge_lists for e in edges for v in (e.u, e.v)})
    lines = ["graph decomposition {", "  node [shape=circle fontsize=10];"]
    for v in vertices:
        lines.append(f'  "{_vertex_dot_id(v)}";')
    for i, edges in enumerate(edge_lists):
        color = PALETTE[i % len(PALETTE)]
        for e in edges:
            lines.append(
                f'  "{_vertex_dot_id(e.u)}" -- "{_vertex_dot_id(e.v)}" [color="{color}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def path_edge_set(edges):
    """True iff `edges` (iterable of frozenset pairs) forms a simple path."""
    edges = list(edges)
    if len(set(edges)) != len(edges) or not edges:
        return False
    degree = {}
    adjacency = {}
    for e in edges:
        u, v = tuple(e)
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    if len(degree) != len(edges) + 1:
        return False
    ends = [v for v, d in degree.items() if d == 1]
    if len(ends) != 2 or any(d > 2 for d in degree.values()):
        return False
    seen = {ends[0]}
    frontier = [ends[0]]
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(degree)


def random_step_arrays(count, seed=1729, max_len=30, max_dim=7):
    """Seeded corpus of valid step arrays on assorted grids.

    Yields (n, m, steps) where every step moves along exactly one line.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_dim)
        m = rng.randint(2, max_dim)
        ell = rng.randint(1, max_len)
        steps = []
        for _ in range(ell):
            if rng.random() < 0.5:
                steps.append((rng.randint(1, n - 1), 0))
            else:
                steps.append((0, rng.randint(1, m - 1)))
        yield n, m, tuple(steps)


def object_automorphism_violation(graph, perm: Permutation):
    """First edge whose image under ``perm`` is not an edge, or None."""
    for e in graph.edges():
        try:
            graph.edge(apply(perm, e.u), apply(perm, e.v))
        except ValueError:
            return e
    return None


def brute_automorphism_violation(graph, perm: Permutation):
    """The same on the vertex tables: every pair of every line, rows first, then columns.

    Both ends of an edge lie on one line, and its image is an edge
    exactly when the two image indices share a row or a column.  This
    is the library's scan before it tested each line as a whole.
    """
    if perm.graph != graph:
        raise ValueError(f"the permutation does not act on the vertices of {graph}")
    if not isinstance(graph, GridGraph):
        return None
    n, m, vertices = graph.n, graph.m, graph.vertices()
    rows = [j // m for j in perm.table]
    cols = [j % m for j in perm.table]
    lines = [range(a * m, a * m + m) for a in range(n)] + [range(b, n * m, m) for b in range(m)]
    for line in lines:
        for p, i in enumerate(line):
            for j in line[p + 1 :]:
                if rows[i] != rows[j] and cols[i] != cols[j]:
                    return graph.edge(vertices[i], vertices[j])
    return None


def brute_first_orbit_conflict(arr: Sequence, n: int, m: int | None = None):
    """First pair of step indices (0-based) whose edges share a row-shift orbit, or None.

    ``arr`` holds Step objects or (drow, dcol) pairs.  For the walk edges
    e_i = {v_{i-1}, v_i}, edges i+1 and j+1 lie in one orbit of the
    cyclic row-shift group exactly when either
      (a) the column components of steps i+1 .. j sum to 0 and
          a_{i+1} == a_{j+1}, or
      (b) the column components of steps i+1 .. j+1 sum to 0 and
          a_{i+1} == -a_{j+1},
    all arithmetic mod (n, m).  This is a pure step-array criterion; no
    orbit is ever enumerated.
    """
    if m is None:
        m = n
    steps = _normalize_steps(arr, n, m)
    neg = [((-dr) % n, (-dc) % m) for dr, dc in steps]
    cols = [0]
    c = 0
    for _, dc in steps:
        c = (c + dc) % m
        cols.append(c)
    ell = len(steps)
    for i in range(ell):
        si = steps[i]
        ci = cols[i]
        for j in range(i + 1, ell):
            if cols[j] == ci and si == steps[j]:
                return i, j
            if cols[j + 1] == ci and si == neg[j]:
                return i, j
    return None


# ------------------------------------------------- the object parser
# (a base walk that repeats an edge escapes it as Subgraph's ValueError)


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _get(obj: dict, key: str, path: str):
    _expect(isinstance(obj, dict), path, "expected an object")
    _expect(key in obj, path, f"missing key {key!r}")
    return obj[key]


def _int_at(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    return value


def _parse_graph(obj, path: str):
    kind = _get(obj, "kind", path)
    if kind == "grid":
        n = _int_at(_get(obj, "n", path), f"{path}.n")
        m = _int_at(_get(obj, "m", path), f"{path}.m")
        _expect(n >= 2 and m >= 2, path, f"grid needs n, m >= 2, got {n} x {m}")
        graph = GridGraph(n, m)
    elif kind == "complete":
        n = _int_at(_get(obj, "n", path), f"{path}.n")
        _expect(n >= 1, f"{path}.n", f"complete graph needs n >= 1, got {n}")
        graph = CompleteGraph(n)
    else:
        raise SchemaError(f"{path}.kind", f"unknown graph kind {kind!r}")
    # both graph types hold only their dimensions, so the counts are arithmetic
    _expect(
        graph.vertex_count <= MAX_VERTICES,
        path,
        f"{graph} has {graph.vertex_count} vertices, more than the cap of {MAX_VERTICES}",
    )
    _expect(
        graph.edge_count <= MAX_EDGES,
        path,
        f"{graph} has {graph.edge_count} edges, more than the cap of {MAX_EDGES}",
    )
    return graph


def _parse_vertex(graph, value, path: str):
    if isinstance(graph, GridGraph):
        _expect(
            isinstance(value, list) and len(value) == 2, path, "expected a [row, col] pair"
        )
        row = _int_at(value[0], f"{path}[0]")
        col = _int_at(value[1], f"{path}[1]")
        v = GridVertex(row, col)
        _expect(0 <= v.row < graph.n and 0 <= v.col < graph.m, path, f"vertex {v} outside {graph}")
        return v
    label = _int_at(value, path)
    _expect(1 <= label <= graph.n, path, f"vertex {label} outside {graph}")
    return label


def _parse_edge(graph, value, path: str):
    _expect(isinstance(value, list) and len(value) == 2, path, "expected an endpoint pair")
    u = _parse_vertex(graph, value[0], f"{path}[0]")
    v = _parse_vertex(graph, value[1], f"{path}[1]")
    try:
        return graph.edge(u, v)
    except ValueError as err:
        raise SchemaError(path, str(err)) from None


def _parse_step(value, path: str) -> Step:
    _expect(isinstance(value, list) and len(value) == 2, path, "expected a [drow, dcol] pair")
    dr = _int_at(value[0], f"{path}[0]")
    dc = _int_at(value[1], f"{path}[1]")
    try:
        return Step(dr, dc)
    except ValueError as err:
        raise SchemaError(path, str(err)) from None


def _parse_permutation(graph, obj, path: str) -> Permutation:
    kind = _get(obj, "kind", path)
    if kind == ROW_SHIFT:
        _expect(isinstance(graph, GridGraph), path, "row_shift needs a grid graph")
        return row_shift(graph.n, graph.m)
    if kind == DIAGONAL_SHIFT:
        _expect(isinstance(graph, GridGraph), path, "diagonal_shift needs a grid graph")
        _expect(graph.n == graph.m, path, "diagonal_shift needs a square grid")
        return diagonal_shift(graph.n)
    if kind == EXPLICIT:
        entries = _get(obj, "map", path)
        _expect(isinstance(entries, list), f"{path}.map", "expected a list of pairs")
        mapping = {}
        for i, pair in enumerate(entries):
            ppath = f"{path}.map[{i}]"
            _expect(isinstance(pair, list) and len(pair) == 2, ppath, "expected a [vertex, image] pair")
            v = _parse_vertex(graph, pair[0], f"{ppath}[0]")
            w = _parse_vertex(graph, pair[1], f"{ppath}[1]")
            _expect(v not in mapping, ppath, f"vertex {v} mapped twice")
            mapping[v] = w
        _expect(
            set(mapping) == set(graph.vertices()),
            f"{path}.map",
            "map does not cover the vertex set exactly",
        )
        try:
            return permutation_of(graph, mapping)
        except ValueError as err:
            raise SchemaError(f"{path}.map", str(err)) from None
    raise SchemaError(f"{path}.kind", f"unknown permutation kind {kind!r}")


def _parse_group(graph, obj, path: str) -> FiniteGroup:
    kind = _get(obj, "kind", path)
    order = _int_at(_get(obj, "order", path), f"{path}.order")
    _expect(order >= 1, f"{path}.order", "group order must be positive")
    if kind == ROW_SHIFT:
        _expect(isinstance(graph, GridGraph), path, "row_shift needs a grid graph")
        gens = [row_shift(graph.n, graph.m)]
    elif kind == DIAGONAL_SHIFT:
        _expect(isinstance(graph, GridGraph), path, "diagonal_shift needs a grid graph")
        _expect(graph.n == graph.m, path, "diagonal_shift needs a square grid")
        gens = [diagonal_shift(graph.n)]
    elif kind == EXPLICIT:
        raw = _get(obj, "generators", path)
        _expect(isinstance(raw, list) and raw, f"{path}.generators", "expected a non-empty list")
        gens = [
            _parse_permutation(graph, g, f"{path}.generators[{i}]") for i, g in enumerate(raw)
        ]
    else:
        raise SchemaError(f"{path}.kind", f"unknown group kind {kind!r}")
    cap = min(DEFAULT_GROUP_CAP, MAX_ACTION_ENTRIES // graph.vertex_count)
    try:
        group = generate_group(gens, cap=cap)
    except GroupTooLarge as err:
        raise SchemaError(path, str(err)) from None
    _expect(
        group.order == order,
        f"{path}.order",
        f"declared order {order} but the generators give order {group.order}",
    )
    return group


def _parse_base(graph, obj, path: str) -> Subgraph:
    _expect(isinstance(obj, dict), path, "expected an object")
    if "start" in obj or "steps" in obj:
        _expect(
            isinstance(graph, GridGraph), path, "walk bases are only defined on grid graphs"
        )
        start = _parse_vertex(graph, _get(obj, "start", path), f"{path}.start")
        raw = _get(obj, "steps", path)
        _expect(isinstance(raw, list) and raw, f"{path}.steps", "expected a non-empty list")
        steps = [_parse_step(s, f"{path}.steps[{i}]") for i, s in enumerate(raw)]
        try:
            walk = walk_from_array(
                (start.row, start.col), _normalize_steps(steps, graph.n, graph.m), graph.n, graph.m
            )
        except ValueError as err:
            raise SchemaError(f"{path}.steps", str(err)) from None
        return Subgraph.of_edges(graph, walk_edge_objects(walk), walk)
    if "edges" in obj:
        return _parse_subgraph_edges(graph, obj["edges"], f"{path}.edges")
    raise SchemaError(path, "base needs either start+steps or edges")


def _parse_subgraph_edges(graph, value, path: str) -> Subgraph:
    _expect(isinstance(value, list) and value, path, "expected a non-empty edge list")
    edges = [_parse_edge(graph, e, f"{path}[{i}]") for i, e in enumerate(value)]
    try:
        return Subgraph.of_edges(graph, edges)
    except ValueError as err:
        raise SchemaError(path, str(err)) from None


def _parse_report_stub(obj, path: str) -> None:
    """The embedded report is never trusted, but it must be well-formed."""
    _expect(isinstance(obj, dict), path, "expected an object")
    for flag in VerificationReport.FLAGS:
        value = _get(obj, flag, path)
        _expect(isinstance(value, bool), f"{path}.{flag}", "expected a boolean")


def object_parse_decomposition(data) -> tuple:
    """Rebuild (graph, group, decomposition) from serialized form.

    ``data`` is a JSON string or an already-decoded object.  The
    embedded report is type-checked but otherwise ignored; callers are
    expected to re-verify.  Explicit generators are checked to be
    bijections here; whether they are automorphisms is a mathematical
    question left to the caller.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as err:
            raise SchemaError("$", f"invalid JSON: {err}") from None
    _expect(isinstance(data, dict), "$", "expected a top-level object")
    graph = _parse_graph(_get(data, "graph", "$"), "$.graph")
    group = _parse_group(graph, _get(data, "group", "$"), "$.group")
    base = _parse_base(graph, _get(data, "base", "$"), "$.base")
    raw_blocks = _get(data, "blocks", "$")
    _expect(isinstance(raw_blocks, list) and raw_blocks, "$.blocks", "expected a non-empty list")
    blocks = []
    for i, entry in enumerate(raw_blocks):
        bpath = f"$.blocks[{i}]"
        blocks.append(_parse_subgraph_edges(graph, _get(entry, "edges", bpath), f"{bpath}.edges"))
    _parse_report_stub(_get(data, "report", "$"), "$.report")
    dec = Decomposition(tuple(blocks), group, base)
    return graph, group, dec
