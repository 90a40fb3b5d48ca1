"""Brute-force oracles for cross-checking library criteria.

Everything here works with plain tuples, dicts, and sets, or with the
library's edge objects, on purpose: the point is an independent route to
the same answers, not a fast one.  The object-based verifier below is the
library's verifier before it moved onto the integer edge action.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable

from rookpaths.decompose import (
    Decomposition,
    PartitionCheck,
    Subgraph,
    VerificationReport,
    subgraphs_isomorphic,
)
from rookpaths.groups import FiniteGroup, Permutation, fixed_edge_witness

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


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


def brute_fixed_edge_witness(graph, group):
    """The first (element, edge) with the non-identity element fixing the edge, or None.

    Exhaustive over all non-identity elements (in group order) and all
    edges (in graph order); fixing is setwise.
    """
    for g in group.non_identity():
        for e in graph.edges():
            if graph.edge(g(e.u), g(e.v)) == e:
                return g, e
    return None


def edge_image(perm, graph, e):
    """Image of an edge under a vertex permutation, in canonical form."""
    return graph.edge(perm(e.u), perm(e.v))


def brute_partition_witnesses(graph, blocks: Iterable[Subgraph]) -> PartitionCheck:
    """Do the blocks cover every edge exactly once?  Witnesses either way."""
    counts: Counter = Counter()
    for b in blocks:
        counts.update(b.edges)
    graph_edges = set(graph.edges())
    duplicated = tuple(sorted(e for e, c in counts.items() if c > 1))
    missing = tuple(sorted(e for e in graph_edges if e not in counts))
    foreign = tuple(sorted(e for e in counts if e not in graph_edges))
    ok = not duplicated and not missing and not foreign
    return PartitionCheck(ok, duplicated, missing, foreign)


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
            "foreign": list(partition.foreign),
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
        reached = {image_key(dec.blocks[0].edges, g) for g in group.elements}
        if reached != block_set:
            ok_transitive = False
            unreached = sorted(i for i, key in enumerate(block_keys) if key not in reached)
            witnesses["group_transitive"] = {"unreached_blocks": unreached}

    base_key = frozenset(dec.base.edges)
    stabilizer = sum(1 for g in group.elements if image_key(dec.base.edges, g) == base_key)
    ok_stabilizer = stabilizer == 1
    if not ok_stabilizer:
        witnesses["stabilizer_trivial"] = {"stabilizer_order": stabilizer}

    fixed = fixed_edge_witness(graph, group)
    ok_semiregular = fixed is None
    if not ok_semiregular:
        witnesses["semiregular"] = {"element": fixed[0], "edge": fixed[1]}

    return VerificationReport(
        is_partition=ok_partition,
        blocks_isomorphic_to_base=ok_iso,
        group_invariant=ok_invariant,
        group_transitive=ok_transitive,
        stabilizer_trivial=ok_stabilizer,
        semiregular=ok_semiregular,
        witnesses=witnesses,
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
