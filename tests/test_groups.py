"""Permutation groups, edge orbits, and the semiregularity check."""

import random
from collections import Counter

import pytest

from rookpaths.decompose import (
    K9_GENERATOR_CYCLES,
    CompleteGraph,
    PreconditionFailed,
    Subgraph,
    build_orbit_decomposition,
)
from rookpaths.grid import DimensionError, GridGraph, GridVertex
from rookpaths.groups import (
    EdgeOrbit,
    GroupTooLarge,
    Permutation,
    automorphism_violation,
    diagonal_shift,
    edge_orbits,
    fixed_edge_witness,
    generate_group,
    orbit_census,
    permutation_from_cycles,
    row_shift,
    same_orbit_row_shift,
)

from oracles import (
    apply,
    brute_automorphism_violation,
    brute_diagonal_shift,
    brute_fixed_edge_witness,
    brute_grid_edges,
    brute_group_elements,
    brute_orbits,
    brute_row_shift,
    group_elements,
    edge_image,
    permutation_of,
    tuple_closure,
)


def identity(graph):
    return permutation_of(graph, {v: v for v in graph.vertices()})


def compose(a, b):
    """The table of ``a`` followed by ``b``."""
    return tuple(b.table[i] for i in a.table)


def test_row_shift_acts_and_cycles():
    c = row_shift(3, 3)
    assert apply(c, GridVertex(0, 1)) == GridVertex(1, 1)
    assert apply(c, GridVertex(2, 1)) == GridVertex(0, 1)
    group = generate_group([c])
    # c, c^2, c^3 = identity: the closure has order 3 and lists c right after the identity
    assert group.order == 3
    elements = group_elements(group)
    assert elements[1] == c != elements[0]
    assert compose(c, elements[2]) == group.tables[0]


def test_diagonal_shift_moves_both_coordinates():
    d = diagonal_shift(4)
    assert apply(d, GridVertex(3, 3)) == GridVertex(0, 0)
    assert apply(d, GridVertex(3, 2)) == GridVertex(0, 3)
    assert generate_group([d]).order == 4


def test_inverse_and_identity():
    g = GridGraph(5, 5)
    group = generate_group([row_shift(5, 5)])
    elements = group_elements(group)
    assert elements[0] == identity(g)
    assert group.tables[0] == tuple(range(25))
    # every element has its inverse in the group
    tables = set(group.tables)
    for h in elements:
        assert any(compose(h, k) == group.tables[0] for k in elements)
        assert all(compose(h, k) in tables for k in elements)
    assert generate_group([identity(g)]).order == 1


def test_group_order_matches_brute_force():
    for n in (2, 3, 5):
        grp = generate_group([row_shift(n, n)])
        assert grp.order == n
        assert len(brute_group_elements(n, n, [brute_row_shift(n, n)])) == n
    both = generate_group([row_shift(3, 3), diagonal_shift(3)])
    oracle = brute_group_elements(
        3, 3, [brute_row_shift(3, 3), brute_diagonal_shift(3)]
    )
    assert both.order == len(oracle) == 9


def test_group_cap():
    with pytest.raises(GroupTooLarge):
        generate_group([row_shift(7, 7), diagonal_shift(7)], cap=10)


def test_repeated_generators_keep_closure_and_generators():
    r, d = row_shift(3, 3), diagonal_shift(3)
    grid = GridGraph(3, 3)
    # equal to r, built apart from it
    copy = permutation_of(grid, {v: apply(r, v) for v in grid.vertices()})
    once = generate_group([r, d])
    repeated = generate_group([r, d, copy, r, d])
    # the same elements in the same breadth-first order; every generator is kept as given
    assert repeated.tables == once.tables
    assert repeated.generators == (r, d, copy, r, d)


def closure_corpus(rng):
    """(label, generators): K_1, K_2, shifts, k9, and seeded explicit lists on K_5..K_9.

    Each explicit generator cycles a random subset of the vertices, so
    the groups range from order 2 to far past the test's cap; each list
    repeats some generators and holds the identity somewhere.
    """
    k1, k2, k9 = CompleteGraph(1), CompleteGraph(2), CompleteGraph(9)
    swap = permutation_of(k2, {1: 2, 2: 1})
    yield "K_1", [identity(k1)]
    yield "K_2 swap", [swap]
    yield "K_2 identity, swap, swap", [identity(k2), swap, swap]
    for n in range(2, 8):
        yield f"row {n}x3", [row_shift(n, 3)]
        yield f"diagonal {n}", [diagonal_shift(n)]
    yield "row and diagonal 5", [row_shift(5, 5), diagonal_shift(5)]
    yield "k9", [permutation_from_cycles(k9, K9_GENERATOR_CYCLES)]
    for n in range(5, 10):
        graph = CompleteGraph(n)
        for _ in range(12):
            gens = []
            for _ in range(rng.randint(1, 3)):
                cycle = rng.sample(range(n), rng.randint(2, n))
                table = list(range(n))
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    table[a] = b
                gens.append(Permutation(graph, tuple(table)))
            gens += rng.choices(gens, k=rng.randint(1, 2))
            gens.insert(rng.randint(0, len(gens)), identity(graph))
            yield f"K_{n} {[g.table for g in gens]}", gens


def test_closure_matches_tuple_closure():
    cap = 2000
    outcomes = Counter()
    for label, gens in closure_corpus(random.Random(2024)):
        try:
            expected = tuple_closure(gens, cap)
        except GroupTooLarge:
            with pytest.raises(GroupTooLarge):
                generate_group(gens, cap=cap)
            outcomes["over cap"] += 1
            continue
        group = generate_group(gens, cap=cap)
        assert list(group.tables) == expected, label
        assert group.generators == tuple(gens)
        # both stop at exactly the group order
        assert generate_group(gens, cap=len(expected)).order == len(expected)
        if len(expected) > 1:
            with pytest.raises(GroupTooLarge):
                tuple_closure(gens, len(expected) - 1)
            with pytest.raises(GroupTooLarge):
                generate_group(gens, cap=len(expected) - 1)
        outcomes["closed"] += 1
    assert outcomes["over cap"] >= 5 and outcomes["closed"] >= 40, outcomes


def test_generate_group_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        generate_group([])
    with pytest.raises(ValueError):
        generate_group([row_shift(3, 3), row_shift(4, 4)])
    # domains with equal vertex counts: K_2 box K_3 and K_3 box K_2
    with pytest.raises(ValueError, match="different vertex sets"):
        generate_group([row_shift(2, 3), row_shift(3, 2)])
    # a table of the wrong length, covering every vertex, and mixed lengths
    k3 = CompleteGraph(3)
    with pytest.raises(ValueError, match="generator 0 has 4 entries, not one per vertex of K_3"):
        generate_group([Permutation(k3, (1, 1, 2, 0))])
    with pytest.raises(ValueError, match="generator 1 has 2 entries, not one per vertex of K_3"):
        generate_group([Permutation(k3, (1, 2, 0)), Permutation(k3, (1, 0))])
    # a group on K_2 box K_3 does not act on K_3 box K_2
    group, other = generate_group([row_shift(2, 3)]), GridGraph(3, 2)
    base = Subgraph.of_edges(other, [next(other.edges())])
    for call in (lambda: edge_orbits(other, group), lambda: build_orbit_decomposition(other, group, base)):
        with pytest.raises(ValueError, match="does not act on the vertices of K_3 box K_2"):
            call()


def test_automorphism_violation_witness():
    g = GridGraph(2, 2)
    # transposing a single vertex pair breaks some edge image
    mapping = {
        GridVertex(0, 0): GridVertex(0, 0),
        GridVertex(0, 1): GridVertex(0, 1),
        GridVertex(1, 0): GridVertex(1, 1),
        GridVertex(1, 1): GridVertex(1, 0),
    }
    assert automorphism_violation(g, row_shift(2, 2)) is None
    bad = permutation_of(g, mapping)
    witness = automorphism_violation(g, bad)
    assert witness is not None
    with pytest.raises(ValueError, match="not an automorphism"):
        permutation_from_cycles(g, [(GridVertex(1, 0), GridVertex(1, 1))])


def test_permutation_from_cycles_k9():
    k9 = CompleteGraph(9)
    p = permutation_from_cycles(k9, ((1, 4, 7), (2, 5, 8), (3, 6, 9)))
    assert apply(p, 1) == 4 and apply(p, 7) == 1 and apply(p, 9) == 3
    assert generate_group([p]).order == 3
    with pytest.raises(ValueError):
        permutation_from_cycles(k9, ((1, 2), (2, 3)))
    with pytest.raises(ValueError, match="^4 is not a vertex$"):
        permutation_from_cycles(CompleteGraph(3), [(1, 4)])


def test_edge_image():
    g = GridGraph(3, 3)
    c = row_shift(3, 3)
    e = g.edge(GridVertex(2, 0), GridVertex(2, 1))
    assert edge_image(c, g, e) == g.edge(GridVertex(0, 0), GridVertex(0, 1))


def test_orbit_counts_small_grids():
    # frozen counts: horizontal C(m,2), vertical m(n-1)/2, size n
    grid33 = edge_orbits(GridGraph(3, 3), generate_group([row_shift(3, 3)]))
    assert len(grid33) == 6
    assert {o.size for o in grid33} == {3}
    grid34 = edge_orbits(GridGraph(3, 4), generate_group([row_shift(3, 4)]))
    assert len(grid34) == 10
    assert {o.size for o in grid34} == {3}


def test_orbits_match_brute_closure():
    for n, m in [(2, 3), (3, 3), (3, 4), (4, 4), (5, 4), (6, 3)]:
        g = GridGraph(n, m)
        grp = generate_group([row_shift(n, m)])
        got = {
            frozenset(
                frozenset({(e.u.row, e.u.col), (e.v.row, e.v.col)})
                for e in orbit.action.edges(orbit.keys)
            )
            for orbit in edge_orbits(g, grp)
        }
        assert got == brute_orbits(brute_grid_edges(n, m), [brute_row_shift(n, m)])


def test_orbit_ids_structured_for_row_shift():
    orbits = edge_orbits(GridGraph(5, 5), generate_group([row_shift(5, 5)]))
    kinds = {o.id[0] for o in orbits}
    assert kinds == {"H", "V"}
    # vertical ids fold the row difference: only 1..(n-1)/2 appear
    assert {o.id[1] for o in orbits if o.id[0] == "V"} == {1, 2}


def test_orbit_ids_generic_otherwise():
    orbits = edge_orbits(GridGraph(4, 4), generate_group([diagonal_shift(4)]))
    assert all(o.id[0] == "O" for o in orbits)
    assert len(orbits) == 12
    assert {o.size for o in orbits} == {4}


def test_k9_orbits():
    k9 = CompleteGraph(9)
    p = permutation_from_cycles(k9, ((1, 4, 7), (2, 5, 8), (3, 6, 9)))
    orbits = edge_orbits(k9, generate_group([p]))
    assert len(orbits) == 12
    assert {o.size for o in orbits} == {3}
    oracle = brute_orbits(
        {frozenset(e) for e in [(u, v) for u in range(1, 10) for v in range(u + 1, 10)]},
        [{**{1: 4, 4: 7, 7: 1, 2: 5, 5: 8, 8: 2, 3: 6, 6: 9, 9: 3}}],
    )
    assert len(oracle) == 12


def test_trivial_group_is_semiregular():
    g = GridGraph(4, 4)
    trivial = generate_group([identity(g)])
    assert trivial.order == 1
    assert fixed_edge_witness(g, trivial) is None


def test_semiregular_witnesses():
    assert fixed_edge_witness(GridGraph(3, 3), generate_group([row_shift(3, 3)])) is None
    assert fixed_edge_witness(GridGraph(7, 4), generate_group([row_shift(7, 4)])) is None
    # even n: c^(n/2) swaps the endpoints of a vertical edge at distance n/2
    witness = fixed_edge_witness(GridGraph(2, 3), generate_group([row_shift(2, 3)]))
    assert witness is not None
    elem, edge = witness
    assert elem != identity(GridGraph(2, 3))
    assert edge_image(elem, GridGraph(2, 3), edge) == edge
    witness4 = fixed_edge_witness(GridGraph(4, 4), generate_group([row_shift(4, 4)]))
    assert witness4 is not None
    assert fixed_edge_witness(GridGraph(4, 4), generate_group([diagonal_shift(4)])) is None


def test_fixed_edge_witness_rejects_a_group_on_another_graph():
    # equal vertex counts (K_2 box K_3 and K_3 box K_2) and unequal ones
    with pytest.raises(ValueError, match="does not act on the vertices of K_3 box K_2"):
        fixed_edge_witness(GridGraph(3, 2), generate_group([row_shift(2, 3)]))
    with pytest.raises(ValueError, match="does not act on the vertices of K_4 box K_4"):
        fixed_edge_witness(GridGraph(4, 4), generate_group([row_shift(3, 3)]))


def witness_corpus():
    """(label, graph, group) pairs: semiregular actions and actions with fixed edges."""
    for n in range(2, 8):
        for m in range(2, 8):
            yield f"row {n}x{m}", GridGraph(n, m), generate_group([row_shift(n, m)])
    for n in range(2, 7):
        yield f"diagonal {n}", GridGraph(n, n), generate_group([diagonal_shift(n)])
    g4 = GridGraph(4, 4)
    yield "trivial 4x4", g4, generate_group([identity(g4)])
    k9 = CompleteGraph(9)
    yield "k9", k9, generate_group([permutation_from_cycles(k9, K9_GENERATOR_CYCLES)])
    yield from permuted_grids(random.Random(7))
    yield from relabelled_complete_graphs(random.Random(11))


def permuted_grids(rng, cap=200):
    """Seeded row x column permutations of grids up to 6 x 6, some transposed, some with the row shift.

    Unlike the shifts these have fixed points, so a line can hold both a
    pair of fixed ends and a swapped pair.  Groups over ``cap`` elements
    are skipped.
    """
    for n in range(2, 7):
        for m in range(2, 7):
            for extra in ("", "transpose", "row shift", "transpose, row shift"):
                if "transpose" in extra and n != m:
                    continue
                graph = GridGraph(n, m)
                for _ in range(3):
                    rows, cols = rng.sample(range(n), n), rng.sample(range(m), m)
                    if "transpose" in extra:
                        image = lambda v: GridVertex(rows[v.col], cols[v.row])  # noqa: E731
                    else:
                        image = lambda v: GridVertex(rows[v.row], cols[v.col])  # noqa: E731
                    gens = [permutation_of(graph, {v: image(v) for v in graph.vertices()})]
                    if "row shift" in extra:
                        gens.append(row_shift(n, m))
                    try:
                        group = generate_group(gens, cap=cap)
                    except GroupTooLarge:
                        continue
                    yield f"rows {rows} cols {cols} {extra} {n}x{m}", graph, group


def relabelled_complete_graphs(rng):
    """Seeded label permutations of K_n for n <= 7, each generating a cyclic group."""
    for n in range(2, 8):
        graph = CompleteGraph(n)
        for _ in range(6):
            labels = rng.sample(range(1, n + 1), n)
            yield f"labels {labels}", graph, generate_group([permutation_of(graph, zip(range(1, n + 1), labels))])


def automorphism_corpus(rng):
    """(label, graph, permutation): every element of witness_corpus, then seeded bijections.

    The group elements (shifts, row x column permutations, transposes,
    label permutations of K_n) are automorphisms.  Random bijections of
    grids up to 6 x 6, and row shifts with two images swapped, mostly
    are not, and their first broken line falls anywhere.
    """
    for label, graph, group in witness_corpus():
        for g in group_elements(group):
            yield label, graph, g
    for n in range(2, 7):
        for m in range(2, 7):
            graph = GridGraph(n, m)
            vs = graph.vertices()
            for _ in range(10):
                shuffled = rng.sample(range(n * m), n * m)
                swapped = list(row_shift(n, m).table)
                i, j = rng.sample(range(n * m), 2)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                for label, table in ((f"random {shuffled}", shuffled), (f"{i}, {j} swapped", swapped)):
                    yield f"{n}x{m} {label}", graph, permutation_of(graph, zip(vs, (vs[k] for k in table)))


def test_automorphism_violation_matches_pair_scan():
    outcomes = Counter()
    for label, graph, perm in automorphism_corpus(random.Random(1009)):
        witness = automorphism_violation(graph, perm)
        assert witness == brute_automorphism_violation(graph, perm), label
        outcomes[witness is None] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 400, outcomes


def test_fixed_edge_witness_matches_exhaustive_scan():
    seen_free = 0
    ends = set()
    for label, graph, group in witness_corpus():
        expected = brute_fixed_edge_witness(graph, group)
        assert fixed_edge_witness(graph, group) == expected, label
        if expected is None:
            seen_free += 1
        else:
            g, e = expected
            ends.add("fixed" if apply(g, e.u) == e.u else "swapped")
    # the corpus exercises both outcomes, and fixed edges of both kinds
    assert seen_free and ends == {"fixed", "swapped"}


def test_non_identity_lists_the_witness_where_tables_hold_its_table():
    with_witness = 0
    for label, graph, group in witness_corpus():
        witness = fixed_edge_witness(graph, group)
        if witness is not None:
            g = witness[0]
            assert list(group.non_identity()).index(g) + 1 == group.tables.index(g.table), label
            with_witness += 1
    assert with_witness


def test_build_rejects_non_semiregular_with_scan_witness():
    g = GridGraph(4, 4)
    group = generate_group([row_shift(4, 4)])
    base = Subgraph.of_edges(g, (g.edge(GridVertex(0, 0), GridVertex(0, 1)),))
    with pytest.raises(PreconditionFailed) as info:
        build_orbit_decomposition(g, group, base)
    expected = brute_fixed_edge_witness(g, group)
    assert expected is not None
    assert info.value.witness == expected


def test_same_orbit_spot_values():
    g = GridGraph(5, 5)
    assert same_orbit_row_shift(
        g.edge(GridVertex(0, 0), GridVertex(0, 2)),
        g.edge(GridVertex(3, 0), GridVertex(3, 2)),
        5, 5,
    )
    # row differences 2 and 3 fold to the same orbit
    assert same_orbit_row_shift(
        g.edge(GridVertex(0, 0), GridVertex(2, 0)),
        g.edge(GridVertex(1, 0), GridVertex(4, 0)),
        5, 5,
    )
    assert not same_orbit_row_shift(
        g.edge(GridVertex(0, 0), GridVertex(1, 0)),
        g.edge(GridVertex(0, 1), GridVertex(1, 1)),
        5, 5,
    )


def test_same_orbit_criterion_matches_enumeration():
    for n in (3, 5, 7, 9):
        for m in range(2, 10):
            g = GridGraph(n, m)
            grp = generate_group([row_shift(n, m)])
            rep = {}
            for orbit in edge_orbits(g, grp):
                for e in orbit.action.edges(orbit.keys):
                    rep[e] = orbit.id
            edges = list(g.edges())
            ids = [rep[e] for e in edges]
            for e, e_id in zip(edges, ids):
                for f, f_id in zip(edges, ids):
                    assert same_orbit_row_shift(e, f, n, m) == (e_id == f_id), (
                        n, m, str(e), str(f),
                    )


def test_same_orbit_validates_membership():
    g = GridGraph(5, 5)
    e = g.edge(GridVertex(0, 0), GridVertex(0, 4))
    with pytest.raises(ValueError):
        same_orbit_row_shift(e, e, 3, 3)
    with pytest.raises(DimensionError, match=r"^grid needs n, m >= 2, got 1 x 5$"):
        same_orbit_row_shift(e, e, 1, 5)


def test_orbit_census_values():
    assert orbit_census(3, 3) == (3, 3, 3)
    assert orbit_census(5, 5) == (10, 10, 5)
    assert orbit_census(3, 4) == (6, 4, 3)
    with pytest.raises(ValueError):
        orbit_census(4, 4)
    with pytest.raises(ValueError):
        orbit_census(1, 4)
    with pytest.raises(ValueError, match="^census requires m >= 2, got m=1$"):
        orbit_census(3, 1)


def test_census_matches_enumeration_everywhere():
    for n in (3, 5, 7):
        for m in range(2, 8):
            g = GridGraph(n, m)
            orbits = edge_orbits(g, generate_group([row_shift(n, m)]))
            census = orbit_census(n, m)
            horizontal = sum(1 for o in orbits if o.id[0] == "H")
            vertical = sum(1 for o in orbits if o.id[0] == "V")
            assert (horizontal, vertical) == (census.horizontal_orbits, census.vertical_orbits)
            assert {o.size for o in orbits} == {census.orbit_size}


def test_orbit_tuple_shape():
    orbits = edge_orbits(GridGraph(3, 3), generate_group([row_shift(3, 3)]))
    assert all(isinstance(o, EdgeOrbit) for o in orbits)
    assert [o.id for o in orbits] == sorted(o.id for o in orbits)
