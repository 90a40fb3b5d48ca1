"""Decomposition construction and the six-flag verifier."""

import random
import re
from array import array
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rookpaths.decompose import (
    CompleteGraph,
    Decomposition,
    IsomorphismCapExceeded,
    LabelEdge,
    NotOddPrime,
    PreconditionFailed,
    Subgraph,
    _isomorphism_side,
    build_orbit_decomposition,
    diagonal_fixture_n4,
    gallai_check,
    haggkvist_split,
    is_odd_prime,
    is_path_subgraph,
    k9_fixture,
    orbit_transversal_check,
    partition_witnesses,
    staircase_decomposition,
    subgraphs_isomorphic,
    verify_decomposition,
)
from rookpaths.grid import GridGraph, GridVertex
from rookpaths.groups import (
    EdgeAction,
    Permutation,
    edge_orbits,
    generate_group,
    permutation_from_cycles,
    row_shift,
)
from rookpaths.staircase import first_repeated_vertex, staircase_array, walk_from_array

from oracles import (
    adjacency,
    apply,
    brute_isomorphic,
    orbit_path_preconditions,
    path_edge_set,
    walk_edge_objects,
    walk_image,
)


def grid_subgraph(g, pairs):
    return Subgraph.of_edges(g, [g.edge(GridVertex(*a), GridVertex(*b)) for a, b in pairs])


def test_complete_graph_basics():
    k5 = CompleteGraph(5)
    assert k5.vertex_count == 5
    assert len(list(k5.edges())) == 10
    assert str(k5) == "K_5"
    with pytest.raises(ValueError):
        k5.edge(1, 6)
    with pytest.raises(ValueError, match=r"^complete graph needs n >= 1, got 0$"):
        CompleteGraph(0)


def test_label_edge_canonical():
    e = LabelEdge(7, 3)
    assert (e.u, e.v) == (3, 7)
    assert str(e) == "3-7"
    assert e == LabelEdge(3, 7)
    with pytest.raises(ValueError):
        LabelEdge(2, 2)


def test_subgraph_validation():
    k4 = CompleteGraph(4)
    with pytest.raises(ValueError):
        Subgraph.of_edges(k4, ())
    with pytest.raises(ValueError):
        Subgraph.of_edges(k4, (k4.edge(1, 2), k4.edge(2, 1)))
    sub = Subgraph.of_edges(k4, (k4.edge(1, 2), k4.edge(2, 3)))
    assert sub.edge_count == 2
    assert set(adjacency(sub)) == {1, 2, 3}
    assert len(adjacency(sub)[2]) == 2


def test_subgraph_sorts_and_scans_every_input():
    # arrays too, of any typecode and order: only _ascending keeps an array unchecked
    action = EdgeAction(CompleteGraph(4))
    keys = array("q", [1, 2, 7])
    for given in ([7, 1, 2], (k for k in (7, 2, 1)), array("q", [7, 1, 2]), array("l", [2, 7, 1])):
        made = Subgraph(action, given).keys
        assert (made, made.typecode) == (keys, "q")
    assert Subgraph(action, keys).keys is not keys
    assert Subgraph._ascending(action, keys).keys is keys
    for repeated in ([7, 2, 1, 2], array("q", [1, 2, 2, 7]), array("q", [7, 2, 7])):
        with pytest.raises(ValueError, match="^duplicate edge (1-3|2-4)$"):
            Subgraph(action, repeated)
    for empty in ([], (), array("q")):
        with pytest.raises(ValueError, match="^a subgraph needs at least one edge$"):
            Subgraph(action, empty)


def test_is_odd_prime():
    assert [n for n in range(30) if is_odd_prime(n)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_orbit_transversal_check():
    graph, group, base = k9_fixture()
    orbits = edge_orbits(graph, group)
    assert len(orbits) == 12
    good = orbit_transversal_check(base, orbits)
    assert good.ok
    assert set(good.counts) == {1}
    missing = Subgraph.of_edges(graph, base.edges[:11])
    bad = orbit_transversal_check(missing, orbits)
    assert not bad.ok
    assert 0 in bad.counts


def test_orbit_transversal_staircase_n5():
    dec, _ = staircase_decomposition(5)
    g = GridGraph(5, 5)
    orbits = edge_orbits(g, generate_group([row_shift(5, 5)]))
    assert len(orbits) == 20
    check = orbit_transversal_check(dec.base, orbits)
    assert check.ok
    assert list(check.counts) == [1] * 20


def test_orbit_transversal_check_rejects_stray_edges():
    g = GridGraph(3, 3)
    group = generate_group([row_shift(3, 3)])
    stray = grid_subgraph(GridGraph(5, 5), [((0, 0), (0, 4))])
    other = "a subgraph of K_5 box K_5 is not a subgraph of K_3 box K_3"
    with pytest.raises(ValueError, match=other):
        orbit_transversal_check(stray, edge_orbits(g, group))
    with pytest.raises(ValueError, match=other):
        build_orbit_decomposition(g, group, stray)


def test_build_orbit_decomposition_n3():
    g = GridGraph(3, 3)
    group = generate_group([row_shift(3, 3)])
    walk = walk_from_array((0, 0), [(0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (2, 0)], 3, 3)
    base = Subgraph.of_edges(g, walk_edge_objects(walk), walk)
    dec = build_orbit_decomposition(g, group, base)
    assert len(dec.blocks) == 3
    assert all(b.edge_count == 6 for b in dec.blocks)
    assert all(b.walk is None for b in dec.blocks)
    report = verify_decomposition(g, group, dec)
    assert report.all_ok
    assert report.flags() == {name: True for name in report.FLAGS}


def test_build_rejects_non_transversal():
    g = GridGraph(3, 3)
    group = generate_group([row_shift(3, 3)])
    base = grid_subgraph(g, [((0, 0), (0, 1))])
    with pytest.raises(PreconditionFailed):
        build_orbit_decomposition(g, group, base)
    g5 = GridGraph(5, 5)
    group5 = generate_group([row_shift(5, 5)])
    # two edges of one orbit plus none from most others
    doubled = grid_subgraph(g5, [((0, 0), (0, 1)), ((1, 0), (1, 1))])
    with pytest.raises(PreconditionFailed) as info:
        build_orbit_decomposition(g5, group5, doubled)
    assert "transversal" in str(info.value) or "orbit" in str(info.value)


def test_build_rejects_non_semiregular():
    g = GridGraph(2, 3)
    group = generate_group([row_shift(2, 3)])
    base = grid_subgraph(g, [((0, 0), (0, 1))])
    with pytest.raises(PreconditionFailed) as info:
        build_orbit_decomposition(g, group, base)
    assert "semiregular" in str(info.value)


def precondition_outcome(check, graph, group, base):
    try:
        check(graph, group, base)
    except PreconditionFailed as err:
        return err.reason, err.witness
    return None


def test_generator_table_of_the_wrong_length_is_refused_before_any_build():
    # (1, 1, 2, 0) covers every vertex of K_3, so the bijection premise alone let it through: it
    # closed to order 3, and build of the one-edge base [2] gave blocks [2], [5], [5], which verify
    # passed, though they hold edge 2-3 twice and miss 1-2
    with pytest.raises(ValueError, match="^generator 0 has 4 entries, not one per vertex of K_3$"):
        generate_group([Permutation(CompleteGraph(3), (1, 1, 2, 0))])


def precondition_cases():
    """(label, graph, group, base) triples on both sides of the bijection test."""
    for n, m in ((2, 3), (4, 4)):
        graph = GridGraph(n, m)
        base = Subgraph.of_edges(graph, list(graph.edges())[: graph.edge_count // n])
        yield f"row shift {n}x{m}", graph, generate_group([row_shift(n, m)]), base
    graph = GridGraph(5, 5)
    group = generate_group([row_shift(5, 5)])
    walk = walk_from_array((0, 0), staircase_array(5), 5, 5)
    edges = walk_edge_objects(walk)
    shift = Permutation(graph, group.tables[1])
    yield "staircase 5", graph, group, Subgraph.of_edges(graph, edges, walk)
    yield "one edge", graph, group, Subgraph.of_edges(graph, edges[:1])
    yield "doubled", graph, group, Subgraph.of_edges(graph, edges + [graph.edge(apply(shift, e.u), apply(shift, e.v)) for e in edges])
    # |E|/|G| edges, but the last one is the row shift of the first: two edges in one orbit
    collide = edges[:-1] + [graph.edge(apply(shift, edges[0].u), apply(shift, edges[0].v))]
    assert len(set(collide)) == graph.edge_count // group.order
    yield "colliding", graph, group, Subgraph.of_edges(graph, collide)


def test_build_witnesses_match_orbit_path():
    outcomes = []
    for label, graph, group, base in precondition_cases():
        expected = precondition_outcome(orbit_path_preconditions, graph, group, base)
        got = precondition_outcome(build_orbit_decomposition, graph, group, base)
        assert got == expected, label
        outcomes.append(expected is None)
    # one case builds, the others fail a precondition
    assert outcomes.count(True) == 1


def test_is_path_subgraph():
    g = GridGraph(3, 3)
    path = grid_subgraph(g, [((0, 0), (0, 1)), ((0, 1), (0, 2))])
    assert is_path_subgraph(path)
    k3 = CompleteGraph(3)
    triangle = Subgraph.of_edges(k3, k3.edges())
    assert not is_path_subgraph(triangle)
    k5 = CompleteGraph(5)
    star = Subgraph.of_edges(k5, (k5.edge(1, 2), k5.edge(1, 3), k5.edge(1, 4)))
    assert not is_path_subgraph(star)
    split = Subgraph.of_edges(k5, (k5.edge(1, 2), k5.edge(3, 4)))
    assert not is_path_subgraph(split)


def test_is_path_subgraph_matches_oracle():
    k5 = CompleteGraph(5)
    cases = [
        (k5.edge(1, 2),),
        (k5.edge(1, 2), k5.edge(2, 3), k5.edge(3, 4)),
        (k5.edge(1, 2), k5.edge(2, 3), k5.edge(3, 1)),
        (k5.edge(1, 2), k5.edge(2, 3), k5.edge(2, 4)),
        (k5.edge(1, 2), k5.edge(3, 4), k5.edge(4, 5)),
    ]
    for edges in cases:
        sub = Subgraph.of_edges(k5, edges)
        assert is_path_subgraph(sub) == path_edge_set(
            frozenset({e.u, e.v}) for e in edges
        )


def test_subgraphs_isomorphic():
    k9 = CompleteGraph(9)
    t1 = Subgraph.of_edges(k9, (k9.edge(1, 4), k9.edge(4, 5), k9.edge(1, 5)))
    t2 = Subgraph.of_edges(k9, (k9.edge(2, 6), k9.edge(6, 8), k9.edge(2, 8)))
    p3 = Subgraph.of_edges(k9, (k9.edge(1, 2), k9.edge(2, 3), k9.edge(3, 4)))
    star = Subgraph.of_edges(k9, (k9.edge(1, 2), k9.edge(1, 3), k9.edge(1, 4)))
    assert subgraphs_isomorphic(t1, t2)
    assert not subgraphs_isomorphic(t1, p3)
    assert not subgraphs_isomorphic(p3, star)
    assert subgraphs_isomorphic(p3, Subgraph.of_edges(k9, (k9.edge(5, 9), k9.edge(7, 9), k9.edge(5, 2))))


def test_subgraphs_isomorphic_mixed_graphs():
    g = GridGraph(3, 3)
    grid_path = grid_subgraph(g, [((0, 0), (0, 1)), ((0, 1), (1, 1))])
    k4 = CompleteGraph(4)
    label_path = Subgraph.of_edges(k4, (k4.edge(1, 2), k4.edge(2, 3)))
    assert subgraphs_isomorphic(grid_path, label_path)


def test_subgraphs_isomorphic_cap():
    k18 = CompleteGraph(18)
    triangles = []
    for base in range(1, 18, 3):
        triangles += [
            k18.edge(base, base + 1),
            k18.edge(base + 1, base + 2),
            k18.edge(base, base + 2),
        ]
    # chaining the triangles gives degree-3 vertices, so only the search decides
    chain = triangles + [k18.edge(base + 2, base + 3) for base in range(1, 15, 3)]
    blob = Subgraph.of_edges(k18, chain)
    # a relabelled copy, so the equal-edge-set shortcut does not apply
    shifted = Subgraph.of_edges(k18, [k18.edge(e.u % 18 + 1, e.v % 18 + 1) for e in chain])
    assert shifted.edges != blob.edges
    with pytest.raises(IsomorphismCapExceeded):
        subgraphs_isomorphic(blob, shifted)
    assert subgraphs_isomorphic(blob, blob)
    # six disjoint triangles have maximum degree 2: decided exactly, whatever the size
    loose = Subgraph.of_edges(k18, triangles)
    assert subgraphs_isomorphic(loose, Subgraph.of_edges(k18, [k18.edge(e.u % 18 + 1, e.v % 18 + 1) for e in triangles]))


K8_PAIRS = list(combinations(range(1, 9), 2))


def label_subgraph(n, pairs):
    graph = CompleteGraph(n)
    return Subgraph.of_edges(graph, [graph.edge(u, v) for u, v in pairs])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subgraphs_isomorphic_matches_brute_force(data):
    edges = data.draw(st.lists(st.sampled_from(K8_PAIRS), min_size=1, unique=True))
    if data.draw(st.booleans()):
        label = data.draw(st.permutations(range(1, 9)))
        other = [(label[u - 1], label[v - 1]) for u, v in edges]
    else:
        size = len(edges)
        other = data.draw(st.lists(st.sampled_from(K8_PAIRS), min_size=size, max_size=size, unique=True))
    a, b = label_subgraph(8, edges), label_subgraph(8, other)
    expected = brute_isomorphic(a, b)
    assert subgraphs_isomorphic(a, b) == expected
    # the verifier's form: b's side built once, up front
    assert subgraphs_isomorphic(a, b, _isomorphism_side(b)) == expected


def test_subgraphs_isomorphic_rook_and_shrikhande(monkeypatch):
    # both 6-regular on 16 vertices with 48 edges; only the search tells them apart
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    from cli_diff import SHRIKHANDE
    grid = GridGraph(4, 4)
    rook = Subgraph.of_edges(grid, grid.edges())
    label = random.Random(7).sample(range(1, 17), 16)
    relabelled = [(label[e.u.row * 4 + e.u.col], label[e.v.row * 4 + e.v.col]) for e in rook.edges]
    assert subgraphs_isomorphic(label_subgraph(16, relabelled), rook)
    shrikhande = label_subgraph(16, SHRIKHANDE)
    assert shrikhande.edge_count == 48
    assert not subgraphs_isomorphic(shrikhande, rook)
    assert not subgraphs_isomorphic(rook, shrikhande)
    assert not subgraphs_isomorphic(shrikhande, rook, _isomorphism_side(rook))


def test_partition_witnesses():
    g = GridGraph(3, 3)
    dec, _ = staircase_decomposition(3)
    good = partition_witnesses(g, dec.blocks)
    assert good.ok and not (good.duplicated or good.missing)
    # move one edge between blocks: one duplicate, one missing
    blocks = list(dec.blocks)
    edges0 = list(blocks[0].edges)
    moved = edges0[0]
    edges0[0] = blocks[1].edges[0]
    blocks[0] = Subgraph.of_edges(g, edges0)
    mutated = partition_witnesses(g, blocks)
    assert not mutated.ok
    assert blocks[1].edges[0] in mutated.duplicated
    assert moved in mutated.missing
    # a dropped block only loses edges
    short = partition_witnesses(g, dec.blocks[1:])
    assert not short.ok
    assert len(short.missing) == 6
    assert not short.duplicated


def test_partition_witnesses_range_checks_keys():
    # a key of no edge never counts towards a partition, even when the count comes out right
    g = GridGraph(3, 3)
    dec, _ = staircase_decomposition(3)
    first = dec.blocks[0]
    diagonal = 0 * 9 + 4  # (0,0)-(1,1): both indices in range, on no common line
    for keys, name in [
        (list(first.keys) + [81], "key 81"),
        (list(first.keys)[1:] + [81], "key 81"),
        (list(first.keys)[1:] + [diagonal], "(0,0)-(1,1)"),
    ]:
        blocks = [Subgraph(first.action, keys), *dec.blocks[1:]]
        with pytest.raises(ValueError) as info:
            partition_witnesses(g, blocks)
        assert str(info.value) == f"{name} is not an edge of K_3 box K_3"


def test_partition_foreign_edges():
    g = GridGraph(3, 3)
    other = GridGraph(5, 5)
    alien = grid_subgraph(other, [((0, 0), (0, 4))])
    with pytest.raises(ValueError, match="a subgraph of K_5 box K_5 is not a subgraph of K_3 box K_3"):
        partition_witnesses(g, [alien])


def test_verify_catches_moved_edge():
    g = GridGraph(3, 3)
    dec, report = staircase_decomposition(3)
    assert report.all_ok
    blocks = list(dec.blocks)
    edges0 = list(blocks[0].edges)
    edges0[0] = blocks[1].edges[0]
    blocks[0] = Subgraph.of_edges(g, edges0)
    group = dec.group
    broken = Decomposition(blocks=tuple(blocks), group=group, base=blocks[0])
    rep = verify_decomposition(g, group, broken)
    assert not rep.all_ok
    assert "is_partition" in rep.failed()
    assert rep.witnesses["is_partition"]["duplicated"]
    assert rep.witnesses["is_partition"]["missing"]


def test_verify_catches_dropped_block():
    g = GridGraph(3, 3)
    dec, _ = staircase_decomposition(3)
    broken = Decomposition(blocks=dec.blocks[:2], group=dec.group, base=dec.base)
    rep = verify_decomposition(g, dec.group, broken)
    assert {"is_partition", "group_invariant"} <= set(rep.failed())
    assert rep.witnesses["is_partition"]["missing"]


def test_staircase_decomposition_gate():
    with pytest.raises(NotOddPrime):
        staircase_decomposition(9)
    with pytest.raises(NotOddPrime):
        staircase_decomposition(4)
    with pytest.raises(NotOddPrime):
        staircase_decomposition(4, force=True)


def test_staircase_decomposition_n5():
    dec, report = staircase_decomposition(5)
    assert len(dec.blocks) == 5
    assert report.all_ok
    assert all(b.edge_count == 20 for b in dec.blocks)


def test_k9_fixture_decomposition():
    graph, group, base = k9_fixture()
    assert base.edge_count == 12
    dec = build_orbit_decomposition(graph, group, base)
    assert len(dec.blocks) == 3
    report = verify_decomposition(graph, group, dec)
    assert report.all_ok
    covered = sorted(e for b in dec.blocks for e in b.edges)
    assert covered == sorted(graph.edges())


def test_k9_triangle_refinement():
    graph, group, base = k9_fixture()
    dec = build_orbit_decomposition(graph, group, base)
    triangles = []
    k9 = CompleteGraph(9)
    for block in dec.blocks:
        adj = adjacency(block)
        seen = set()
        for u in sorted(adj):
            for v in sorted(adj[u]):
                for w in sorted(adj[v]):
                    if w != u and w in adj[u]:
                        tri = frozenset({u, v, w})
                        if tri not in seen:
                            seen.add(tri)
                            a, b, c = sorted(tri)
                            triangles.append(
                                Subgraph.of_edges(k9, (k9.edge(a, b), k9.edge(b, c), k9.edge(a, c)))
                            )
    assert len(triangles) == 12
    check = partition_witnesses(graph, triangles)
    assert check.ok


def test_diagonal_fixture_n4():
    graph, group, base = diagonal_fixture_n4()
    assert base.edge_count == 12
    assert base.walk is not None
    assert is_path_subgraph(base)
    dec = build_orbit_decomposition(graph, group, base)
    assert len(dec.blocks) == 4
    assert sum(b.edge_count for b in dec.blocks) == 48
    report = verify_decomposition(graph, group, dec)
    assert report.all_ok


def test_gallai_check():
    g = GridGraph(3, 3)
    dec, _ = staircase_decomposition(3)
    assert gallai_check(g, dec)
    # 26 blocks on 49 vertices violates 2*blocks <= vertices + 1
    g7 = GridGraph(7, 7)
    edges = list(g7.edges())[:26]
    blocks = tuple(Subgraph.of_edges(g7, (e,)) for e in edges)
    fake = Decomposition(blocks=blocks, group=generate_group([row_shift(7, 7)]), base=blocks[0])
    assert not gallai_check(g7, fake)


def test_haggkvist_split():
    dec, _ = staircase_decomposition(5)
    walk = walk_image(dec.base.walk, dec.group.tables[0])
    segments = haggkvist_split(walk, 4)
    assert len(segments) == 5
    assert all(s.edge_count == 4 for s in segments)
    assert all(is_path_subgraph(s) for s in segments)
    whole = sorted(e for s in segments for e in s.edges)
    assert whole == sorted(dec.blocks[0].edges)
    with pytest.raises(ValueError):
        haggkvist_split(walk, 3)


@st.composite
def grid_walks(draw):
    """A walk of at most 30 steps on K_n box K_m, 3 <= n <= 6 and 2 <= m <= 6.

    Random steps revisit vertices and edges on these small grids; on top
    of them the walk may step straight back (a repeated edge) or go round
    a rectangle (a 4-cycle of distinct edges).
    """
    n, m = draw(st.integers(3, 6)), draw(st.integers(2, 6))
    rows, cols = st.integers(1, n - 1), st.integers(1, m - 1)
    steps = draw(st.lists(st.one_of(st.tuples(rows, st.just(0)), st.tuples(st.just(0), cols)),
                          min_size=1, max_size=18))
    for i, kind in draw(st.lists(st.tuples(st.integers(0, len(steps)), st.booleans()), max_size=3)):
        if kind:
            dr, dc = draw(rows), draw(cols)
            steps[i:i] = [(dr, 0), (0, dc), (-dr, 0), (0, -dc)]
        elif i:
            steps.insert(i, tuple(-d for d in steps[i - 1]))
    return walk_from_array((draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))), steps, n, m)


@settings(max_examples=300, deadline=None)
@given(grid_walks())
def test_split_segments_are_paths_exactly_when_their_indices_are_distinct(walk):
    # a path walk's segment j is stretch j of its keys, sorted, and a path; any other walk raises
    keys = EdgeAction(GridGraph(walk.n, walk.m)).walk_keys(walk)
    for b in (b for b in range(1, walk.length + 1) if walk.length % b == 0):
        if len(set(walk.path)) < len(walk.path):
            i, j, v = first_repeated_vertex(walk)
            with pytest.raises(ValueError, match=re.escape(f"walk revisits {v} at positions {i} and {j}")):
                haggkvist_split(walk, b)
            continue
        segments = haggkvist_split(walk, b)
        stretches = [array("q", sorted(keys[i : i + b])) for i in range(0, walk.length, b)]
        assert [s.keys for s in segments] == stretches
        assert all(s.walk is None and is_path_subgraph(s) for s in segments)


def test_haggkvist_split_segments_hold_each_block_key_once():
    # cmd_split's partition check: block i's segment keys, sorted together, are block i's keys
    dec, _ = staircase_decomposition(5)
    for t, block in zip(dec.group.tables, dec.blocks):
        segments = haggkvist_split(walk_image(dec.base.walk, t), 4)
        assert sorted(k for s in segments for k in s.keys) == list(block.keys)


def test_haggkvist_split_whole_path():
    dec, _ = staircase_decomposition(3)
    walk = walk_image(dec.base.walk, dec.group.tables[0])
    only = haggkvist_split(walk, walk.length)
    assert len(only) == 1
    assert sorted(only[0].edges) == sorted(dec.blocks[0].edges)
