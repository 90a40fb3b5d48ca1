"""The integer edge action against the object-based oracles."""

import tracemalloc
from array import array

import pytest

from rookpaths.decompose import (
    K9_GENERATOR_CYCLES,
    CompleteGraph,
    Decomposition,
    LabelEdge,
    Subgraph,
    build_orbit_decomposition,
    diagonal_fixture_n4,
    k9_fixture,
    staircase_decomposition,
    verify_decomposition,
)
from rookpaths.grid import GridEdge, GridGraph, GridVertex
from rookpaths.groups import (
    EdgeAction,
    diagonal_shift,
    generate_group,
    permutation_from_cycles,
    row_shift,
)
from rookpaths.serialize import report_to_json_dict
from rookpaths.staircase import staircase_array, walk_from_array

from oracles import (
    brute_verify_decomposition,
    edge_image,
    group_elements,
    permutation_of,
    walk_edge_objects,
)


def test_edge_action_reads_vertex_objects_only_to_build_objects():
    GridGraph.vertices.cache_clear()
    action = EdgeAction(GridGraph(4, 3))
    keys = list(action.all_keys())
    action.check_keys(keys)
    assert (action.size, len(keys), GridGraph.vertices.cache_info().currsize) == (12, 30, 0)
    assert str(action.edges(keys[:1])[0]) == "(0,0)-(0,1)"
    assert action.vertices is GridGraph(4, 3).vertices()
    assert EdgeAction(CompleteGraph(5)).vertices == (1, 2, 3, 4, 5)


def replace_block(dec, idx, block):
    blocks = list(dec.blocks)
    blocks[idx] = block
    return Decomposition(tuple(blocks), dec.group, dec.base)


def tampered(label, dec):
    """A valid decomposition and four ways of breaking it."""
    blocks = dec.blocks
    graph = blocks[0].action.graph
    moved = list(blocks[0].edges)
    moved[0] = blocks[1].edges[0]
    yield f"{label} valid", dec
    yield f"{label} moved edge", replace_block(dec, 0, Subgraph.of_edges(graph, moved))
    yield f"{label} dropped edge", replace_block(dec, 0, Subgraph.of_edges(graph, blocks[0].edges[1:]))
    yield f"{label} dropped block", Decomposition(blocks[1:], dec.group, dec.base)
    yield f"{label} rotated blocks", Decomposition(blocks[1:] + blocks[:1], dec.group, dec.base)


def relabelled(block, graph, f):
    """The image of a block under a vertex map outside the acting group."""
    return Subgraph.of_edges(graph, [graph.edge(f(e.u), f(e.v)) for e in block.edges])


def corpus():
    """(label, graph, group, decomposition) cases for the verifier."""
    for n in (3, 5, 7):
        dec, _ = staircase_decomposition(n)
        graph = GridGraph(n, n)
        for label, case in tampered(f"staircase {n}", dec):
            yield label, graph, dec.group, case
        if n > 3:
            # defect 3: a base that is no block, since (2,3) is not a row shift of (0,0)
            walk = walk_from_array((2, 3), staircase_array(n), n, n)
            shifted = Subgraph.of_edges(graph, walk_edge_objects(walk), walk)
            yield f"staircase {n} base at (2,3)", graph, dec.group, Decomposition(
                dec.blocks, dec.group, shifted
            )
    graph, group, base = k9_fixture()
    dec = build_orbit_decomposition(graph, group, base)
    swap = {1: 2, 2: 1}
    yield "k9 valid", graph, group, dec
    yield "k9 swapped block", graph, group, replace_block(
        dec, 1, relabelled(dec.blocks[1], graph, lambda v: swap.get(v, v))
    )
    graph, group, base = diagonal_fixture_n4()
    dec = build_orbit_decomposition(graph, group, base)
    yield "diag4 valid", graph, group, dec
    yield "diag4 swapped block", graph, group, replace_block(
        dec, 1, relabelled(dec.blocks[1], graph, lambda v: GridVertex(v.col, v.row))
    )
    grid3 = GridGraph(3, 3)
    trivial = generate_group([permutation_of(grid3, {v: v for v in grid3.vertices()})])
    whole = Subgraph.of_edges(grid3, grid3.edges())
    yield "trivial 3x3", grid3, trivial, Decomposition((whole,), trivial, whole)
    k20 = CompleteGraph(20)
    cycle = Subgraph.of_edges(k20, [LabelEdge(v, v % 20 + 1) for v in range(1, 21)])
    order = list(range(1, 20, 2)) + list(range(2, 21, 2))
    other = Subgraph.of_edges(k20, [LabelEdge(a, b) for a, b in zip(order, order[1:] + order[:1])])
    trivial20 = generate_group([permutation_of(k20, {v: v for v in k20.vertices()})])
    yield "trivial K_20 two cycles", k20, trivial20, Decomposition((other,), trivial20, cycle)
    # the row shift of even order fixes vertical edges at distance 2
    grid4 = GridGraph(4, 4)
    shifts = generate_group([row_shift(4, 4)])
    corner = GridVertex(0, 0)
    base = Subgraph.of_edges(
        grid4, (grid4.edge(corner, GridVertex(0, 1)), grid4.edge(corner, GridVertex(2, 0)))
    )
    images = {tuple(sorted(edge_image(g, grid4, e) for e in base.edges)) for g in group_elements(shifts)}
    blocks = tuple(Subgraph.of_edges(grid4, edges) for edges in sorted(images))
    yield "row shift 4x4", grid4, shifts, Decomposition(blocks, shifts, base)
    # a column triangle is its own image under every row shift
    column = Subgraph.of_edges(grid3, [e for e in grid3.edges() if e.u.col == e.v.col == 0])
    shifts3 = generate_group([row_shift(3, 3)])
    yield "row shift 3x3 column", grid3, shifts3, Decomposition((column,), shifts3, column)
    # |G| blocks that partition the edges without being the base's images:
    # row i with column i, where the row shift moves rows but fixes columns
    crosses = tuple(
        Subgraph.of_edges(grid3, [e for e in grid3.edges() if e.u.row == e.v.row == i or e.u.col == e.v.col == i])
        for i in range(3)
    )
    yield "row shift 3x3 crosses", grid3, shifts3, Decomposition(crosses, shifts3, crosses[0])
    yield "trivial 3x3 column base", grid3, trivial, Decomposition((whole,), trivial, column)


def test_verifier_matches_object_oracle():
    failing = set()
    for label, graph, group, dec in corpus():
        got = report_to_json_dict(verify_decomposition(graph, group, dec))
        expected = report_to_json_dict(brute_verify_decomposition(graph, group, dec))
        assert got == expected, label
        failing.update(flag for flag, ok in expected.items() if ok is False)
    # every flag fails somewhere in the corpus
    assert len(failing) == 6, failing


def test_key_off_the_grid_lines_raises_like_an_outside_edge():
    dec, _ = staircase_decomposition(5)
    graph = GridGraph(5, 5)
    first = dec.blocks[0]
    size = first.action.size
    outside = GridEdge(GridVertex(0, 0), GridVertex(0, 5))
    blocks = {
        "edge outside": Subgraph.of_edges(GridGraph(5, 6), (*first.edges[1:], outside)),
        "key off every line": Subgraph(first.action, [*first.keys[1:], 6]),
        "key past the grid": Subgraph(first.action, [*first.keys[1:], size * size]),
    }
    errors = {}
    for label, block in blocks.items():
        with pytest.raises(ValueError) as info:
            verify_decomposition(graph, dec.group, replace_block(dec, 0, block))
        errors[label] = info.value
    assert {type(err) for err in errors.values()} == {ValueError}
    assert str(errors["edge outside"]) == "a subgraph of K_5 box K_6 is not a subgraph of K_5 box K_5"
    assert str(errors["key off every line"]) == "(0,0)-(1,1) is not an edge of K_5 box K_5"
    assert str(errors["key past the grid"]) == "key 625 is not an edge of K_5 box K_5"


def action_corpus():
    for n in range(2, 7):
        for m in range(2, 7):
            yield GridGraph(n, m), generate_group([row_shift(n, m)])
    for n in range(2, 7):
        yield GridGraph(n, n), generate_group([diagonal_shift(n)])
    k9 = CompleteGraph(9)
    yield k9, generate_group([permutation_from_cycles(k9, K9_GENERATOR_CYCLES)])


def test_int_images_match_edge_image():
    for graph, group in action_corpus():
        action = EdgeAction(graph)
        edges = list(graph.edges())
        keys = action.keys(edges)
        assert sorted(keys) == list(action.all_keys())
        assert list(action.edges(keys)) == edges
        for g in group_elements(group):
            images = list(action.edges(action.image_keys(g.table, keys)))
            assert images == [edge_image(g, graph, e) for e in edges], (graph, g)


def test_images_match_image_keys_per_table():
    for graph, group in action_corpus():
        action = EdgeAction(graph)
        every = array("q", action.all_keys())
        for keys in [every, *(every[i : i + 1] for i in range(len(every)))]:
            expected = [action.image_keys(t, keys) for t in group.tables]
            assert list(action.images(group.tables, keys)) == expected, (graph, keys)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verifier_peak_memory_within_oracle():
    dec, _ = staircase_decomposition(23)
    graph = GridGraph(23, 23)
    peak = traced_peak(verify_decomposition, graph, dec.group, dec)
    assert peak <= traced_peak(brute_verify_decomposition, graph, dec.group, dec)
