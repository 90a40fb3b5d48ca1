"""Edge text and DOT written from key arrays match the edge-object writers in oracles, and
every writer refuses the subgraphs of two graphs."""

import pytest

import oracles
from rookpaths.decompose import (
    CompleteGraph,
    Subgraph,
    build_orbit_decomposition,
    diagonal_fixture_n4,
    haggkvist_split,
    k9_fixture,
    staircase_decomposition,
)
from rookpaths.grid import GridGraph, GridVertex
from rookpaths.groups import Permutation, edge_orbits, generate_group, row_shift
from rookpaths.serialize import blocks_to_text, dot_for_blocks, dumps_with_edges, orbit_lines

SPLITS = {5: (1, 2, 4, 5, 10, 20), 7: (1, 2, 3, 6, 7, 14, 21, 42)}


def block_lists():
    """(label, blocks): staircases, split segments, fixtures, and short lists."""
    decs = {n: staircase_decomposition(n)[0] for n in (3, 5, 7, 11, 13)}
    blocks = {n: dec.blocks for n, dec in decs.items()}
    for n, found in blocks.items():
        yield f"staircase n={n}", found
    for n, sizes in SPLITS.items():
        walks = [oracles.walk_image(decs[n].base.walk, t) for t in decs[n].group.tables]
        for b in sizes:
            segments = [s for walk in walks for s in haggkvist_split(walk, b)]
            yield f"split n={n} b={b}", segments
    for name, fixture in (("k9", k9_fixture), ("diag4", diagonal_fixture_n4)):
        graph, group, base = fixture()
        yield name, build_orbit_decomposition(graph, group, base).blocks
    yield "one block", blocks[7][:1]
    yield "empty", []


CASES = list(block_lists())


@pytest.mark.parametrize("label, blocks", CASES, ids=[label for label, _ in CASES])
def test_key_writers_match_object_writers(label, blocks):
    assert blocks_to_text(blocks) == oracles.blocks_to_text(blocks)
    assert dot_for_blocks(blocks) == oracles.dot_for_blocks(blocks)


def test_writer_corpus_covers_the_listed_cases():
    labels = [label for label, _ in CASES]
    assert len(labels) == len(set(labels)) == 5 + sum(map(len, SPLITS.values())) + 4
    assert dot_for_blocks([]) == "graph decomposition {\n  node [shape=circle fontsize=10];\n}\n"
    assert blocks_to_text([]) == ""


def mixed_lists():
    """(label, subgraphs) whose subgraphs lie on two graphs, the second one's subgraph third."""
    blocks = {n: staircase_decomposition(n)[0].blocks for n in (3, 5)}
    g34 = GridGraph(3, 4)
    pairs = (((2, 0), (2, 3)), ((0, 1), (2, 1)))
    wide = Subgraph.of_edges(g34, [g34.edge(GridVertex(*u), GridVertex(*v)) for u, v in pairs])
    yield "two grid shapes", [blocks[3][0], blocks[3][1], wide, blocks[5][2]], "K_3 box K_4"
    k4 = CompleteGraph(4)
    k9_blocks = build_orbit_decomposition(*k9_fixture()).blocks
    small = Subgraph.of_edges(k4, [k4.edge(1, 4), k4.edge(2, 3)])
    yield "two complete graphs", [*k9_blocks[:2], small], "K_4"
    # edge text rendered this list and DOT raised TypeError sorting an int against a GridVertex
    yield "a grid and a complete graph", [*blocks[3][:2], k9_blocks[0]], "K_9"


MIXED = list(mixed_lists())


@pytest.mark.parametrize("label, subs, other", MIXED, ids=[label for label, _, _ in MIXED])
def test_writers_refuse_subgraphs_of_two_graphs(label, subs, other):
    first = subs[0].action.graph
    message = f"a subgraph of {other} is not a subgraph of {first}"
    writers = (
        blocks_to_text,
        dot_for_blocks,
        lambda subs: dumps_with_edges({"blocks": subs}, "blocks"),
    )
    for writer in writers:
        with pytest.raises(ValueError) as err:
            writer(subs)
        assert str(err.value) == message


def test_orbit_lines_refuse_orbits_of_two_graphs():
    square, wide = GridGraph(3, 3), GridGraph(3, 4)
    orbits = edge_orbits(square, generate_group([row_shift(3, 3)]))[:2]
    orbits += edge_orbits(wide, generate_group([row_shift(3, 4)]))[:1]
    k4 = CompleteGraph(4)
    orbits_k = edge_orbits(k4, generate_group([Permutation(k4, (1, 2, 3, 0))]))
    k5 = CompleteGraph(5)
    mixed_k = [*orbits_k, *edge_orbits(k5, generate_group([Permutation(k5, (1, 2, 3, 4, 0))]))]
    for subs, message in (
        (orbits, "a subgraph of K_3 box K_4 is not a subgraph of K_3 box K_3"),
        (mixed_k, "a subgraph of K_5 is not a subgraph of K_4"),
    ):
        for edges in (False, True):
            with pytest.raises(ValueError) as err:
                orbit_lines(subs, edges)
            assert str(err.value) == message
