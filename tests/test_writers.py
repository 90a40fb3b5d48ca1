"""Edge text and DOT written from key arrays match the edge-object writers in oracles."""

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
from rookpaths.serialize import blocks_to_text, dot_for_blocks

SPLITS = {5: (1, 2, 4, 5, 10, 20), 7: (1, 2, 3, 6, 7, 14, 21, 42)}


def block_lists():
    """(label, blocks): staircases, split segments, fixtures, and mixed or short lists."""
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
    g34 = GridGraph(3, 4)
    pairs = (((2, 0), (2, 3)), ((0, 1), (2, 1)))
    wide = Subgraph.of_edges(g34, [g34.edge(GridVertex(*u), GridVertex(*v)) for u, v in pairs])
    # vertices such as (0,1) and (2,0) lie on several of these grids and are listed once
    yield "two grid shapes", [blocks[3][0], wide, blocks[3][1], blocks[5][2]]
    k4 = CompleteGraph(4)
    k9_blocks = build_orbit_decomposition(*k9_fixture()).blocks
    small = Subgraph.of_edges(k4, [k4.edge(1, 4), k4.edge(2, 3)])
    yield "two complete graphs", [*k9_blocks[:2], small]


CASES = list(block_lists())


@pytest.mark.parametrize("label, blocks", CASES, ids=[label for label, _ in CASES])
def test_key_writers_match_object_writers(label, blocks):
    assert blocks_to_text(blocks) == oracles.blocks_to_text(blocks)
    assert dot_for_blocks(blocks) == oracles.dot_for_blocks(blocks)


def test_writer_corpus_covers_the_listed_cases():
    labels = [label for label, _ in CASES]
    assert len(labels) == len(set(labels)) == 5 + sum(map(len, SPLITS.values())) + 6
    assert dot_for_blocks([]) == "graph decomposition {\n  node [shape=circle fontsize=10];\n}\n"
    assert blocks_to_text([]) == ""
