"""Walks keyed by EdgeAction.walk_keys against the edge-object path."""

import random

import pytest

from rookpaths.decompose import Subgraph, diagonal_fixture_n4
from rookpaths.grid import GridEdge, GridGraph, GridVertex
from rookpaths.groups import EdgeAction
from rookpaths.staircase import build_staircase_path, walk_from_array

from oracles import ODD_PRIMES, walk_edge_set, walk_edge_objects


def random_walks(count: int, seed: int):
    """Seeded walks on K_n box K_m, n, m in 2..7, of 1 to 30 steps along one line each."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(2, 7), rng.randint(2, 7)
        steps = [
            (0, rng.randrange(1, m)) if rng.random() < 0.5 else (rng.randrange(1, n), 0)
            for _ in range(rng.randint(1, 30))
        ]
        yield walk_from_array((rng.randrange(n), rng.randrange(m)), steps, n, m)


def walks():
    yield from (build_staircase_path(n) for n in ODD_PRIMES)
    yield diagonal_fixture_n4()[2].walk
    yield from random_walks(500, seed=7)


def keyed(walk):
    action = EdgeAction(GridGraph(walk.n, walk.m))
    return Subgraph(action, action.walk_keys(walk), walk)


def of_edges(walk):
    return Subgraph.of_edges(GridGraph(walk.n, walk.m), walk_edge_objects(walk), walk)


def outcome(build, walk):
    """("ok", edges, walk) of the subgraph ``build`` makes, or ("error", text)."""
    try:
        sub = build(walk)
    except ValueError as err:
        return ("error", str(err))
    return ("ok", list(sub.edges), sub.walk)


def test_walk_keys_match_the_object_path():
    kinds = []
    for walk in walks():
        try:
            expected = ("ok", walk_edge_set(walk), walk)
        except ValueError as err:
            expected = ("error", str(err))
        assert outcome(keyed, walk) == outcome(of_edges, walk) == expected, walk
        if expected[0] == "ok":
            assert expected[1] == sorted(set(walk_edge_objects(walk)))
        kinds.append(expected[0])
    # the staircase and diag4 walks are paths; some random walks repeat an edge
    assert kinds[: len(ODD_PRIMES) + 1] == ["ok"] * (len(ODD_PRIMES) + 1)
    assert 0 < kinds.count("error") < len(kinds) - len(ODD_PRIMES) - 1


def test_repeated_walk_edge_names_the_least_one():
    # (1,1) (1,2) (2,2) (1,2) (1,1): retraces (1,2)-(2,2) first, then the lesser (1,1)-(1,2)
    walk = walk_from_array((1, 1), [(0, 1), (1, 0), (2, 0), (0, 2)], 3, 3)
    with pytest.raises(ValueError) as info:
        keyed(walk)
    assert str(info.value) == "duplicate edge (1,1)-(1,2)"


def test_of_edges_rejects_an_edge_outside_the_graph():
    outside = GridEdge(GridVertex(0, 0), GridVertex(0, 4))
    with pytest.raises(ValueError) as info:
        Subgraph.of_edges(GridGraph(3, 3), [outside])
    assert str(info.value) == "(0,0)-(0,4) is not an edge of K_3 box K_3"
