"""Grid graph construction and edge bookkeeping."""

import re
from functools import cache
from typing import Callable, NamedTuple

import pytest

from rookpaths.decompose import (
    CompleteGraph,
    Decomposition,
    LabelEdge,
    VerificationReport,
    staircase_decomposition,
)
from rookpaths.grid import (
    DimensionError,
    GridEdge,
    GridGraph,
    GridVertex,
)
from rookpaths.groups import edge_orbits, generate_group, row_shift
from rookpaths.staircase import Walk, walk_from_array

from oracles import brute_grid_edges, walk_vertex_objects


def test_vertex_and_edge_counts():
    g = GridGraph(3, 3)
    assert g.vertex_count == 9
    assert g.edge_count == 18
    assert GridGraph(5, 5).edge_count == 100
    assert GridGraph(3, 4).edge_count == 30
    assert GridGraph(2, 2).edge_count == 4


def test_edge_count_matches_enumeration():
    for n in range(2, 7):
        for m in range(2, 7):
            g = GridGraph(n, m)
            edges = list(g.edges())
            assert len(edges) == g.edge_count
            assert len(set(edges)) == len(edges)


def test_edges_match_brute_force():
    for n, m in [(2, 2), (3, 3), (3, 5), (4, 4), (5, 3)]:
        g = GridGraph(n, m)
        got = {frozenset({(e.u.row, e.u.col), (e.v.row, e.v.col)}) for e in g.edges()}
        assert got == brute_grid_edges(n, m)


def test_degree_is_uniform():
    g = GridGraph(4, 6)
    counts = {}
    for e in g.edges():
        counts[e.u] = counts.get(e.u, 0) + 1
        counts[e.v] = counts.get(e.v, 0) + 1
    assert len(counts) == g.vertex_count
    assert set(counts.values()) == {(4 - 1) + (6 - 1)}


def test_vertices_row_major():
    g = GridGraph(2, 3)
    assert [str(v) for v in g.vertices()] == [
        "(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)",
    ]


def test_vertex_reduces_modulo():
    # a walk's start is the one place a vertex is read modulo the dimensions:
    # (4, 7) is (1, 2) and (-1, -1) is (2, 4), vertex indices row * 5 + col
    assert walk_from_array((4, 7), [], 3, 5).path == (1 * 5 + 2,)
    assert walk_from_array((-1, -1), [], 3, 5).path == (2 * 5 + 4,)


def test_edge_canonical_order():
    e = GridEdge(GridVertex(1, 2), GridVertex(1, 0))
    assert e.u == GridVertex(1, 0)
    assert e.v == GridVertex(1, 2)
    assert str(e) == "(1,0)-(1,2)"
    assert e == GridEdge(GridVertex(1, 0), GridVertex(1, 2))


def test_edge_rejects_degenerate_and_diagonal():
    v = GridVertex(1, 1)
    with pytest.raises(ValueError):
        GridEdge(v, v)
    with pytest.raises(ValueError):
        GridEdge(GridVertex(0, 0), GridVertex(1, 1))


def test_step_rejects_zero():
    # a step is a (drow, dcol) pair; (0, 0), as given or once reduced, moves along no line
    for step in [(0, 0), (3, -5)]:
        with pytest.raises(ValueError, match=r"step 1 = \(.*\) does not move along one grid line"):
            walk_from_array((0, 0), [step], 3, 5)
    assert walk_from_array((0, 0), [(0, 1)], 3, 5).step_pairs() == [(0, 1)]


def test_classify_edge():
    # under the row shift an edge's orbit id is tagged H when its rows agree, V when its columns do
    g = GridGraph(3, 3)
    h = g.edge(GridVertex(0, 0), GridVertex(0, 2))
    v = g.edge(GridVertex(0, 1), GridVertex(2, 1))
    orbits = edge_orbits(g, generate_group([row_shift(3, 3)]))
    tag = {e: o.id[0] for o in orbits for e in o.action.edges(o.keys)}
    assert (tag[h], tag[v]) == ("H", "V")


def test_edge_difference():
    # the step along an edge, read from either endpoint, reduced mod (n, m)
    # a walk holds vertex indices row * m + col: u = (0,0), v = (2,0), w = (1,1), x = (1,4)
    u, v, w, x = 0, 2 * 5, 1 * 5 + 1, 1 * 5 + 4
    assert Walk(5, 5, (u, v)).step_pairs() == [(2, 0)]
    assert Walk(5, 5, (v, u)).step_pairs() == [(3, 0)]
    assert Walk(5, 5, (w, x)).step_pairs() == [(0, 3)]


def test_edge_differences_cancel():
    for e in GridGraph(4, 7).edges():
        u, v = e.u.row * 7 + e.u.col, e.v.row * 7 + e.v.col
        ((ar, ac),) = Walk(4, 7, (u, v)).step_pairs()
        ((br, bc),) = Walk(4, 7, (v, u)).step_pairs()
        assert (ar + br) % 4 == 0
        assert (ac + bc) % 7 == 0


def test_shift_wraps():
    # a walk adds each step modulo the dimensions
    w = walk_from_array((2, 3), [(1, 0), (0, 1)], 3, 4)
    assert walk_vertex_objects(w) == (GridVertex(2, 3), GridVertex(0, 3), GridVertex(0, 0))
    assert w.path == (2 * 4 + 3, 0 * 4 + 3, 0)


def test_edge_requires_membership():
    g = GridGraph(2, 2)
    with pytest.raises(ValueError):
        g.edge(GridVertex(0, 0), GridVertex(0, 5))


def test_dimension_errors():
    with pytest.raises(DimensionError):
        GridGraph(1, 5)
    with pytest.raises(DimensionError):
        GridGraph(3, 0)


def test_str_forms():
    assert str(GridGraph(3, 4)) == "K_3 box K_4"


def test_grid_graph_is_hashable_value():
    assert GridGraph(3, 3) == GridGraph(3, 3)
    assert len({GridGraph(3, 3), GridGraph(3, 3)}) == 1


@cache
def staircase3():
    return staircase_decomposition(3)


def staircase3_decomposition():
    dec = staircase3()[0]
    return Decomposition(dec.blocks, dec.group, dec.base)


class ValueCase(NamedTuple):
    make: Callable  # a new value each call, equal to the last
    text: str  # its repr, "..." standing for any text
    field: str  # a field that cannot be set
    shown: str | None = None  # its str, if not its repr
    hashable: bool = True
    larger: Callable | None = None  # for an ordered class, a value greater than make()'s
    errors: tuple = ()  # (call, exception type, message)
    replaced: tuple = ()  # (fields given to _replace, the value it returns)


VALUE_CASES = {
    "GridVertex": ValueCase(
        lambda: GridVertex(0, 1),
        "GridVertex(row=0, col=1)",
        "row",
        shown="(0,1)",
        larger=lambda: GridVertex(1, 0),
    ),
    "GridEdge": ValueCase(
        lambda: GridEdge(GridVertex(1, 2), GridVertex(1, 0)),
        "GridEdge(u=GridVertex(row=1, col=0), v=GridVertex(row=1, col=2))",
        "u",
        shown="(1,0)-(1,2)",
        larger=lambda: GridEdge(GridVertex(1, 0), GridVertex(2, 0)),
        errors=(
            (lambda: GridEdge(GridVertex(1, 1), GridVertex(1, 1)), ValueError, "degenerate edge at (1,1)"),
            (
                lambda: GridEdge(GridVertex(0, 0), GridVertex(1, 1)),
                ValueError,
                "(0,0)-(1,1) is not a grid edge",
            ),
            (
                lambda: GridEdge(GridVertex(1, 2), GridVertex(1, 0))._replace(v=GridVertex(1, 0)),
                ValueError,
                "degenerate edge at (1,0)",
            ),
            (
                lambda: GridEdge._make((GridVertex(0, 0), GridVertex(1, 1))),
                ValueError,
                "(0,0)-(1,1) is not a grid edge",
            ),
        ),
        replaced=(
            ({"u": GridVertex(1, 5)}, GridEdge(GridVertex(1, 2), GridVertex(1, 5))),
        ),
    ),
    "GridGraph": ValueCase(
        lambda: GridGraph(3, 4),
        "GridGraph(n=3, m=4)",
        "n",
        shown="K_3 box K_4",
        errors=(
            (lambda: GridGraph(1, 5), DimensionError, "grid needs n, m >= 2, got 1 x 5"),
            (lambda: GridGraph(3, 1), DimensionError, "grid needs n, m >= 2, got 3 x 1"),
            (lambda: GridGraph(3, 4)._replace(m=1), DimensionError, "got 3 x 1"),
            (lambda: GridGraph._make((1, 1)), DimensionError, "got 1 x 1"),
        ),
        replaced=(({"m": 2}, GridGraph(3, 2)),),
    ),
    "LabelEdge": ValueCase(
        lambda: LabelEdge(5, 2),
        "LabelEdge(u=2, v=5)",
        "v",
        shown="2-5",
        larger=lambda: LabelEdge(3, 4),
        errors=(
            (lambda: LabelEdge(3, 3), ValueError, "degenerate edge at 3"),
            (lambda: LabelEdge(5, 2)._replace(u=5), ValueError, "degenerate edge at 5"),
            (lambda: LabelEdge._make((4, 4)), ValueError, "degenerate edge at 4"),
        ),
        replaced=(({"u": 9}, LabelEdge(5, 9)),),
    ),
    "CompleteGraph": ValueCase(
        lambda: CompleteGraph(9),
        "CompleteGraph(n=9)",
        "n",
        shown="K_9",
        errors=(
            (lambda: CompleteGraph(0), ValueError, "complete graph needs n >= 1, got 0"),
            (lambda: CompleteGraph(9)._replace(n=0), ValueError, "got 0"),
            (lambda: CompleteGraph._make([-1]), ValueError, "got -1"),
        ),
    ),
    "EdgeOrbit": ValueCase(
        lambda: edge_orbits(GridGraph(3, 3), generate_group([row_shift(3, 3)]))[0],
        "EdgeOrbit(id=('H', 0, 1), keys=(1, 31, 61)...)",
        "keys",
    ),
    "Walk": ValueCase(lambda: Walk(5, 5, (0, 10)), "Walk(n=5, m=5, path=(0, 10))", "path"),
    "Decomposition": ValueCase(
        staircase3_decomposition,
        "Decomposition(blocks=(...), group=FiniteGroup(order=3), base=<...Subgraph object at ...>)",
        "base",
        hashable=False,
    ),
    # only the one report is compared, with itself
    "VerificationReport": ValueCase(
        lambda: staircase3()[1], "VerificationReport(witnesses={})", "witnesses", hashable=False
    ),
}


@pytest.mark.parametrize("case", VALUE_CASES.values(), ids=VALUE_CASES)
def test_value_semantics(case):
    a, b = case.make(), case.make()
    assert a == b and not a != b
    if case.hashable:
        assert hash(a) == hash(b) and len({a, b}) == 1
    pattern = ".*".join(map(re.escape, case.text.split("...")))
    assert re.fullmatch(pattern, repr(a)), repr(a)
    assert str(a) == (repr(a) if case.shown is None else case.shown)
    if case.larger is not None:
        c = case.larger()
        assert a < c and c > a and not c < a
        assert sorted([c, a]) == [a, c]
    for call, error, message in case.errors:
        with pytest.raises(error, match=re.escape(message)):
            call()
    assert type(a)._make(a) == a._replace() == a
    for fields, value in case.replaced:
        assert a._replace(**fields) == value and type(a._replace(**fields)) is type(a)
    with pytest.raises(AttributeError):
        setattr(a, case.field, getattr(a, case.field))
