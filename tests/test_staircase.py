"""Staircase arrays, walks, and the two construction criteria."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rookpaths import staircase
from rookpaths.decompose import Subgraph, build_orbit_decomposition, is_odd_prime
from rookpaths.grid import DimensionError, GridGraph, GridVertex
from rookpaths.groups import generate_group, row_shift
from rookpaths.serialize import MAX_EDGES
from rookpaths.staircase import (
    ConstructionInvalid,
    Walk,
    build_staircase_path,
    first_orbit_conflict,
    first_repeated_vertex,
    is_path,
    one_edge_per_orbit,
    partial_stretch_sum,
    staircase_array,
    stretch,
    walk_from_array,
)

from oracles import (
    ODD_PRIMES,
    apply,
    brute_first_orbit_conflict,
    group_elements,
    random_step_arrays,
    Step,
    vertices_distinct,
    no_zero_run,
    walk_edge_objects,
    walk_edge_orbits_distinct,
    walk_image,
    walk_vertex_objects,
)


def raw(steps):
    """The steps as (drow, dcol) pairs; each must be a pair of ints."""
    assert all(type(dr) is type(dc) is int for dr, dc in steps)
    return tuple((dr, dc) for dr, dc in steps)


def test_stretch_values():
    assert raw(stretch(3, 1)) == ((0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (2, 0))
    assert raw(stretch(5, 2)) == (
        (0, 3), (3, 0), (0, 3), (3, 0), (0, 3), (3, 0), (0, 3), (3, 0), (0, 3), (4, 0),
    )
    assert len(stretch(7, 3)) == 14


def test_stretch_sums_to_one_zero():
    for n in (3, 5, 7, 11):
        for k in range(1, (n - 1) // 2 + 1):
            steps = stretch(n, k)
            total = (
                sum(dr for dr, _ in steps) % n,
                sum(dc for _, dc in steps) % n,
            )
            assert total == (1, 0)


def test_stretch_rejects_bad_k():
    with pytest.raises(ValueError):
        stretch(5, 0)
    with pytest.raises(ValueError):
        stretch(5, 3)
    with pytest.raises(ValueError):
        stretch(4, 1)


def test_staircase_array_n3():
    assert raw(staircase_array(3)) == ((0, 1), (1, 0), (0, 1), (1, 0), (0, 1), (2, 0))


def test_staircase_array_length():
    for n in (3, 5, 7, 9, 11, 13):
        assert len(staircase_array(n)) == n * (n - 1)


def test_partial_stretch_sum_spot_values():
    assert partial_stretch_sum(5, 2, 1, 3) == (3, 1)
    assert partial_stretch_sum(7, 1, 2, 2) == (1, 0)
    assert partial_stretch_sum(7, 1, 1, 14) == (1, 0)
    assert partial_stretch_sum(3, 1, 1, 6) == (1, 0)


def test_partial_stretch_sum_matches_direct_summation():
    for n in (3, 5, 7):
        for k in range(1, (n - 1) // 2 + 1):
            steps = stretch(n, k)
            for p in range(1, 2 * n + 1):
                for q in range(p, 2 * n + 1):
                    direct = (
                        sum(dr for dr, _ in steps[p - 1:q]) % n,
                        sum(dc for _, dc in steps[p - 1:q]) % n,
                    )
                    assert partial_stretch_sum(n, k, p, q) == direct


def test_partial_stretch_sum_nonzero_for_primes():
    for n in (3, 5, 7, 11):
        for k in range(1, (n - 1) // 2 + 1):
            for p in range(1, 2 * n + 1):
                for q in range(p, 2 * n + 1):
                    assert partial_stretch_sum(n, k, p, q) != (0, 0)


def test_partial_stretch_sum_vanishes_for_nine():
    # the window behind the n = 9 path failure
    assert partial_stretch_sum(9, 2, 1, 6) == (0, 0)


def test_partial_stretch_sum_validation():
    with pytest.raises(ValueError):
        partial_stretch_sum(4, 1, 1, 2)
    with pytest.raises(ValueError):
        partial_stretch_sum(5, 1, 3, 2)
    with pytest.raises(ValueError):
        partial_stretch_sum(5, 1, 0, 2)
    with pytest.raises(ValueError):
        partial_stretch_sum(5, 1, 1, 11)


def test_walk_from_array_basics():
    w = walk_from_array((0, 0), [(0, 1), (1, 0)], 3, 3)
    assert w.path == (0, 1, 1 * 3 + 1)
    assert [str(v) for v in walk_vertex_objects(w)] == ["(0,0)", "(0,1)", "(1,1)"]
    assert w.length == 2
    assert walk_vertex_objects(w)[-1] == GridVertex(1, 1)
    assert w.step_pairs() == [(0, 1), (1, 0)]


def test_walk_from_array_empty():
    w = walk_from_array((2, 1), [], 3, 3)
    assert w.length == 0
    assert w.path == (2 * 3 + 1,)
    assert is_path(w)
    assert w.step_pairs() == []


def test_single_step_walk_is_path():
    assert is_path(walk_from_array((0, 0), [(1, 0)], 3, 3))


def test_walk_from_array_reduces_modulo():
    w = walk_from_array((3, 4), [(0, 4)], 3, 3)
    assert walk_vertex_objects(w) == (GridVertex(0, 1), GridVertex(0, 2))


def test_walk_from_array_rejects_bad_steps():
    with pytest.raises(ValueError):
        walk_from_array((0, 0), [(1, 1)], 3, 3)
    with pytest.raises(ValueError):
        walk_from_array((0, 0), [(3, 0)], 3, 3)
    with pytest.raises(DimensionError):
        walk_from_array((0, 0), [(0, 1)], 1, 3)


def test_walk_segment_and_reverse():
    w = walk_from_array((0, 0), staircase_array(5), 5, 5)
    seg = Walk(5, 5, w.path[0:5])
    assert seg.length == 4
    assert seg.path == w.path[:5]
    # the reversed walk is its reversed index path; its steps are derived from it
    rev = Walk(5, 5, w.path[::-1])
    assert rev.step_pairs() == [(-dr % 5, -dc % 5) for dr, dc in reversed(w.step_pairs())]
    assert sorted(map(str, walk_edge_objects(rev))) == sorted(map(str, walk_edge_objects(w)))


def test_transported_walk_commutes_with_shift():
    group = generate_group([row_shift(5, 5)])
    w = walk_from_array((2, 3), staircase_array(5), 5, 5)
    graph = GridGraph(5, 5)
    dec = build_orbit_decomposition(graph, group, Subgraph.of_edges(graph, walk_edge_objects(w), w))
    assert len(dec.blocks) == group.order
    for g, block in zip(group_elements(group), dec.blocks):
        image = walk_image(w, g.table)
        assert walk_vertex_objects(image) == tuple(apply(g, v) for v in walk_vertex_objects(w))
        assert image.step_pairs() == w.step_pairs()
        # a one-vertex walk images to a one-vertex walk
        assert walk_image(Walk(5, 5, w.path[3:4]), g.table) == Walk(5, 5, image.path[3:4])
        assert block.edges == Subgraph.of_edges(graph, walk_edge_objects(image)).edges


def test_staircase_is_path_for_primes():
    for n in (3, 5, 7, 11, 13):
        w = walk_from_array((0, 0), staircase_array(n), n, n)
        assert first_repeated_vertex(w) is None
        assert is_path(w)
        assert vertices_distinct((0, 0), raw(staircase_array(n)), n, n)


def test_staircase_repeats_for_nine():
    w = walk_from_array((0, 0), staircase_array(9), 9, 9)
    hit = first_repeated_vertex(w)
    assert hit is not None
    i, j, v = hit
    assert (i, j) == (18, 24)
    assert v == GridVertex(1, 0)
    assert walk_vertex_objects(w)[i] == walk_vertex_objects(w)[j] == v
    assert not vertices_distinct((0, 0), raw(staircase_array(9)), 9, 9)


def test_first_repeated_vertex_earliest():
    # (0,0) -> (0,1) -> (0,0): positions 0 and 2 collide first
    w = walk_from_array((0, 0), [(0, 1), (0, 2), (0, 1)], 3, 3)
    assert first_repeated_vertex(w) == (0, 2, GridVertex(0, 0))


def test_orbit_conflicts_synthetic():
    # two equal column steps split by a row step never collide
    assert one_edge_per_orbit([(0, 1), (1, 0), (0, 1)], 3)
    assert first_orbit_conflict([(0, 1), (0, 2)], 3) == (0, 1)
    assert first_orbit_conflict([(1, 0), (1, 0)], 3) == (0, 1)
    assert first_orbit_conflict([(1, 0), (2, 0)], 3) == (0, 1)
    assert first_orbit_conflict([(1, 0), (0, 1)], 3) is None
    assert first_orbit_conflict([(0, 1), (0, 1)], 3) is None
    assert one_edge_per_orbit([(0, 1), (1, 0)], 3)
    assert not one_edge_per_orbit([(0, 1), (0, 2)], 3)


def test_orbit_conflict_rectangular():
    # same column pair reached on a 3 x 4 grid
    assert first_orbit_conflict([(0, 1), (1, 0), (0, 3)], 3, 4) == (0, 2)
    assert first_orbit_conflict([(0, 1), (1, 0), (0, 2)], 3, 4) is None


def test_staircase_one_edge_per_orbit_primes():
    for n in (3, 5, 7, 11, 13):
        arr = staircase_array(n)
        assert one_edge_per_orbit(arr, n)
        assert walk_edge_orbits_distinct((0, 0), raw(arr), n, n)


def test_staircase_orbit_conflict_composites():
    # a composite width makes the walk retrace an edge, so the orbit
    # criterion fails too, in agreement with the brute-force route
    assert first_orbit_conflict(staircase_array(9), 9) == (18, 24)
    assert not walk_edge_orbits_distinct((0, 0), raw(staircase_array(9)), 9, 9)
    assert not one_edge_per_orbit(staircase_array(15), 15)


def test_build_runs_no_orbit_scan(monkeypatch):
    # the orbit scan starts by reducing its steps and build reduces none; the public criterion
    # still reduces and checks its input
    calls = []
    normalize = staircase._normalize_steps
    monkeypatch.setattr(staircase, "_normalize_steps", lambda *a: calls.append(a) or normalize(*a))
    assert build_staircase_path(23).length == 23 * 22
    assert calls == []
    assert first_orbit_conflict([(4, 0), (-1, 0)], 3) == (0, 1) and len(calls) == 1
    with pytest.raises(ValueError, match="does not move along one grid line"):
        first_orbit_conflict([(0, 1), (1, 1)], 3)


def test_orbit_conflict_matches_quadratic_scan():
    found = 0
    for n, m, steps in random_step_arrays(3000, seed=603):
        conflict = first_orbit_conflict(steps, n, m)
        assert conflict == brute_first_orbit_conflict(steps, n, m)
        found += conflict is not None
    assert 0 < found < 3000
    for n in (*ODD_PRIMES, 29, 31, 37, 41, 43, 47, 53, 9, 15, 21):
        arr = staircase_array(n)
        assert first_orbit_conflict(arr, n) == brute_first_orbit_conflict(arr, n)
        # the int pairs give the answer the old Step objects gave
        assert first_orbit_conflict(arr, n) == brute_first_orbit_conflict(
            [Step(dr, dc) for dr, dc in arr], n
        )

def test_criteria_agree_on_random_arrays():
    for n, m, steps in random_step_arrays(200, seed=97):
        w = walk_from_array((0, 0), steps, n, m)
        assert is_path(w) == vertices_distinct((0, 0), steps, n, m)
        assert is_path(w) == no_zero_run(steps, n, m)
        assert one_edge_per_orbit(steps, n, m) == walk_edge_orbits_distinct(
            (0, 0), steps, n, m
        )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1), st.integers(min_value=1, max_value=4)),
        min_size=1,
        max_size=12,
    ),
)
def test_path_check_is_translation_invariant(a, b, moves):
    # a walk and its translate revisit vertices identically
    steps = [(d, 0) if axis else (0, d) for axis, d in moves]
    base = walk_from_array((0, 0), steps, 5, 5)
    shifted = walk_from_array((a, b), steps, 5, 5)
    assert is_path(base) == is_path(shifted)
    hit_a = first_repeated_vertex(base)
    hit_b = first_repeated_vertex(shifted)
    assert (hit_a is None) == (hit_b is None)
    if hit_a is not None:
        assert hit_a[:2] == hit_b[:2]


def test_build_staircase_path():
    walk = build_staircase_path(3)
    assert [str(v) for v in walk_vertex_objects(walk)] == [
        "(0,0)", "(0,1)", "(1,1)", "(1,2)", "(2,2)", "(2,0)", "(1,0)",
    ]
    assert build_staircase_path(13).length == 13 * 12


def test_build_staircase_path_fails_for_nine():
    with pytest.raises(ConstructionInvalid) as info:
        build_staircase_path(9)
    assert info.value.check == "path"
    assert info.value.witness[:2] == (18, 24)
    assert "(1,0)" in str(info.value)


ADMITTED_WIDTHS = [n for n in range(3, 200, 2) if n * n * (n - 1) <= MAX_EDGES]


def test_admitted_widths_run_to_the_cap():
    assert ADMITTED_WIDTHS == list(range(3, 136, 2))


@pytest.mark.parametrize("n", ADMITTED_WIDTHS)
def test_staircase_facts_at_every_admitted_width(n):
    # build runs no orbit scan: a composite width fails the path check, a prime one meets
    # each row-shift orbit at most once
    if is_odd_prime(n):
        assert first_orbit_conflict(staircase_array(n), n) is None
    else:
        with pytest.raises(ConstructionInvalid) as info:
            build_staircase_path(n)
        assert info.value.check == "path"


def test_build_staircase_rejects_even():
    with pytest.raises(ValueError):
        build_staircase_path(4)


def test_steps_are_int_pairs():
    for arr in (staircase_array(5), stretch(5, 2)):
        assert type(arr) is tuple
        assert all(type(s) is tuple and len(s) == 2 for s in arr)
        assert all(type(dr) is type(dc) is int for dr, dc in arr)
