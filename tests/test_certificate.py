"""The partition certificate of the base's images, against sorting all edge keys.

Build and verify first check the premises: every distinct generator is
a bijection and an automorphism (else PreconditionFailed) and the base's
keys are edges (else ValueError).  Under them ``decompose._transport``
certifies that the |G| images of the base partition E from a base that
repeats no key, |G| * |B| = |E| and a base disjoint from every
non-identity image, which holds exactly when the images cover E once,
so every outcome is the one the sort gives.
"""

import random
from array import array

import pytest

from rookpaths.decompose import (
    Decomposition,
    PreconditionFailed,
    Subgraph,
    _covers_once,
    _sorted_keys,
    _transport,
    build_orbit_decomposition,
    diagonal_fixture_n4,
    k9_fixture,
    staircase_decomposition,
    verify_decomposition,
)
from rookpaths.grid import GridGraph
from rookpaths.groups import (
    EdgeAction,
    Permutation,
    automorphism_violation,
    edge_orbits,
    generate_group,
    row_shift,
)
from rookpaths.staircase import build_staircase_path

from oracles import brute_verify_decomposition, orbit_path_preconditions


def certificate(graph, group, base) -> tuple[bool, bool]:
    """(the certificate, whether the images cover every edge once by sorting)."""
    action = EdgeAction(graph)
    images = [Subgraph(action, action.image_keys(t, base.keys)).keys for t in group.tables]
    transported, partitioned = _transport(action, group.tables, base.keys, _sorted_keys)
    assert transported == images
    return partitioned, _covers_once(action, images)


def outcome(check, graph, group, base):
    try:
        check(graph, group, base)
    except PreconditionFailed as err:
        return err.reason, err.witness
    return None


def staircase_base(n):
    graph = GridGraph(n, n)
    action = EdgeAction(graph)
    walk = build_staircase_path(n)
    return graph, generate_group([row_shift(n, n)]), Subgraph(action, action.walk_keys(walk), walk)


def random_bases(graph, size, count, seed):
    rng = random.Random(seed)
    keys = list(EdgeAction(graph).all_keys())
    return [Subgraph(EdgeAction(graph), rng.sample(keys, size)) for _ in range(count)]


def partitioning_cases():
    for n in (3, 5, 7, 11, 13):
        yield f"staircase {n}", *staircase_base(n)
    yield "k9", *k9_fixture()
    yield "diag4", *diagonal_fixture_n4()


@pytest.mark.parametrize("case", list(partitioning_cases()), ids=lambda case: case[0])
def test_certificate_holds_for_the_fixtures(case):
    _, graph, group, base = case
    assert certificate(graph, group, base) == (True, True)
    dec = build_orbit_decomposition(graph, group, base)
    report = verify_decomposition(graph, group, dec)
    assert report.all_ok
    assert report.witnesses == brute_verify_decomposition(graph, group, dec).witnesses


def test_certificate_equals_the_sort_under_automorphisms():
    # on K_5 box K_5 under the row shift: random orbit transversals partition, random bases do not
    graph, group, _ = staircase_base(5)
    rng = random.Random(18)
    orbits = edge_orbits(graph, group)
    action = EdgeAction(graph)
    bases = [Subgraph(action, [rng.choice(o.keys) for o in orbits]) for _ in range(20)]
    bases += random_bases(graph, len(orbits), 20, seed=19)
    # one orbit short: disjoint images that miss an orbit
    bases += [Subgraph(action, [rng.choice(o.keys) for o in orbits[1:]]) for _ in range(5)]
    seen = set()
    for base in bases:
        partitioned, covered = certificate(graph, group, base)
        assert partitioned == covered
        expected = outcome(orbit_path_preconditions, graph, group, base) if not covered else None
        assert outcome(build_orbit_decomposition, graph, group, base) == expected
        seen.add(partitioned)
    assert seen == {True, False}


def test_overlapping_row_shift_images_fail_as_before():
    # the shift by 2 on K_4 box K_4 fixes vertical edges, so no 12-edge base partitions the 48 edges
    graph = GridGraph(4, 4)
    group = generate_group([row_shift(4, 4)])
    for base in random_bases(graph, 12, 25, seed=4):
        assert certificate(graph, group, base) == (False, False)
        expected = outcome(orbit_path_preconditions, graph, group, base)
        assert expected is not None
        assert outcome(build_orbit_decomposition, graph, group, base) == expected


def c4_swap():
    """K_2 box K_2, a 4-cycle, under the swap of (0,1) and (1,1), which is no automorphism."""
    graph = GridGraph(2, 2)
    return graph, generate_group([Permutation(graph, (0, 3, 2, 1))])


def raised(check, *args):
    with pytest.raises(PreconditionFailed) as info:
        check(*args)
    return info.value.reason, info.value.witness


def test_non_automorphism_generator_fails_build_and_verify():
    # swapping (0,0) and (1,1) sends (0,0)-(0,2) to the non-edge (1,1)-(0,2)
    graph = GridGraph(3, 3)
    table = list(range(9))
    table[0], table[4] = 4, 0
    group = generate_group([Permutation(graph, tuple(table))])
    cases = [(graph, group, base) for base in random_bases(graph, 9, 25, seed=3)]
    # the two rows of the 4-cycle: 2 * 2 = |E| and the base misses its image, two diagonals
    c4, swap = c4_swap()
    rows = Subgraph(EdgeAction(c4), [1, 2 * 4 + 3])
    cases += [(c4, swap, base) for base in random_bases(c4, 2, 6, seed=2)] + [(c4, swap, rows)]
    for graph, group, base in cases:
        bad = "(0,0)-(0,2)" if graph.n == 3 else "(0,0)-(0,1)"
        expected = (f"generator 0 is not an automorphism: image of {bad} is not an edge", (0, bad))
        reason, (index, edge) = raised(build_orbit_decomposition, graph, group, base)
        assert (reason, (index, str(edge))) == expected
        dec = Decomposition((base,), group, base)
        assert raised(verify_decomposition, graph, group, dec) == (reason, (index, edge))
    # the images as blocks: the generators are checked before any block key
    action = EdgeAction(c4)
    images = tuple(Subgraph(action, action.image_keys(t, rows.keys)) for t in swap.tables)
    assert raised(verify_decomposition, c4, swap, Decomposition(images, swap, rows))[1][0] == 0


def test_repeated_failing_generator_is_named_by_its_first_copy():
    c4, swap = c4_swap()
    identity = Permutation(c4, (0, 1, 2, 3))
    group = generate_group([identity, swap.generators[0], swap.generators[0]])
    assert group.order == 2
    base = Subgraph(EdgeAction(c4), [1])
    message = "generator 1 is not an automorphism: image of (0,0)-(0,1) is not an edge"
    for check, arg in ((build_orbit_decomposition, base), (verify_decomposition, every_edge(c4, group))):
        reason, (index, edge) = raised(check, c4, group, arg)
        assert (reason, index, str(edge)) == (message, 1, "(0,0)-(0,1)")


def every_edge(graph, group):
    """One block of every edge, with a one-edge base."""
    action = EdgeAction(graph)
    keys = list(action.all_keys())
    return Decomposition((Subgraph(action, keys),), group, Subgraph(action, keys[:1]))


def test_block_of_every_edge_is_invariant_only_under_automorphisms():
    graph, group, _ = staircase_base(5)
    dec = every_edge(graph, group)
    report = verify_decomposition(graph, group, dec)
    assert "group_invariant" not in report.witnesses
    assert report.witnesses == brute_verify_decomposition(graph, group, dec).witnesses
    c4, swap = c4_swap()
    assert raised(verify_decomposition, c4, swap, every_edge(c4, swap))[1][0] == 0


@pytest.mark.parametrize(
    "base_key, block_key, message",
    [
        ("out of range", None, "key 628 is not an edge of K_5 box K_5"),
        ("negative", None, "key -7 is not an edge of K_5 box K_5"),
        ("diagonal", None, r"\(0,0\)-\(1,1\) is not an edge of K_5 box K_5"),
        ("loop", None, r"\(1,1\)-\(1,1\) is not an edge of K_5 box K_5"),
        # the base is range-checked before the blocks
        ("out of range", "diagonal", "key 628 is not an edge of K_5 box K_5"),
        ("diagonal", "out of range", r"\(0,0\)-\(1,1\) is not an edge of K_5 box K_5"),
        ("loop", "negative", r"\(1,1\)-\(1,1\) is not an edge of K_5 box K_5"),
        (None, "negative", "key -7 is not an edge of K_5 box K_5"),
    ],
)
def test_bad_keys_raise_the_same_value_error(base_key, block_key, message):
    dec, _ = staircase_decomposition(5)
    action = dec.base.action
    size = action.size
    bad = {"out of range": size * size + 3, "negative": -7, "diagonal": 6, "loop": 6 * size + 6}

    def with_key(sub, name):
        return sub if name is None else Subgraph(action, list(sub.keys[:-1]) + [bad[name]])

    blocks = (with_key(dec.blocks[0], block_key),) + dec.blocks[1:]
    base = with_key(dec.base, base_key)
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_decomposition(action.graph, dec.group, Decomposition(blocks, dec.group, base))
    if base_key is not None:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_orbit_decomposition(action.graph, dec.group, base)


@pytest.mark.parametrize(
    "key, message",
    [
        (86, "key 86 is not an edge of K_3 box K_3"),
        (-7, "key -7 is not an edge of K_3 box K_3"),
        (4, r"\(0,0\)-\(1,1\) is not an edge of K_3 box K_3"),
    ],
)
def test_base_key_of_no_edge_raises_before_it_is_imaged(key, message):
    # 86 is past the vertex tables and -7 would read them from the end
    graph, group, base = staircase_base(3)
    blocks = build_orbit_decomposition(graph, group, base).blocks
    bad = Subgraph(base.action, list(base.keys[1:]) + [key])
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_orbit_decomposition(graph, group, bad)
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_decomposition(graph, group, Decomposition(blocks, group, bad))


def test_non_bijective_generator_fails_build_and_verify():
    # the all-zero table on K_3 box K_3 passes automorphism_violation, as every line's images share
    # row 0 and column 0, and closes to order 2: with the nine row edges as base, 2 * 9 = |E| and
    # the base misses its one image key 0, which is no edge, so only the bijection check stops it
    graph = GridGraph(3, 3)
    action = EdgeAction(graph)
    zero = Permutation(graph, (0,) * 9)
    assert automorphism_violation(graph, zero) is None
    rows = Subgraph(action, [k for k in action.all_keys() if k // 27 == k % 9 // 3])
    alone = generate_group([zero])
    assert alone.order * rows.edge_count == graph.edge_count
    assert 0 not in rows.keys and set(action.image_keys(zero.table, rows.keys)) == {0}
    # as blocks, the base and that image as build would make it; after the row shift, two copies
    # of the table, the first copy is named
    image = Subgraph._ascending(action, array("q", [0] * 9))
    for i, group in ((0, alone), (1, generate_group([row_shift(3, 3), zero, zero]))):
        expected = (f"generator {i} is not a bijection: no vertex maps to (0,1)", (i, "(0,1)"))
        dec = Decomposition((rows, image), group, rows)
        for check, arg in ((build_orbit_decomposition, rows), (verify_decomposition, dec)):
            reason, (index, vertex) = raised(check, graph, group, arg)
            assert (reason, (index, str(vertex))) == expected


def test_base_repeating_a_key_fails_build_and_verify():
    # K_3 box K_3 under the row shift: 3 * 6 = |E| for a base repeating an edge of each of three
    # orbits, yet its images cover 9 of the 18 edges.  The constructor rejects the array; a base
    # whose keys were changed after it was made must fail the certificate, not pass it.
    graph, group, _ = staircase_base(3)
    action = EdgeAction(graph)
    a, b, c = sorted(orbit.keys[0] for orbit in edge_orbits(graph, group)[:3])
    doubled = array("q", [a, a, b, b, c, c])
    with pytest.raises(ValueError, match="^duplicate edge "):
        Subgraph(action, doubled)
    base = Subgraph(action, [a, b, c])
    base.keys[:] = doubled
    assert group.order * base.edge_count == graph.edge_count
    assert _transport(action, group.tables, base.keys, len) == ([6, 6, 6], False)
    expected = outcome(orbit_path_preconditions, graph, group, base)
    assert expected is not None
    assert outcome(build_orbit_decomposition, graph, group, base) == expected
    # the images as blocks, each repeating its keys as build would have made them
    images = (array("q", sorted(action.image_keys(t, doubled))) for t in group.tables)
    dec = Decomposition(tuple(Subgraph._ascending(action, keys) for keys in images), group, base)
    report = verify_decomposition(graph, group, dec)
    assert "is_partition" in report.failed()
    assert report.witnesses == brute_verify_decomposition(graph, group, dec).witnesses
