"""The partition certificate of the base's images, against sorting all edge keys.

``decompose._partitioned`` certifies that the |G| images of the base
partition E from |G| * |B| = |E|, automorphic generators and a base of
edge keys disjoint from every non-identity image.  The certificate implies
``_covers_once``, and the builder and verifier fall back to it (and to the
per-flag checks) whenever the certificate fails, so every outcome is the
one the sort gives.
"""

import random

import pytest

from rookpaths.decompose import (
    Decomposition,
    PreconditionFailed,
    Subgraph,
    _covers_once,
    _edge_keys,
    _partitioned,
    build_orbit_decomposition,
    diagonal_fixture_n4,
    k9_fixture,
    staircase_decomposition,
    verify_decomposition,
)
from rookpaths.grid import GridGraph
from rookpaths.groups import EdgeAction, Permutation, edge_orbits, generate_group, row_shift
from rookpaths.staircase import build_staircase_path

from oracles import brute_verify_decomposition, orbit_path_preconditions


def certificate(graph, group, base) -> tuple[bool, bool]:
    """(the certificate, whether the images cover every edge once by sorting)."""
    action = EdgeAction(graph, group)
    images = [Subgraph(action, action.image_keys(t, base.keys)).keys for t in action.tables]
    partitioned = _edge_keys(action, base.keys) and _partitioned(action, group, base.keys, images[1:])
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


def test_non_automorphism_generator_is_never_certified():
    # swapping (0,0) and (1,1) sends (0,0)-(0,2) to the non-edge (1,1)-(0,2)
    graph = GridGraph(3, 3)
    table = list(range(9))
    table[0], table[4] = 4, 0
    cases = [(graph, generate_group([Permutation(graph, tuple(table))]), base)
             for base in random_bases(graph, 9, 25, seed=3)]
    # the two rows of the 4-cycle: 2 * 2 = |E| and the base misses its image, two diagonals
    c4, group = c4_swap()
    cases += [(c4, group, base) for base in random_bases(c4, 2, 6, seed=2)]
    rows = Subgraph(EdgeAction(c4), [1, 2 * 4 + 3])
    cases.append((c4, group, rows))
    for graph, group, base in cases:
        partitioned, covered = certificate(graph, group, base)
        assert not partitioned
        built = outcome(build_orbit_decomposition, graph, group, base)
        assert (built is None) == covered
    # the images as blocks: the verifier range-checks them instead of certifying them
    action = EdgeAction(c4, group)
    images = tuple(Subgraph(action, action.image_keys(t, rows.keys)) for t in action.tables)
    with pytest.raises(ValueError, match=r"^\(0,0\)-\(1,1\) is not an edge of K_2 box K_2$"):
        verify_decomposition(c4, group, Decomposition(images, group, rows))


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
    report = verify_decomposition(c4, swap, every_edge(c4, swap))
    assert report.witnesses["group_invariant"] == {"block_index": 0, "generator_index": 0}


@pytest.mark.parametrize(
    "base_key, block_key, message",
    [
        ("out of range", None, "key 628 is not an edge of K_5 box K_5"),
        ("negative", None, "key -7 is not an edge of K_5 box K_5"),
        ("diagonal", None, r"\(0,0\)-\(1,1\) is not an edge of K_5 box K_5"),
        ("loop", None, r"\(1,1\)-\(1,1\) is not an edge of K_5 box K_5"),
        # blocks are range-checked before the base
        ("out of range", "diagonal", r"\(0,0\)-\(1,1\) is not an edge of K_5 box K_5"),
        ("diagonal", "out of range", "key 628 is not an edge of K_5 box K_5"),
        ("loop", "negative", "key -7 is not an edge of K_5 box K_5"),
    ],
)
def test_bad_keys_raise_the_same_value_error(base_key, block_key, message):
    dec, _ = staircase_decomposition(5)
    action = dec.base.action
    size = action.size
    bad = {"out of range": size * size + 3, "negative": -7, "diagonal": 6, "loop": 6 * size + 6}

    def with_key(sub, name):
        return Subgraph(action, list(sub.keys[:-1]) + [bad[name]])

    blocks = dec.blocks
    if block_key is not None:
        blocks = (with_key(blocks[0], block_key),) + blocks[1:]
    tampered = Decomposition(blocks, dec.group, with_key(dec.base, base_key))
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_decomposition(action.graph, dec.group, tampered)
