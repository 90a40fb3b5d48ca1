"""Acceptance gate: every headline claim, checked end to end.

Each test prints one PASS/FAIL line (run with -s to see them on success).
All checks are exact; the only measured quantity is wall-clock time for
the full pipeline, printed per width and bounded at 5 seconds.
"""

import contextlib
import io
import json
import time
from contextlib import contextmanager

import pytest

from rookpaths.cli import main
from rookpaths.decompose import (
    CompleteGraph,
    Subgraph,
    build_orbit_decomposition,
    diagonal_fixture_n4,
    gallai_check,
    haggkvist_split,
    is_path_subgraph,
    k9_fixture,
    partition_witnesses,
    staircase_decomposition,
    verify_decomposition,
)
from rookpaths.grid import GridGraph
from rookpaths.groups import (
    edge_orbits,
    fixed_edge_witness,
    generate_group,
    orbit_census,
    row_shift,
)
from rookpaths.staircase import (
    ConstructionInvalid,
    build_staircase_path,
    is_path,
    one_edge_per_orbit,
    partial_stretch_sum,
    staircase_array,
    stretch,
    walk_from_array,
)

from oracles import (
    ODD_PRIMES,
    adjacency,
    random_step_arrays,
    vertices_distinct,
    walk_edge_orbits_distinct,
    walk_image,
)

_CACHE = {}


def decomposition_for(n):
    if n not in _CACHE:
        started = time.perf_counter()
        _CACHE[n] = staircase_decomposition(n) + (time.perf_counter() - started,)
    return _CACHE[n]


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"acceptance {num} [{name}]: FAIL")
        raise
    else:
        print(f"acceptance {num} [{name}]: PASS")


def test_criterion_1_staircase_end_to_end():
    with criterion(1, "staircase decomposition for every supported width"):
        for n in ODD_PRIMES:
            dec, report, elapsed = decomposition_for(n)
            graph = GridGraph(n, n)
            assert len(dec.blocks) == n
            assert all(is_path_subgraph(b) for b in dec.blocks)
            assert all(b.edge_count == n * (n - 1) for b in dec.blocks)
            assert sum(b.edge_count for b in dec.blocks) == n * n * (n - 1)
            assert graph.edge_count == n * n * (n - 1)
            assert report.all_ok, report.failed()
            print(f"  n={n}: {elapsed:.2f}s")
            assert elapsed < 5.0


def test_criterion_2_base_path_vertex_sequence():
    with criterion(2, "n=3 base path vertex sequence"):
        walk = build_staircase_path(3)
        assert [divmod(i, 3) for i in walk.path] == [
            (0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0), (1, 0),
        ]


def test_criterion_3_orbit_census():
    with criterion(3, "orbit census formula vs enumeration"):
        for n in (3, 5, 7, 9, 11, 13):
            for m in range(2, 14):
                census = orbit_census(n, m)
                orbits = edge_orbits(GridGraph(n, m), generate_group([row_shift(n, m)]))
                horizontal = sum(1 for o in orbits if o.id[0] == "H")
                vertical = sum(1 for o in orbits if o.id[0] == "V")
                assert horizontal == census.horizontal_orbits, (n, m)
                assert vertical == census.vertical_orbits, (n, m)
                assert {o.size for o in orbits} == {census.orbit_size}, (n, m)


def test_criterion_4_partial_sums():
    with criterion(4, "partial stretch sums: closed form, never zero"):
        for n in (3, 5, 7, 11, 13):
            for k in range(1, (n - 1) // 2 + 1):
                steps = stretch(n, k)
                for p in range(1, 2 * n + 1):
                    row = col = 0
                    for q in range(p, 2 * n + 1):
                        dr, dc = steps[q - 1]
                        row = (row + dr) % n
                        col = (col + dc) % n
                        got = partial_stretch_sum(n, k, p, q)
                        assert got == (row, col), (n, k, p, q)
                        assert got != (0, 0), (n, k, p, q)


def test_criterion_5_criteria_vs_oracles():
    with criterion(5, "path and transversal criteria vs brute-force oracles"):
        for n in (3, 5, 7, 9, 11, 13):
            arr = staircase_array(n)
            raw = tuple((dr, dc) for dr, dc in arr)
            walk = walk_from_array((0, 0), arr, n, n)
            assert is_path(walk) == vertices_distinct((0, 0), raw, n, n), n
            assert one_edge_per_orbit(arr, n) == walk_edge_orbits_distinct(
                (0, 0), raw, n, n
            ), n
        checked = 0
        for n, m, steps in random_step_arrays(1000, seed=1729):
            walk = walk_from_array((0, 0), steps, n, m)
            assert is_path(walk) == vertices_distinct((0, 0), steps, n, m)
            assert one_edge_per_orbit(steps, n, m) == walk_edge_orbits_distinct(
                (0, 0), steps, n, m
            )
            checked += 1
        assert checked == 1000


def test_criterion_6_k9_fixture():
    with criterion(6, "K_9 fixture: 3 blocks and 12 triangles"):
        graph, group, base = k9_fixture()
        dec = build_orbit_decomposition(graph, group, base)
        report = verify_decomposition(graph, group, dec)
        assert report.all_ok, report.failed()
        assert len(dec.blocks) == 3
        k9 = CompleteGraph(9)
        triangles = []
        for block in dec.blocks:
            adj = adjacency(block)
            seen = set()
            for u in adj:
                for v in adj[u]:
                    for w in adj[v]:
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
        assert sum(t.edge_count for t in triangles) == 36


def test_criterion_7_diagonal_fixture():
    with criterion(7, "diagonal fixture on the 4 x 4 grid"):
        graph, group, base = diagonal_fixture_n4()
        dec = build_orbit_decomposition(graph, group, base)
        report = verify_decomposition(graph, group, dec)
        assert report.all_ok, report.failed()
        assert len(dec.blocks) == 4
        assert sum(b.edge_count for b in dec.blocks) == 48
        assert all(b.edge_count == 12 for b in dec.blocks)


def test_criterion_8_negative_controls(tmp_path):
    with criterion(8, "negative controls fail loudly"):
        with pytest.raises(ConstructionInvalid) as info:
            build_staircase_path(9)
        assert info.value.check == "path"
        assert info.value.witness is not None

        witness = fixed_edge_witness(GridGraph(2, 3), generate_group([row_shift(2, 3)]))
        assert witness is not None

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            assert main(["generate", "--n", "9", "--force"]) == 2
            assert main(["orbits", "--n", "2", "--m", "3"]) == 2

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(["generate", "--n", "3"]) == 0
        data = json.loads(out.getvalue())
        data["blocks"][0]["edges"][0] = data["blocks"][1]["edges"][0]
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(data), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(["verify", "--input", str(mutated)]) == 2
        report = json.loads(out.getvalue())
        assert report["is_partition"] is False
        assert report["witnesses"]["is_partition"]["duplicated"]
        assert report["witnesses"]["is_partition"]["missing"]


def test_criterion_9_refinement():
    with criterion(9, "block count bound and short-path refinement"):
        for n in ODD_PRIMES:
            dec, report, _ = decomposition_for(n)
            graph = GridGraph(n, n)
            assert gallai_check(graph, dec)
            segments = []
            for t in dec.group.tables:
                segments.extend(haggkvist_split(walk_image(dec.base.walk, t), n - 1))
            assert len(segments) == n * n
            assert all(s.edge_count == n - 1 for s in segments)
            assert all(is_path_subgraph(s) for s in segments)
            check = partition_witnesses(graph, segments)
            assert check.ok, (n, check)
