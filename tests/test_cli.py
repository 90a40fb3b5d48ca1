"""End-to-end CLI behavior: exit codes, payloads, and streams."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rookpaths
from rookpaths import cli, decompose, serialize
from rookpaths.cli import SUBCOMMANDS, build_parser, main, parse_command
from rookpaths.decompose import Subgraph, VerificationReport
from rookpaths.grid import GridGraph, GridVertex
from rookpaths.groups import OrbitCensus, diagonal_shift, edge_orbits, generate_group, row_shift
from rookpaths.serialize import MAX_EDGES, orbit_id_str

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_n5(capsys):
    code, out, err = run(capsys, "generate", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert len(data["blocks"]) == 5
    assert all(data["report"][k] is True for k in data["report"])
    assert "verified" in err


def test_generate_builds_no_vertex_tuple(capsys):
    # the actions, the checks and the writers read vertex indices; only witnesses read objects
    commands = ("generate --n 23", "split --n 7", "orbits --n 7 --edges")
    dot = ("generate --n 7 --format dot", "split --n 7 --format dot", "examples diag4 --format dot")
    for command in commands + dot:
        GridGraph.vertices.cache_clear()
        code, _, _ = run(capsys, *command.split())
        assert code == 0
        info = GridGraph.vertices.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0), command


def test_generate_rejects_nine_without_force(capsys):
    code, out, err = run(capsys, "generate", "--n", "9")
    assert code == 1
    assert out == ""
    assert "--force" in err


def test_generate_refuses_widths_over_the_edge_cap(capsys):
    # 131^2 * 130 = 2,230,930 edges fit the cap; 137^2 * 136 = 2,552,584 do not
    assert 131 * 131 * 130 <= MAX_EDGES < 137 * 137 * 136
    started = time.perf_counter()
    code, out, err = run(capsys, "generate", "--n", "137")
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out == ""
    assert err == "error: width 137 gives 2552584 edges, over verify's cap of 2500000\n"


def test_generate_nine_forced_fails_path_check(capsys):
    code, out, err = run(capsys, "generate", "--n", "9", "--force")
    assert code == 2
    assert "path" in err
    assert "(1,0)" in err


def test_generate_rejects_even(capsys):
    code, _, err = run(capsys, "generate", "--n", "4")
    assert code == 1
    assert "odd prime" in err


def test_generate_deterministic(capsys):
    code1, out1, _ = run(capsys, "generate", "--n", "7")
    code2, out2, _ = run(capsys, "generate", "--n", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_generate_edges_format(capsys):
    code, out, _ = run(capsys, "generate", "--n", "3", "--format", "edges")
    assert code == 0
    assert out.count("# block") == 3
    assert out.count("-") == 18


def test_generate_dot_format(capsys):
    code, out, _ = run(capsys, "generate", "--n", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph decomposition {")
    assert len([ln for ln in out.splitlines() if " -- " in ln]) == 18


def test_verify_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--n", "7")
    path = tmp_path / "n7.json"
    path.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert all(report[k] is True for k in report)


def test_verify_moved_edge(tmp_path, capsys):
    _, out, _ = run(capsys, "generate", "--n", "3")
    data = json.loads(out)
    data["blocks"][0]["edges"][0] = data["blocks"][1]["edges"][0]
    path = tmp_path / "mut.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["is_partition"] is False
    assert report["witnesses"]["is_partition"]["duplicated"]
    assert report["witnesses"]["is_partition"]["missing"]
    assert "is_partition" in err


def test_verify_deleted_edge(tmp_path, capsys):
    _, out, _ = run(capsys, "generate", "--n", "3")
    data = json.loads(out)
    del data["blocks"][0]["edges"][0]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["is_partition"] is False
    assert report["witnesses"]["is_partition"]["missing"] == [[[0, 0], [0, 1]]]


def test_verify_truncated_json(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"graph":{"kind":"grid",', encoding="utf-8")
    code, _, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert "invalid JSON" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--input", "/no/such/file.json")
    assert code == 1
    assert "cannot read" in err


def swap_generator_doc(generators: list) -> dict:
    """K_2 box K_2 with explicit generators, one edge as base and as the only block."""
    return {
        "graph": {"kind": "grid", "n": 2, "m": 2},
        "group": {"kind": "explicit", "order": 2, "generators": generators},
        "base": {"edges": [[[0, 0], [0, 1]]]},
        "blocks": [{"edges": [[[0, 0], [0, 1]]]}],
        "report": {
            "is_partition": False,
            "blocks_isomorphic_to_base": True,
            "group_invariant": False,
            "group_transitive": False,
            "stabilizer_trivial": True,
            "semiregular": True,
        },
    }


def explicit_map(*images) -> dict:
    """An explicit generator sending (0,0), (0,1), (1,0), (1,1) to ``images``, in that order."""
    sources = [[0, 0], [0, 1], [1, 0], [1, 1]]
    return {"kind": "explicit", "map": [[u, list(v)] for u, v in zip(sources, images)]}


SWAP = explicit_map((0, 0), (0, 1), (1, 1), (1, 0))  # swaps (1,0) and (1,1): no automorphism
IDENTITY = explicit_map((0, 0), (0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize(
    "generators, index",
    [([SWAP], 0), ([IDENTITY, SWAP, SWAP], 1)],
    ids=["swap", "identity-swap-swap"],
)
def test_verify_non_automorphism_generator(tmp_path, capsys, generators, index):
    # a repeated failing generator is named by its first copy
    path = tmp_path / "bad_gen.json"
    path.write_text(json.dumps(swap_generator_doc(generators)), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == f"generator {index} is not an automorphism: image of (0,0)-(1,0) is not an edge\n"


def report_flags(*false):
    return {flag: flag not in false for flag in VerificationReport.FLAGS}


def test_verify_cycle_block_beyond_isomorphism_cap(tmp_path, capsys):
    # a 20-vertex cycle on K_20 under the trivial group: the only block is the
    # base, which has more vertices than the isomorphism search accepts
    n = 20
    cycle = [[1, 2], [1, n]] + [[v, v + 1] for v in range(2, n)]
    payload = {
        "graph": {"kind": "complete", "n": n},
        "group": {
            "kind": "explicit",
            "order": 1,
            "generators": [{"kind": "explicit", "map": [[v, v] for v in range(1, n + 1)]}],
        },
        "base": {"edges": cycle},
        "blocks": [{"edges": cycle}],
        "report": report_flags(),
    }
    path = tmp_path / "cycle20.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    report = json.loads(out)
    witnesses = report.pop("witnesses")
    assert report == report_flags("is_partition")
    missing = [[a, b] for a in range(1, n + 1) for b in range(a + 1, n + 1) if [a, b] not in cycle]
    assert len(missing) == 170
    assert witnesses == {"is_partition": {"duplicated": [], "missing": missing, "foreign": []}}
    assert "is_partition" in err


def trivial_group_file(tmp_path, n, base, blocks):
    """A K_n document under the trivial group, with edges given as label pairs."""
    payload = {
        "graph": {"kind": "complete", "n": n},
        "group": {
            "kind": "explicit",
            "order": 1,
            "generators": [{"kind": "explicit", "map": [[v, v] for v in range(1, n + 1)]}],
        },
        "base": {"edges": base},
        "blocks": [{"edges": b} for b in blocks],
        "report": report_flags(),
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


INPUT_CHECKS = [
    ({"graph": {"kind": "complete", "n": 0}}, "$.graph.n: complete graph needs n >= 1, got 0"),
    # under the vertex cap, over the edge cap
    ({"graph": {"kind": "complete", "n": 3000}},
     "$.graph: K_3000 has 4498500 edges, more than the cap of 2500000"),
    ({"graph": {"kind": "grid", "n": 141, "m": 141}},
     "$.graph: K_141 box K_141 has 2783340 edges, more than the cap of 2500000"),
    ({"group": {"kind": "explicit", "order": 1, "generators": [{"kind": "rotate"}]}},
     "$.group.generators[0].kind: unknown permutation kind 'rotate'"),
    ({"base": {}}, "$.base: base needs either start+steps or edges"),
]


@pytest.mark.parametrize("change, message", INPUT_CHECKS)
def test_verify_refuses_each_malformed_part(tmp_path, capsys, change, message):
    # a valid K_3 file under the trivial group, with one part replaced
    path = trivial_group_file(tmp_path, 3, [[1, 2], [2, 3], [1, 3]], [[[1, 2], [2, 3], [1, 3]]])
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    assert run(capsys, "verify", "--input", path)[0] == 0
    Path(path).write_text(json.dumps({**doc, **change}), encoding="utf-8")
    assert run(capsys, "verify", "--input", path) == (1, "", f"error: {message}\n")


def test_verify_two_different_cycles(tmp_path, capsys):
    # base: the cycle 1..20; block: the cycle 1,3,...,19,2,4,...,20.  The block is
    # no image of the base, and both are 20-cycles, so they are isomorphic; the
    # base is no block, so the blocks are not its orbit
    n = 20
    base = [sorted((v, v % n + 1)) for v in range(1, n + 1)]
    order = list(range(1, n, 2)) + list(range(2, n + 1, 2))
    block = [sorted(pair) for pair in zip(order, order[1:] + order[:1])]
    path = trivial_group_file(tmp_path, n, base, [block])
    code, out, err = run(capsys, "verify", "--input", path)
    assert code == 2
    report = json.loads(out)
    witnesses = report.pop("witnesses")
    assert report == report_flags("is_partition", "group_transitive")
    assert len(witnesses["is_partition"]["missing"]) == 170
    assert witnesses["is_partition"]["duplicated"] == []
    assert witnesses["group_transitive"] == {"unreached_blocks": [0]}
    assert "is_partition" in err


def test_verify_row_shift_witness_is_an_explicit_map(tmp_path, capsys):
    # K_2 box K_3 under the row shift, whose one non-identity element swaps the rows: it fixes the
    # base edge, and the witness names it as an explicit map, though it equals the row shift
    edge = [[0, 0], [1, 0]]
    payload = {
        "graph": {"kind": "grid", "n": 2, "m": 3},
        "group": {"kind": "row_shift", "order": 2},
        "base": {"edges": [edge]},
        "blocks": [{"edges": [edge]}],
        "report": report_flags(),
    }
    path = tmp_path / "k2k3.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert out == (
        '{"is_partition":false,"blocks_isomorphic_to_base":true,"group_invariant":true,'
        '"group_transitive":true,"stabilizer_trivial":false,"semiregular":false,"witnesses":'
        '{"is_partition":{"duplicated":[],"missing":[[[0,0],[0,1]],[[0,0],[0,2]],[[0,1],[0,2]],'
        '[[0,1],[1,1]],[[0,2],[1,2]],[[1,0],[1,1]],[[1,0],[1,2]],[[1,1],[1,2]]],"foreign":[]},'
        '"stabilizer_trivial":{"stabilizer_order":2},"semiregular":{"element":{"kind":"explicit",'
        '"map":[[[0,0],[1,0]],[[0,1],[1,1]],[[0,2],[1,2]],[[1,0],[0,0]],[[1,1],[0,1]],'
        '[[1,2],[0,2]]]},"edge":[[0,0],[1,0]]}}}\n'
    )
    assert err == "verification failed: is_partition, stabilizer_trivial, semiregular\n"


def test_verify_degree_three_block_beyond_cap(tmp_path, capsys):
    # 19 vertices and a degree-3 vertex: only the capped search could decide
    path_edges = [[v, v + 1] for v in range(1, 18)]
    base = path_edges + [[2, 19]]
    other = path_edges + [[3, 19]]
    path = trivial_group_file(tmp_path, 20, base, [base, other])
    code, out, err = run(capsys, "verify", "--input", path)
    assert code == 1
    assert out == ""
    assert "$.blocks[1]" in err
    assert "Traceback" not in err


def test_verify_rejects_huge_grid_quickly(tmp_path, capsys):
    payload = {
        "graph": {"kind": "grid", "n": 100_000, "m": 100_000},
        "group": {"kind": "row_shift", "order": 100_000},
        "base": {"edges": [[[0, 0], [0, 1]]]},
        "blocks": [{"edges": [[[0, 0], [0, 1]]]}],
        "report": report_flags(),
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out == ""
    assert "$.graph" in err


def test_orbits_refuses_grids_over_the_edge_cap(capsys):
    # K_400 box K_400 has 63,840,000 edges; a child process bounds the wait
    # in case the cap is not checked before the orbits are enumerated
    argv = ["orbits", "--n", "400"]
    env = {**os.environ, "PYTHONPATH": str(Path(rookpaths.__file__).parents[1])}
    child = [sys.executable, "-m", "rookpaths", *argv]
    done = subprocess.run(child, capture_output=True, text=True, timeout=5, env=env)
    assert done.returncode == 1
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out == ""
    assert err == f"error: K_400 box K_400 has 63840000 edges, over the cap of {MAX_EDGES}\n"


def test_verify_caps_the_base_images(tmp_path, capsys):
    # K_300 under a 251-cycle passes the vertex, edge and |G|*|V| caps, but the
    # verifier would image the 44,850-edge base under all 251 elements
    n, order = 300, 251
    edges = [[a, b] for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    cycle = [[v, v % order + 1] if v <= order else [v, v] for v in range(1, n + 1)]
    payload = {
        "graph": {"kind": "complete", "n": n},
        "group": {
            "kind": "explicit",
            "order": order,
            "generators": [{"kind": "explicit", "map": cycle}],
        },
        "base": {"edges": edges},
        "blocks": [{"edges": edges}],
        "report": report_flags(),
    }
    path = tmp_path / "k300.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert out == ""
    assert err == "error: $.base: 11257350 base edge images, more than the cap of 2500000\n"


def test_verify_caps_the_block_edges(tmp_path, capsys, monkeypatch):
    # fig3 has 18 edges in 3 blocks: under a cap of 20 it parses, its blocks thrice do not
    _, out, _ = run(capsys, "examples", "fig3")
    monkeypatch.setattr(serialize, "MAX_EDGES", 20)
    path = tmp_path / "fig3.json"
    path.write_text(out, encoding="utf-8")
    assert run(capsys, "verify", "--input", str(path))[0] == 0
    data = json.loads(out)
    data["blocks"] *= 3
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: $.blocks[3].edges: 24 block edges in all, more than the cap of 20\n"


def rotations_of_k17(shifts):
    """K_17 under the rotations i -> i + s, s in ``shifts``, with its 17 difference-class blocks."""
    n = 17

    def rotate(v, s):
        return (v - 1 + s) % n + 1

    base = [[1, 1 + d] for d in range(1, 9)]
    return {
        "graph": {"kind": "complete", "n": n},
        "group": {
            "kind": "explicit",
            "order": n,
            "generators": [
                {"kind": "explicit", "map": [[v, rotate(v, s)] for v in range(1, n + 1)]}
                for s in shifts
            ],
        },
        "base": {"edges": base},
        "blocks": [
            {"edges": sorted(sorted(rotate(v, s) for v in e) for e in base)} for s in range(n)
        ],
        "report": report_flags(),
    }


def test_verify_caps_the_distinct_generators(tmp_path, capsys):
    path = tmp_path / "k17.json"
    # 16 distinct rotations generate the order-17 group; repeated copies count once
    for shifts in (range(1, 17), [*range(1, 17), 1, 16, 5]):
        path.write_text(serialize.dumps(rotations_of_k17(shifts)), encoding="utf-8")
        assert run(capsys, "verify", "--input", str(path))[0] == 0
    # all 17 elements: the 17th distinct table is past the cap, even after repeated ones
    path.write_text(serialize.dumps(rotations_of_k17([1, 1, *range(17)])), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: $.group.generators[18]: 17 distinct generators, more than the cap of 16\n"


def test_verify_rejects_wrong_declared_order(tmp_path, capsys):
    _, out, _ = run(capsys, "generate", "--n", "5")
    data = json.loads(out)
    data["group"]["order"] = 999
    path = tmp_path / "order999.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert out == ""
    assert "$.group.order" in err


def test_verify_base_walk_repeating_an_edge(tmp_path, capsys):
    _, out, _ = run(capsys, "generate", "--n", "3")
    data = json.loads(out)
    data["base"] = {"start": [0, 0], "steps": [[0, 1], [0, 2]]}
    path = tmp_path / "retrace.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: $.base.steps: duplicate edge (0,0)-(0,1)\n"


def test_verify_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1


def test_verify_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: $: invalid JSON: nested too deeply\n"

def test_verify_integer_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "digits.json"
    path.write_text('{"graph":' + "1" * 5000 + "}", encoding="utf-8")
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: $: invalid JSON: Exceeds the limit")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_orbits_3x3(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "3", "--m", "3")
    assert code == 0
    assert "orbits: 6" in out
    assert "sizes: 3" in out
    assert "census:" in out and "OK" in out


def test_orbits_3x4(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "3", "--m", "4")
    assert code == 0
    assert "orbits: 10" in out


def test_orbits_2x3_not_semiregular(capsys):
    code, out, err = run(capsys, "orbits", "--n", "2", "--m", "3")
    assert code == 2
    assert "not semiregular" in err
    assert "fixes" in err


def test_orbits_even_square_row_shift(capsys):
    code, _, err = run(capsys, "orbits", "--n", "4")
    assert code == 2
    assert "not semiregular" in err


def test_orbits_diagonal_4(capsys):
    code, out, err = run(capsys, "orbits", "--n", "4", "--group", "diagonal_shift")
    assert code == 0
    assert "orbits: 12" in out
    assert "census" not in out
    assert err == ""


def test_orbits_diagonal_requires_square(capsys):
    code, _, err = run(capsys, "orbits", "--n", "3", "--m", "4", "--group", "diagonal_shift")
    assert code == 1
    assert "square" in err


def test_orbits_edges_flag(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "3", "--m", "3", "--edges")
    assert code == 0
    assert "  (0,0)-(0,1)" in out


ORBIT_LISTINGS = [("row_shift", n, m) for n in range(2, 8) for m in range(2, 8)]
ORBIT_LISTINGS += [("diagonal_shift", n, n) for n in range(3, 7)]


@pytest.mark.parametrize("group, n, m", ORBIT_LISTINGS)
def test_orbits_edges_lists_each_member_edge_as_its_str(capsys, group, n, m):
    _, out, _ = run(capsys, "orbits", "--n", str(n), "--m", str(m), "--group", group, "--edges")
    perm = row_shift(n, m) if group == "row_shift" else diagonal_shift(n)
    expected = []
    for orbit in edge_orbits(GridGraph(n, m), generate_group([perm])):
        expected.append(f"{orbit_id_str(orbit.id)} size={orbit.size}")
        expected += ["  " + str(e) for e in orbit.action.edges(orbit.keys)]
    lines = out.splitlines()
    assert lines[4 : 4 + len(expected)] == expected
    assert [line[:7] for line in lines[4 + len(expected) :]] in ([], ["census:"])


SEMIREGULAR = [("row_shift", n, m) for n in (3, 5, 7) for m in range(2, 8)]
SEMIREGULAR += [("diagonal_shift", n, n) for n in range(3, 7)]


def test_semiregular_orbits_run_no_fixed_edge_scan(capsys, monkeypatch):
    # every orbit has |G| edges, so no non-identity element fixes an edge (orbit-stabilizer)
    expected = {}
    for group, n, m in SEMIREGULAR:
        for edges in ([], ["--edges"]):
            argv = ["orbits", "--n", str(n), "--m", str(m), "--group", group, *edges]
            expected[tuple(argv)] = run(capsys, *argv)

    def no_scan(graph, group):
        raise AssertionError("fixed_edge_witness called on a semiregular action")

    monkeypatch.setattr(cli, "fixed_edge_witness", no_scan)
    for argv, before in expected.items():
        assert run(capsys, *argv) == before == (0, before[1], ""), argv


def test_short_orbits_still_name_the_fixed_edge(capsys):
    code, out, err = run(capsys, "orbits", "--n", "4", "--m", "6")
    assert code == 2
    assert "sizes: 2,4" in out
    assert err == "warning: not semiregular on edges: a non-identity element fixes (0,0)-(2,0)\n"


@pytest.mark.parametrize(
    "census, expected",
    [
        (
            (4, 3, 3),
            "census: MISMATCH expected horizontal=4 vertical=3 size=3,"
            " enumerated horizontal=3 vertical=3 sizes=3",
        ),
        (
            (3, 3, 5),
            "census: MISMATCH expected horizontal=3 vertical=3 size=5,"
            " enumerated horizontal=3 vertical=3 sizes=3",
        ),
    ],
)
def test_orbits_census_mismatch_exits_2(capsys, monkeypatch, census, expected):
    monkeypatch.setattr(cli, "orbit_census", lambda n, m: OrbitCensus(*census))
    code, out, err = run(capsys, "orbits", "--n", "3", "--m", "3")
    assert code == 2
    assert out.splitlines()[-1] == expected
    assert err == ""


def test_orbits_bad_dimensions(capsys):
    code, _, err = run(capsys, "orbits", "--n", "1", "--m", "3")
    assert code == 1


def test_examples_k9(capsys):
    code, out, err = run(capsys, "examples", "k9")
    assert code == 0
    data = json.loads(out)
    assert data["graph"] == {"kind": "complete", "n": 9}
    assert len(data["blocks"]) == 3
    assert "blocks=3 edges=36 verified=True" in err


def test_examples_fig3(capsys):
    code, out, err = run(capsys, "examples", "fig3")
    assert code == 0
    data = json.loads(out)
    assert data["base"]["start"] == [0, 0]
    assert data["base"]["steps"] == [[0, 1], [1, 0], [0, 1], [1, 0], [0, 1], [2, 0]]
    assert "blocks=3 edges=18 verified=True" in err


def test_examples_diag4(capsys):
    code, out, err = run(capsys, "examples", "diag4")
    assert code == 0
    data = json.loads(out)
    assert data["group"]["kind"] == "diagonal_shift"
    assert len(data["blocks"]) == 4
    assert "blocks=4 edges=48 verified=True" in err


def test_examples_unknown_name(capsys):
    code, _, _ = run(capsys, "examples", "petersen")
    assert code == 1


def test_examples_round_trip_through_verify(tmp_path, capsys):
    for name in ("k9", "diag4"):
        _, out, _ = run(capsys, "examples", name)
        path = tmp_path / f"{name}.json"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0, name
        report = json.loads(out)
        assert all(report[k] is True for k in report)


def test_split_default(capsys):
    code, out, err = run(capsys, "split", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["segment_count"] == 25
    assert data["edges_per_segment"] == 4
    assert data["is_partition"] is True
    assert data["segments_are_paths"] is True
    assert len(data["segments"]) == 25
    assert "25 segments" in err


def test_split_n3_edges_format(capsys):
    code, out, _ = run(capsys, "split", "--n", "3", "--format", "edges")
    assert code == 0
    assert out.count("# block") == 9


def test_split_indivisible(capsys):
    code, _, err = run(capsys, "split", "--n", "5", "--b", "3")
    assert code == 1
    assert "divide" in err


def test_split_builds_no_adjacency(capsys, monkeypatch):
    # the cut is checked against the base walk's keys; the stdout is the one digests.json pins
    calls = []
    index_adjacency = decompose._index_adjacency
    monkeypatch.setattr(decompose, "_index_adjacency", lambda sub: calls.append(sub) or index_adjacency(sub))
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))["commands"]
    for command in ("split --n 7", "split --n 7 --b 1", "split --n 7 --format dot"):
        code, out, err = run(capsys, *command.split())
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (0, digests[command])
        assert "segments of" in err
    assert calls == []


def test_split_reports_a_refinement_that_fails_both_checks(capsys, monkeypatch):
    # block 0's first segment loses its last edge and holds segment 1's first a second time
    split, walks = cli.haggkvist_split, []

    def tampered(walk, b):
        segments = split(walk, b)
        walks.append(walk)
        if len(walks) == 1:
            first, second = segments[0], segments[1]
            segments[0] = Subgraph(first.action, [*first.keys[:-1], second.keys[0]])
        return segments

    monkeypatch.setattr(cli, "haggkvist_split", tampered)
    code, out, err = run(capsys, "split", "--n", "5")
    assert (code, err) == (2, "refinement failed verification\n")
    data = json.loads(out)
    assert (data["is_partition"], data["segments_are_paths"]) == (False, False)
    assert (data["segment_count"], len(walks)) == (25, 1)


def test_split_checks_the_segment_keys_it_prints(capsys, monkeypatch):
    # each block's keys sorted and then cut: the segments still partition E, but no printed
    # segment is a path, even though each keeps whatever walk the true segment carries
    split, printed = cli.haggkvist_split, []

    def sorted_then_cut(walk, b):
        segments = split(walk, b)
        keys = sorted(k for s in segments for k in s.keys)
        cut = [Subgraph(s.action, keys[i * b : i * b + b], s.walk) for i, s in enumerate(segments)]
        printed.extend(cut)
        return cut

    monkeypatch.setattr(cli, "haggkvist_split", sorted_then_cut)
    code, out, err = run(capsys, "split", "--n", "5")
    assert (code, err) == (2, "refinement failed verification\n")
    data = json.loads(out)
    assert (data["is_partition"], data["segments_are_paths"]) == (True, False)
    assert (len(printed), data["segment_count"]) == (5, 25)
    assert not any(decompose.is_path_subgraph(s) for s in printed)


def test_split_checks_that_the_cut_covers_the_base_walk(capsys, monkeypatch):
    # the cut one segment short: each segment it keeps is a stretch of the base walk, sorted,
    # but together they miss the walk's last b keys
    split = cli.haggkvist_split
    monkeypatch.setattr(cli, "haggkvist_split", lambda walk, b: split(walk, b)[:-1])
    code, out, err = run(capsys, "split", "--n", "5")
    assert (code, err) == (2, "refinement failed verification\n")
    data = json.loads(out)
    assert (data["is_partition"], data["segments_are_paths"]) == (False, False)
    assert data["segment_count"] == 20


# b values dividing n(n-1), 1 and n(n-1) among them
SPLIT_SIZES = {
    3: (1, 2, 3, 6),
    5: (1, 2, 4, 5, 10, 20),
    7: (1, 3, 6, 7, 21, 42),
    11: (1, 5, 10, 11, 55, 110),
    13: (1, 4, 12, 13, 78, 156),
}


@pytest.mark.parametrize("n,b", [(n, b) for n, sizes in SPLIT_SIZES.items() for b in sizes])
def test_split_prints_each_block_walk_cut_into_b_edge_paths(capsys, n, b):
    # split checks its cut on the base alone and prints the cut's images; here each block
    # walk is imaged and cut on its own, and the printed segments are checked as paths and
    # as a partition of E
    code, out, _ = run(capsys, "split", "--n", str(n), "--b", str(b))
    assert code == 0
    graph = GridGraph(n, n)
    printed = [
        Subgraph.of_edges(graph, [graph.edge(GridVertex(*u), GridVertex(*v)) for u, v in s["edges"]])
        for s in json.loads(out)["segments"]
    ]
    dec, _ = decompose.staircase_decomposition(n)
    expected = []
    for t in dec.group.tables:
        keys = dec.base.action.walk_keys(oracles.walk_image(dec.base.walk, t))
        expected += [array("q", sorted(keys[i : i + b])) for i in range(0, len(keys), b)]
    assert [s.keys for s in printed] == expected
    assert all(decompose.is_path_subgraph(s) for s in printed)
    assert decompose.partition_witnesses(graph, printed).ok


@pytest.mark.parametrize("b", ["0", "-1"])
def test_split_refuses_a_segment_size_below_one(capsys, b):
    code, out, err = run(capsys, "split", "--n", "5", "--b", b)
    assert (code, out) == (1, "")
    assert err == f"error: segment size must be positive, got {b}\n"


def test_split_rejects_nine(capsys):
    code, _, err = run(capsys, "split", "--n", "9")
    assert code == 1
    assert "--force" in err
    code, _, err = run(capsys, "split", "--n", "9", "--force")
    assert code == 2


def test_usage_errors(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["generate"]) == 1
    capsys.readouterr()
    assert main(["generate", "--n", "x"]) == 1
    capsys.readouterr()
    assert main(["generate", "--bogus"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["generate", "--help"]) == 0
    capsys.readouterr()


def test_commands_in_one_process_match_fresh_processes(tmp_path, capsys, monkeypatch):
    """Commands run one after another in one process give what each gives alone in a fresh one."""
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps to the terminal width
    _, out, _ = run(capsys, "generate", "--n", "5")
    data = json.loads(out)
    data["blocks"][1]["edges"].append(data["blocks"][0]["edges"].pop())
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data), encoding="utf-8")
    commands = [
        ["generate", "--n", "x"],
        ["--help"],
        ["generate", "--n", "5"],
        ["frobnicate"],
        ["verify", "--input", str(tampered)],
        ["generate", "--n", "5", "verify"],
        ["generate", "--", "--n", "5"],
        ["generate", "--n", "5", "-h"],
        ["generate", "--n", "5"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(rookpaths.__file__).parents[1])}
    codes = []
    for argv in commands:
        in_process = run(capsys, *argv)
        alone = subprocess.run(
            [sys.executable, "-m", "rookpaths", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert in_process == (alone.returncode, alone.stdout, alone.stderr), argv
        codes.append(in_process[0])
    assert codes == [1, 0, 0, 1, 2, 1, 1, 0, 0]


COMMANDS = ["generate", "verify", "orbits", "examples", "split"]
PARSER_CASES = [
    [], ["--help"], ["-h", "generate"], ["--", "generate", "--n", "5"], ["frobnicate"],
    ["gen", "--n", "5"], ["--n", "5", "generate"], ["generate"], ["generate", "--n", "x"],
    ["generate", "--n=5", "--format=edges", "--force"], ["generate", "--n", "5", "verify"],
    ["verify", "--input", "x.json"], ["verify", "--input"], ["orbits", "--n", "3", "--m"],
    ["orbits", "--n", "3", "--m", "4", "--group", "diagonal_shift", "--edges"],
    ["orbits", "--n", "3", "--group", "split"], ["examples", "k10"], ["examples", "diag4"],
    ["split", "--n", "5", "--b", "generate"], ["split", "--n", "7", "--b", "3", "--format", "dot"],
    *([name, "--help"] for name in COMMANDS),
]


def parse_outcome(parse, argv):
    """The namespace parse(argv) returns, or its exit code, with what it printed to each stream."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def assert_parses_as_the_full_parser(argv):
    expected = parse_outcome(lambda a: build_parser().parse_args(a), argv)
    assert parse_outcome(parse_command, argv) == expected, argv


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_parse_command_parses_as_the_full_parser(argv):
    """The subcommand's parser alone, or the full one: the namespace, exit code and text of the full one."""
    assert_parses_as_the_full_parser(argv)


# subcommand names and abbreviations, every option whole, abbreviated and as --opt=value,
# "--", help, and values: negative, non-int, choices and stray positionals
HEADS = [*COMMANDS, "gen", "ver", "orb", "ex", "spl", "--", "-h", "--he", "--n", "5"]
TOKENS = [
    *COMMANDS, "gen", "--", "-h", "--h", "--he", "--help",
    "--n", "--n=5", "--n=", "--format", "--fo", "--form=dot", "--format=edges", "--f",
    "--force", "--forc", "--input", "--in", "--input=", "--input=x.json", "--i",
    "--m", "--m=4", "--group", "--gr", "--group=diagonal_shift", "--edges", "--ed", "--e",
    "--b", "--b=2", "--bogus", "-n", "-x",
    "5", "3", "-3", "0", "x", "1.5", "", "json", "dot", "edges", "k9", "fig3", "diag4", "k10",
    "row_shift", "diagonal_shift", "x.json", "stray",
]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(head=st.sampled_from(HEADS), tail=st.lists(st.sampled_from(TOKENS), max_size=7))
def test_parse_command_parses_drawn_argv_as_the_full_parser(head, tail):
    assert_parses_as_the_full_parser([head, *tail])


# values for a subcommand's own options: ints that int() reads, for an option of type int;
# every choice and one non-choice, for an option with choices; a path, for --input; and for
# any of them tokens that no option reads or that start with "-", and a subcommand name
INTS = ["5", "7", " 5", "+5", "5_0", "١٢", "07"]
ANY_VALUE = ["", "-3", "x", "1.5", "x.json", "generate"]


def values(options: dict):
    if "choices" in options:
        own = [*options["choices"], "other"]
    else:
        own = INTS if "type" in options else ["x.json"]
    return st.sampled_from(own) | st.sampled_from(own + ANY_VALUE)


@st.composite
def own_option_argv(draw):
    """A subcommand, some of its own option strings in any order, repeats included, each
    followed by a drawn value (a store_true one about a quarter of the time), and examples'
    name drawn at any position."""
    name = draw(st.sampled_from(COMMANDS))
    _, _, arguments = SUBCOMMANDS[name]
    options = [a for a in arguments if a[0].startswith("-")]
    chosen = draw(st.permutations(options))[:draw(st.integers(0, len(options)))]
    argv = []
    repeats = int(draw(st.integers(0, 3)) == 3)  # about a quarter repeat the first option
    for flag, opts in chosen + chosen[:repeats]:
        argv.append(flag)
        if opts.get("action") != "store_true" or draw(st.integers(0, 3)) == 3:
            argv.append(draw(values(opts)))
    for flag, opts in arguments:
        if not flag.startswith("-"):
            argv.insert(draw(st.integers(0, len(argv))), draw(values(opts)))
    return [name, *argv]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(argv=own_option_argv())
def test_parse_command_parses_own_option_argv_as_the_full_parser(argv):
    assert_parses_as_the_full_parser(argv)


def no_parser():
    raise AssertionError("build_parser called")


def test_plain_argv_are_read_without_a_parser(tmp_path, monkeypatch):
    """Every argv the benchmark runs is read from the table; the full parser gives the same namespace."""
    commands = json.loads(DIGESTS.read_text(encoding="utf-8"))["commands"]
    argvs = [command.split() for command in commands] + [["verify", "--input", str(tmp_path / "x.json")]]
    expected = [vars(build_parser().parse_args(argv)) for argv in argvs]
    monkeypatch.setattr(cli, "build_parser", no_parser)
    assert [vars(parse_command(argv)) for argv in argvs] == expected


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "5", "-h"], ["generate", "--n=5"], ["gen", "--n", "5"],
    ["generate", "--n", "5", "--n", "7"],
], ids=" ".join)
def test_other_argv_go_to_the_full_parser(argv, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", no_parser)
    with pytest.raises(AssertionError, match="build_parser called"):
        parse_command(argv)
