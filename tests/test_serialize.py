"""JSON schema round trips, schema errors, and text exports."""

import json
import time

import pytest

from rookpaths import serialize
from rookpaths.decompose import (
    Decomposition,
    Subgraph,
    VerificationReport,
    build_orbit_decomposition,
    k9_fixture,
    staircase_decomposition,
    verify_decomposition,
)
from rookpaths.grid import GridGraph
from rookpaths.groups import Permutation, edge_orbits, generate_group, row_shift
from rookpaths.serialize import (
    SchemaError,
    blocks_to_text,
    decomposition_to_json,
    dot_for_blocks,
    dumps,
    export_dot,
    orbit_id_str,
    orbit_lines,
    parse_decomposition,
    report_to_json_dict,
)


def n3_payload():
    dec, report = staircase_decomposition(3)
    return decomposition_to_json(GridGraph(3, 3), dec, report)


def k9_payload():
    graph, group, base = k9_fixture()
    dec = build_orbit_decomposition(graph, group, base)
    return decomposition_to_json(graph, dec, verify_decomposition(graph, group, dec))


def test_round_trip_byte_identical():
    text = n3_payload()
    graph, group, dec = parse_decomposition(text)
    report = verify_decomposition(graph, group, dec)
    assert report.all_ok
    assert decomposition_to_json(graph, dec, report) == text


def test_round_trip_k9():
    graph, group, base = k9_fixture()
    dec = build_orbit_decomposition(graph, group, base)
    report = verify_decomposition(graph, group, dec)
    text = decomposition_to_json(graph, dec, report)
    graph2, group2, dec2 = parse_decomposition(text)
    report2 = verify_decomposition(graph2, group2, dec2)
    assert report2.all_ok
    assert decomposition_to_json(graph2, dec2, report2) == text


def test_payload_shape():
    data = json.loads(n3_payload())
    assert list(data) == ["graph", "group", "base", "blocks", "report"]
    assert data["graph"] == {"kind": "grid", "n": 3, "m": 3}
    assert data["group"]["kind"] == "row_shift"
    assert data["group"]["order"] == 3
    assert data["base"]["start"] == [0, 0]
    assert len(data["base"]["steps"]) == 6
    assert len(data["blocks"]) == 3
    assert all(data["report"][flag] is True for flag in (
        "is_partition",
        "blocks_isomorphic_to_base",
        "group_invariant",
        "group_transitive",
        "stabilizer_trivial",
        "semiregular",
    ))


def test_output_is_compact_ascii():
    text = n3_payload()
    assert " " not in text
    assert text.isascii()


def test_named_shift_among_explicit_generators_round_trips():
    # generators of two kinds make an explicit group, whose row shift keeps its name
    base = staircase_decomposition(5)[0].base
    graph = base.action.graph
    shift = row_shift(5, 5)
    group = generate_group([shift, Permutation(graph, shift.table)])
    dec = build_orbit_decomposition(graph, group, base)
    text = decomposition_to_json(graph, dec, verify_decomposition(graph, group, dec))
    data = json.loads(text)
    assert data["group"]["kind"] == "explicit" and data["group"]["order"] == 5
    assert data["group"]["generators"][0] == {"kind": "row_shift", "n": 5, "m": 5}
    assert data["group"]["generators"][1]["kind"] == "explicit"
    graph2, group2, dec2 = parse_decomposition(text)
    assert group2.tables == group.tables
    assert [g.kind for g in group2.generators] == ["row_shift", "explicit"]
    assert [b.keys for b in dec2.blocks] == [b.keys for b in dec.blocks]
    report = verify_decomposition(graph2, group2, dec2)
    assert report.all_ok and len(report.flags()) == 6
    assert decomposition_to_json(graph2, dec2, report) == text


def test_decomposition_to_json_refuses_a_decomposition_off_its_graph():
    small, report = staircase_decomposition(3)
    large, _ = staircase_decomposition(5)
    graph = GridGraph(3, 3)
    cases = [
        (large, "the group does not act on the vertices of K_3 box K_3 but of K_5 box K_5"),
        (
            Decomposition(small.blocks, small.group, large.base),
            "a subgraph of K_5 box K_5 is not a subgraph of K_3 box K_3",
        ),
        (
            Decomposition((*small.blocks, large.blocks[0]), small.group, small.base),
            "a subgraph of K_5 box K_5 is not a subgraph of K_3 box K_3",
        ),
    ]
    for dec, message in cases:
        with pytest.raises(ValueError) as err:
            decomposition_to_json(graph, dec, report)
        assert str(err.value) == message
    assert json.loads(decomposition_to_json(graph, small, report))["graph"]["n"] == 3


def test_report_witnesses_only_when_failing():
    _, report = staircase_decomposition(3)
    assert "witnesses" not in report_to_json_dict(report)


def test_parse_rejects_invalid_json():
    with pytest.raises(SchemaError) as info:
        parse_decomposition("{not json")
    assert info.value.path == "$"
    assert "invalid JSON" in info.value.reason


def test_parse_rejects_missing_keys():
    with pytest.raises(SchemaError) as info:
        parse_decomposition("{}")
    assert info.value.path == "$"
    data = json.loads(n3_payload())
    del data["blocks"]
    with pytest.raises(SchemaError) as info:
        parse_decomposition(data)
    assert "blocks" in str(info.value)


def test_parse_error_paths_are_precise():
    data = json.loads(n3_payload())
    data["blocks"][1]["edges"][2] = [[0, 0], [9, 9]]
    with pytest.raises(SchemaError) as info:
        parse_decomposition(data)
    assert info.value.path.startswith("$.blocks[1].edges[2]")


def test_parse_rejects_out_of_range_vertex():
    data = json.loads(n3_payload())
    data["base"]["start"] = [3, 0]
    with pytest.raises(SchemaError) as info:
        parse_decomposition(data)
    assert "start" in info.value.path


def test_parse_rejects_duplicate_block_edges():
    data = json.loads(n3_payload())
    data["blocks"][0]["edges"][1] = data["blocks"][0]["edges"][0]
    with pytest.raises(SchemaError) as info:
        parse_decomposition(data)
    assert info.value.path == "$.blocks[0].edges"


def test_parse_rejects_bad_graph_kind():
    with pytest.raises(SchemaError) as info:
        parse_decomposition({"graph": {"kind": "hypercube", "n": 3}})
    assert info.value.path == "$.graph.kind"


def test_parse_explicit_permutation_checks():
    base = {
        "graph": {"kind": "complete", "n": 3},
        "group": {
            "kind": "explicit",
            "order": 3,
            "generators": [{"kind": "explicit", "map": [[1, 2], [2, 3], [3, 1]]}],
        },
        "base": {"edges": [[1, 2]]},
        "blocks": [{"edges": [[1, 2]]}],
        "report": {
            "is_partition": False,
            "blocks_isomorphic_to_base": True,
            "group_invariant": False,
            "group_transitive": False,
            "stabilizer_trivial": True,
            "semiregular": True,
        },
    }
    graph, group, dec = parse_decomposition(dumps(base))
    assert group.order == 3

    dup = json.loads(dumps(base))
    dup["group"]["generators"][0]["map"] = [[1, 2], [1, 3], [3, 1]]
    with pytest.raises(SchemaError):
        parse_decomposition(dup)

    partial = json.loads(dumps(base))
    partial["group"]["generators"][0]["map"] = [[1, 2], [2, 1]]
    with pytest.raises(SchemaError):
        parse_decomposition(partial)


def test_parse_start_steps_only_on_grids():
    data = {
        "graph": {"kind": "complete", "n": 3},
        "group": {
            "kind": "explicit",
            "order": 1,
            "generators": [{"kind": "explicit", "map": [[1, 1], [2, 2], [3, 3]]}],
        },
        "base": {"start": [0, 0], "steps": [[0, 1]]},
        "blocks": [{"edges": [[1, 2]]}],
        "report": {
            "is_partition": False,
            "blocks_isomorphic_to_base": True,
            "group_invariant": True,
            "group_transitive": False,
            "stabilizer_trivial": False,
            "semiregular": False,
        },
    }
    with pytest.raises(SchemaError):
        parse_decomposition(data)


def test_parse_report_stub_requires_flags():
    data = json.loads(n3_payload())
    del data["report"]["semiregular"]
    with pytest.raises(SchemaError) as info:
        parse_decomposition(data)
    assert "semiregular" in str(info.value)
    data2 = json.loads(n3_payload())
    data2["report"]["is_partition"] = "yes"
    with pytest.raises(SchemaError):
        parse_decomposition(data2)


def stub_report():
    return dict.fromkeys(VerificationReport.FLAGS, True)


def test_parse_caps_reject_huge_graphs_before_allocating():
    for graph in (
        {"kind": "grid", "n": 100_000, "m": 100_000},
        {"kind": "complete", "n": 10**9},
    ):
        data = {"graph": graph, "group": {"kind": "row_shift", "order": 1}}
        started = time.perf_counter()
        with pytest.raises(SchemaError) as info:
            parse_decomposition(data)
        assert time.perf_counter() - started < 1.0
        assert info.value.path == "$.graph"
        assert "cap" in info.value.reason


def test_parse_accepts_n101_grid():
    one_edge = [[[0, 0], [0, 1]]]
    data = {
        "graph": {"kind": "grid", "n": 101, "m": 101},
        "group": {"kind": "row_shift", "order": 101},
        "base": {"edges": one_edge},
        "blocks": [{"edges": one_edge}],
        "report": stub_report(),
    }
    graph, group, dec = parse_decomposition(data)
    assert graph.edge_count == 1_020_100
    assert group.order == 101
    assert len(dec.blocks) == 1


def test_parse_caps_group_action(monkeypatch):
    text = k9_payload()
    parse_decomposition(text)
    # 9 vertices: an entry cap of 20 leaves room for 2 elements, the closure has 3
    monkeypatch.setattr(serialize, "MAX_ACTION_ENTRIES", 20)
    with pytest.raises(SchemaError) as info:
        parse_decomposition(text)
    assert info.value.path == "$.group"


def test_parse_rejects_wrong_declared_order():
    data = json.loads(n3_payload())
    data["group"]["order"] = 999
    with pytest.raises(SchemaError) as info:
        parse_decomposition(data)
    assert info.value.path == "$.group.order"
    assert "999" in info.value.reason
    k9 = json.loads(k9_payload())
    k9["group"]["order"] = 1
    with pytest.raises(SchemaError) as info:
        parse_decomposition(k9)
    assert info.value.path == "$.group.order"


def test_edges_to_text():
    g = GridGraph(3, 3)
    block = Subgraph.of_edges(g, list(g.edges())[:2])
    text = blocks_to_text([block])
    assert text == "# block 0\n(0,0)-(0,1)\n(0,0)-(0,2)\n"


def test_blocks_to_text_headers():
    dec, _ = staircase_decomposition(3)
    text = blocks_to_text(dec.blocks)
    assert text.count("# block") == 3
    assert text.count("-") == 18
    assert text.endswith("\n")


def test_dot_n3():
    dec, _ = staircase_decomposition(3)
    dot = export_dot(dec)
    lines = dot.splitlines()
    assert lines[0] == "graph decomposition {"
    assert lines[-1] == "}"
    edge_lines = [ln for ln in lines if " -- " in ln]
    assert len(edge_lines) == 18
    colors = {ln.split('color="')[1].split('"')[0] for ln in edge_lines}
    assert len(colors) == 3


def test_dot_k9():
    graph, group, base = k9_fixture()
    dec = build_orbit_decomposition(graph, group, base)
    dot = export_dot(dec)
    edge_lines = [ln for ln in dot.splitlines() if " -- " in ln]
    assert len(edge_lines) == 36
    assert len({ln.split('color="')[1].split('"')[0] for ln in edge_lines}) == 3
    assert '"1";' in dot


def test_dot_deterministic():
    dec, _ = staircase_decomposition(3)
    assert export_dot(dec) == export_dot(dec)
    assert dot_for_blocks(dec.blocks) == export_dot(dec)


def test_orbit_id_str():
    assert orbit_id_str(("H", 0, 2)) == "H(0,2)"
    assert orbit_id_str(("V", 1, 0)) == "V(1,0)"


def test_orbit_lines_write_each_member_edge_as_its_str():
    graph, group, _ = k9_fixture()
    orbits = edge_orbits(graph, group)
    expected = []
    for orbit in orbits:
        expected.append(f"{orbit_id_str(orbit.id)} size={orbit.size}")
        expected += ["  " + str(e) for e in orbit.action.edges(orbit.keys)]
    assert orbit_lines(orbits, True) == expected
    assert orbit_lines(orbits, False) == [line for line in expected if line[0] != " "]
    assert expected[1] == "  1-2"


def test_dumps_is_compact():
    assert dumps({"a": [1, 2], "b": "x"}) == '{"a":[1,2],"b":"x"}'
