"""Checks in verify and the parser that only these tests hold.

Each test fails if its check is deleted or weakened:
- verify's certified branch also counts the blocks, so a repeated image
  of the base is no partition;
- ``_covers_once`` compares a single block with every edge key, so a
  block of |E| distinct keys with one of no edge reaches check_keys;
- the invariance loop skips a block only when it holds all |E| edges;
- the parser caps |G| * |base| at MAX_EDGES, at the cap inclusive.
"""

import json

import pytest

from rookpaths import serialize
from rookpaths.cli import main
from rookpaths.decompose import (
    Decomposition,
    Subgraph,
    staircase_decomposition,
    verify_decomposition,
)
from rookpaths.grid import GridGraph
from rookpaths.groups import EdgeAction
from rookpaths.serialize import parse_decomposition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def generated(capsys, n: int) -> dict:
    code, out, _ = run(capsys, "generate", "--n", str(n))
    assert code == 0
    return json.loads(out)


def verify_file(tmp_path, capsys, data: dict):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return run(capsys, "verify", "--input", str(path))


def test_every_image_plus_a_repeated_block_is_no_partition():
    dec, _ = staircase_decomposition(5)
    graph = GridGraph(5, 5)
    doubled = Decomposition(dec.blocks + dec.blocks[:1], dec.group, dec.base)
    report = verify_decomposition(graph, dec.group, doubled)
    assert report.failed() == ["is_partition"]
    witness = report.witnesses["is_partition"]
    assert len(witness["duplicated"]) == 20
    assert witness["duplicated"] == list(dec.blocks[0].edges)
    assert witness["missing"] == []


def test_file_of_every_image_plus_a_repeated_block_exits_2(tmp_path, capsys):
    data = generated(capsys, 5)
    data["blocks"].append(data["blocks"][0])
    code, out, err = verify_file(tmp_path, capsys, data)
    assert code == 2
    report = json.loads(out)
    assert [flag for flag, ok in report.items() if ok is False] == ["is_partition"]
    assert report["witnesses"]["is_partition"]["duplicated"] == data["blocks"][0]["edges"]
    assert len(data["blocks"][0]["edges"]) == 20
    assert report["witnesses"]["is_partition"]["missing"] == []
    assert err == "verification failed: is_partition\n"


def test_one_block_of_all_but_one_edge_and_a_non_edge_raises_check_keys_error():
    dec, _ = staircase_decomposition(3)
    graph, action = GridGraph(3, 3), EdgeAction(GridGraph(3, 3))
    keys = list(action.all_keys())
    keys[-1] = 4  # vertices 0 and 4, (0,0) and (1,1), share no line
    block = Subgraph(action, keys)
    assert block.edge_count == graph.edge_count
    with pytest.raises(ValueError, match=r"^\(0,0\)-\(1,1\) is not an edge of K_3 box K_3$"):
        verify_decomposition(graph, dec.group, Decomposition((block,), dec.group, dec.base))


def test_block_of_all_but_one_edge_is_named_by_the_invariance_witness(tmp_path, capsys):
    data = generated(capsys, 3)
    edges = [e for block in data["blocks"] for e in block["edges"]]
    assert len(edges) == 18
    data["blocks"] = [{"edges": edges[1:]}, {"edges": edges[:1]}]
    code, out, _ = verify_file(tmp_path, capsys, data)
    assert code == 2
    report = json.loads(out)
    assert report["group_invariant"] is False
    assert report["witnesses"]["group_invariant"] == {"block_index": 0, "generator_index": 0}


def test_base_images_are_capped_at_max_edges_inclusive(tmp_path, capsys, monkeypatch):
    # the n=3 staircase has 18 edges in 3 blocks; a base of 7 edges has 3 * 7 = 21 images
    data = generated(capsys, 3)
    data["base"] = {"edges": data["blocks"][0]["edges"] + data["blocks"][1]["edges"][:1]}
    monkeypatch.setattr(serialize, "MAX_EDGES", 21)
    _, group, dec = parse_decomposition(json.dumps(data))
    assert group.order * dec.base.edge_count == 21 == serialize.MAX_EDGES
    code, out, _ = verify_file(tmp_path, capsys, data)
    assert code == 2
    assert json.loads(out)["blocks_isomorphic_to_base"] is False
    monkeypatch.setattr(serialize, "MAX_EDGES", 20)
    code, out, err = verify_file(tmp_path, capsys, data)
    assert code == 1
    assert out == ""
    assert err == "error: $.base: 21 base edge images, more than the cap of 20\n"
