"""verify images at most |G| * |base| + |distinct gens| * (sum of block sizes) edge keys, on hostile files too.

The parser caps each term: |G| * |base| and the sum of block sizes at
MAX_EDGES, and the distinct generators at MAX_GENERATORS, so no file
makes verify image more than (1 + MAX_GENERATORS) * MAX_EDGES keys.
A valid file verified through the command line images exactly |G| * |base|.
"""

import contextlib
import io
import json

import pytest

from rookpaths import decompose
from rookpaths.cli import main
from rookpaths.decompose import VerificationReport, staircase_decomposition, verify_decomposition
from rookpaths.grid import GridGraph
from rookpaths.groups import EdgeAction
from rookpaths.serialize import (
    MAX_EDGES,
    MAX_GENERATORS,
    decomposition_to_json,
    parse_decomposition,
)

REPORT = dict.fromkeys(VerificationReport.FLAGS, True)


def one_edge_base():
    """K_30 box K_30 under the row shift: a one-edge base and one block holding every edge."""
    edges = [[[e.u.row, e.u.col], [e.v.row, e.v.col]] for e in GridGraph(30, 30).edges()]
    return {
        "graph": {"kind": "grid", "n": 30, "m": 30},
        "group": {"kind": "row_shift", "order": 30},
        "base": {"edges": edges[:1]},
        "blocks": [{"edges": edges}],
        "report": REPORT,
    }


def rotated_staircase():
    """The staircase decomposition for n = 7, its blocks rotated by 3 and one edge of block 0 moved."""
    dec, report = staircase_decomposition(7)
    doc = json.loads(decomposition_to_json(dec.base.action.graph, dec, report))
    blocks = doc["blocks"][3:] + doc["blocks"][:3]
    blocks[1]["edges"].append(blocks[0]["edges"].pop())
    return dict(doc, blocks=blocks)


def two_cycles():
    """K_20 under the trivial group: the base is one 20-cycle, the only block another."""
    n = 20
    order = list(range(1, n, 2)) + list(range(2, n + 1, 2))
    return {
        "graph": {"kind": "complete", "n": n},
        "group": {
            "kind": "explicit",
            "order": 1,
            "generators": [{"kind": "explicit", "map": [[v, v] for v in range(1, n + 1)]}],
        },
        "base": {"edges": [sorted((v, v % n + 1)) for v in range(1, n + 1)]},
        "blocks": [{"edges": [sorted(p) for p in zip(order, order[1:] + order[:1])]}],
        "report": REPORT,
    }


def repeated_generator():
    """K_41 under 300 copies of the rotation i -> i + 1: a one-edge base and one block of every edge."""
    n = 41
    rotation = {"kind": "explicit", "map": [[v, v % n + 1] for v in range(1, n + 1)]}
    edges = [[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return {
        "graph": {"kind": "complete", "n": n},
        "group": {"kind": "explicit", "order": n, "generators": [rotation] * 300},
        "base": {"edges": edges[:1]},
        "blocks": [{"edges": edges}],
        "report": REPORT,
    }


def all_elements():
    """K_16 under all 16 rotations i -> i + s as generators: a one-edge base, one block of every edge."""
    n = 16
    rotations = [
        {"kind": "explicit", "map": [[v, (v - 1 + s) % n + 1] for v in range(1, n + 1)]}
        for s in range(n)
    ]
    edges = [[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return {
        "graph": {"kind": "complete", "n": n},
        "group": {"kind": "explicit", "order": n, "generators": rotations},
        "base": {"edges": edges[:1]},
        "blocks": [{"edges": edges}],
        "report": REPORT,
    }


# each file with the flags its report fails
FILES = {
    "one-edge base": (
        one_edge_base,
        ["blocks_isomorphic_to_base", "group_transitive", "semiregular"],
    ),
    "rotated staircase": (
        rotated_staircase,
        ["blocks_isomorphic_to_base", "group_invariant", "group_transitive"],
    ),
    "two cycles": (two_cycles, ["is_partition", "group_transitive"]),
    "repeated generator": (
        repeated_generator,
        ["blocks_isomorphic_to_base", "group_transitive"],
    ),
    "all elements": (
        all_elements,
        ["blocks_isomorphic_to_base", "group_transitive", "semiregular"],
    ),
}


@pytest.mark.parametrize("name", FILES)
def test_verify_images_within_the_bound(monkeypatch, name):
    make, failed = FILES[name]
    graph, group, dec = parse_decomposition(json.dumps(make()))
    imaged = []
    image_keys, images = EdgeAction.image_keys, EdgeAction.images

    def counted_keys(self, table, keys):
        out = image_keys(self, table, keys)
        imaged.append(len(out))
        return out

    def counted_images(self, tables, keys):
        for out in images(self, tables, keys):
            imaged.append(len(out))
            yield out

    monkeypatch.setattr(EdgeAction, "image_keys", counted_keys)
    monkeypatch.setattr(EdgeAction, "images", counted_images)
    report = verify_decomposition(graph, group, dec)
    distinct = len({gen.table for gen in group.generators})
    bound = group.order * dec.base.edge_count + distinct * sum(
        block.edge_count for block in dec.blocks
    )
    assert 0 < sum(imaged) <= bound <= (1 + MAX_GENERATORS) * MAX_EDGES
    assert report.failed() == failed


def test_verify_of_a_valid_file_runs_premises_and_transport_once(monkeypatch, tmp_path):
    """Through the command line, a valid n = 7 file images |G| * |base| keys, and each distinct
    generator goes through the automorphism scan once."""
    dec, report = staircase_decomposition(7)
    doc = json.loads(decomposition_to_json(dec.base.action.graph, dec, report))
    repeated = dict(doc, group={"kind": "explicit", "order": 7, "generators": []})
    shift = [[[a, b], [(a + 1) % 7, b]] for a in range(7) for b in range(7)]
    repeated["group"]["generators"] = [{"kind": "explicit", "map": shift}] * 3
    imaged, scanned = [], []
    image_keys, images = EdgeAction.image_keys, EdgeAction.images
    violation = decompose.automorphism_violation

    def counted_keys(self, table, keys):
        out = image_keys(self, table, keys)
        imaged.append(len(out))
        return out

    def counted_images(self, tables, keys):
        for out in images(self, tables, keys):
            imaged.append(len(out))
            yield out

    def counted_violation(graph, perm):
        scanned.append(perm.table)
        return violation(graph, perm)

    monkeypatch.setattr(EdgeAction, "image_keys", counted_keys)
    monkeypatch.setattr(EdgeAction, "images", counted_images)
    monkeypatch.setattr(decompose, "automorphism_violation", counted_violation)
    for document in (doc, repeated):
        imaged.clear()
        scanned.clear()
        path = tmp_path / "n7.json"
        path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["verify", "--input", str(path)]) == 0
        assert sum(imaged) == 7 * dec.base.edge_count == 7 * 42
        assert len(scanned) == len(set(scanned)) == 1
