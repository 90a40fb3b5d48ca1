"""The integer parser and automorphism scan against the object-based oracles."""

import copy
import itertools
import json
import random

import pytest

from rookpaths.decompose import (
    CompleteGraph,
    build_orbit_decomposition,
    diagonal_fixture_n4,
    k9_fixture,
    staircase_decomposition,
    verify_decomposition,
)
from rookpaths.grid import GridGraph
from rookpaths.groups import (
    Permutation,
    automorphism_violation,
    diagonal_shift,
    row_shift,
)
from rookpaths.serialize import SchemaError, decomposition_to_json, parse_decomposition

from oracles import brute_automorphism_violation, object_parse_decomposition


def documents():
    """Valid decoded documents: generate --n 3/5/7, examples k9 and diag4."""
    docs = {}
    for n in (3, 5, 7):
        dec, report = staircase_decomposition(n)
        docs[f"n{n}"] = json.loads(decomposition_to_json(GridGraph(n, n), dec, report))
    for name, fixture in (("k9", k9_fixture), ("diag4", diagonal_fixture_n4)):
        graph, group, base = fixture()
        dec = build_orbit_decomposition(graph, group, base)
        report = verify_decomposition(graph, group, dec)
        docs[name] = json.loads(decomposition_to_json(graph, dec, report))
    return docs


def outcome(parse, doc):
    """(path, reason) of the SchemaError, or everything the parse rebuilt."""
    try:
        graph, group, dec = parse(json.dumps(doc))
    except SchemaError as err:
        return ("error", err.path, err.reason)
    kinds = [g.kind for g in group.generators]
    return ("ok", graph, kinds, group.elements, dec.base, dec.blocks)


def edited(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` (a key/index sequence) replaced."""
    out = copy.deepcopy(doc)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return out


def malformed(name, doc):
    """(label, document) pairs: the benchmark's malform kinds and other broken values."""
    blocks = doc["blocks"]
    i = len(blocks) - 1
    j = len(blocks[i]["edges"]) - 1
    a, b = blocks[i]["edges"][j]
    edge = ("blocks", i, "edges", j)
    if doc["graph"]["kind"] == "grid":
        n, m = doc["graph"]["n"], doc["graph"]["m"]
        kinds = {
            "out_of_range": [a, [n, a[1]]],
            "not_an_edge": [a, [(a[0] + 1) % n, (a[1] + 1) % m]],
            "degenerate": [a, a],
            "negative": [a, [a[0], -1]],
            "triple": [a, [a[0], a[1], 0]],
        }
        coordinate = edge + (1, 0)
    else:
        n = doc["graph"]["n"]
        kinds = {
            "out_of_range": [a, n + 1],
            "label_zero": [0, b],
            "not_an_edge": [a, a],
            "degenerate": [b, b],
        }
        coordinate = edge + (1,)
    kinds.update({"wrong_type": [a, "x"], "short": [a], "long": [a, b, a], "object": {"u": a}})
    for kind, value in kinds.items():
        yield kind, edited(doc, edge, value)
    for value in (True, False, 1.0, None, "1", [1], 10**9):
        yield f"coordinate {value!r}", edited(doc, coordinate, value)
        yield f"graph.n {value!r}", edited(doc, ("graph", "n"), value)
        yield f"group.order {value!r}", edited(doc, ("group", "order"), value)
    yield "empty block", edited(doc, ("blocks", 0, "edges"), [])
    yield "block not a list", edited(doc, ("blocks", 0, "edges"), {"edges": []})
    yield "block without edges", edited(doc, ("blocks", 0), {})
    duplicated = blocks[0]["edges"] + [blocks[0]["edges"][-1]]
    yield "duplicate block edge", edited(doc, ("blocks", 0, "edges"), duplicated)
    flipped = [e[::-1] for e in blocks[0]["edges"]] + [blocks[0]["edges"][0]]
    yield "duplicate reversed edge", edited(doc, ("blocks", 0, "edges"), flipped)
    yield "no report", {k: v for k, v in doc.items() if k != "report"}
    base = doc["base"]
    if "start" in base:
        yield "start out of range", edited(doc, ("base", "start"), [0, n])
        yield "start float", edited(doc, ("base", "start", 0), 0.0)
        yield "start null", edited(doc, ("base", "start"), None)
        yield "step zero", edited(doc, ("base", "steps", 0), [0, 0])
        yield "step diagonal", edited(doc, ("base", "steps", 0), [1, 1])
        yield "step bool", edited(doc, ("base", "steps", 0, 1), True)
    else:
        yield "base edge degenerate", edited(doc, ("base", "edges", 0), [base["edges"][0][0]] * 2)
        yield "base duplicate", edited(doc, ("base", "edges"), base["edges"] + base["edges"][:1])
    if doc["group"]["kind"] == "explicit":
        entries = doc["group"]["generators"][0]["map"]
        twice = [entries[0], [entries[0][0], entries[1][1]]] + entries[2:]
        yield "map lists a vertex twice", edited(doc, ("group", "generators", 0, "map"), twice)
        yield "map image twice", edited(
            doc, ("group", "generators", 0, "map", 0, 1), entries[1][1]
        )
        yield "map short", edited(doc, ("group", "generators", 0, "map"), entries[1:])
        yield "map label zero", edited(doc, ("group", "generators", 0, "map", 0, 0), 0)
        yield f"map label {n + 1}", edited(doc, ("group", "generators", 0, "map", 0, 1), n + 1)
        yield "map label bool", edited(doc, ("group", "generators", 0, "map", 0, 1), True)
        yield "map label null", edited(doc, ("group", "generators", 0, "map", 0, 1), None)
        yield "map pair short", edited(doc, ("group", "generators", 0, "map", 0), [1])


CORPUS = [
    (f"{name}: {label}", doc)
    for name, valid in documents().items()
    for label, doc in [("valid", valid), *malformed(name, valid)]
]


@pytest.mark.parametrize("label, doc", CORPUS, ids=[label for label, _ in CORPUS])
def test_parse_matches_object_parser(label, doc):
    assert outcome(parse_decomposition, doc) == outcome(object_parse_decomposition, doc)


def test_parse_corpus_covers_errors_and_successes():
    results = [outcome(parse_decomposition, doc)[0] for _, doc in CORPUS]
    assert results.count("ok") >= 5 and results.count("error") > 200
    paths = {outcome(parse_decomposition, doc)[1] for _, doc in CORPUS}
    assert {"$.graph", "$.group.order", "$.base.steps", "$.blocks[0].edges"} <= paths


def test_parse_builds_one_vertex_object_per_vertex():
    graph, group, dec = parse_decomposition(json.dumps(documents()["n5"]))
    vertices = {id(v) for b in (dec.base, *dec.blocks) for e in b.edges for v in (e.u, e.v)}
    assert len(vertices) == graph.vertex_count


def permutations_of(graph, tables):
    vs = tuple(graph.vertices())
    for table in tables:
        yield Permutation({v: vs[j] for v, j in zip(vs, table)})


def automorphism_corpus():
    rng = random.Random(604)
    grid23 = GridGraph(2, 3)
    yield grid23, permutations_of(grid23, itertools.permutations(range(6)))
    for n, m in ((3, 3), (3, 4), (4, 4)):
        graph = GridGraph(n, m)
        tables = (rng.sample(range(n * m), n * m) for _ in range(200))
        yield graph, permutations_of(graph, tables)
        # an automorphism with two vertices swapped breaks edges late in the order
        shift = row_shift(n, m).table
        swaps = []
        for i, j in itertools.combinations(range(n * m), 2):
            table = list(shift)
            table[i], table[j] = table[j], table[i]
            swaps.append(table)
        yield graph, permutations_of(graph, swaps)
    k5 = CompleteGraph(5)
    yield k5, permutations_of(k5, itertools.permutations(range(5)))
    for n in range(2, 6):
        yield GridGraph(n, n), [diagonal_shift(n)]
        for m in range(2, 6):
            yield GridGraph(n, m), [row_shift(n, m)]


def test_automorphism_violation_matches_object_scan():
    checked = found = 0
    for graph, perms in automorphism_corpus():
        for perm in perms:
            witness = automorphism_violation(graph, perm)
            assert witness == brute_automorphism_violation(graph, perm)
            checked += 1
            found += witness is not None
    assert checked > 1600 and 0 < found < checked


def test_automorphism_violation_rejects_another_domain():
    with pytest.raises(ValueError):
        automorphism_violation(GridGraph(3, 3), row_shift(3, 4))
