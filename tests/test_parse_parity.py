"""The integer parser and automorphism scan against the object-based oracles."""

import copy
import itertools
import json
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rookpaths.cli import main
from rookpaths.decompose import (
    CompleteGraph,
    VerificationReport,
    build_orbit_decomposition,
    diagonal_fixture_n4,
    k9_fixture,
    staircase_decomposition,
    verify_decomposition,
)
from rookpaths.grid import GridGraph
from rookpaths.groups import (
    EdgeAction,
    automorphism_violation,
    diagonal_shift,
    row_shift,
)
from rookpaths import serialize
from rookpaths.serialize import SchemaError, decomposition_to_json, dumps, parse_decomposition

from oracles import object_automorphism_violation, object_parse_decomposition, permutation_of


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
    return ("ok", graph, kinds, group.graph, group.tables, dec.base, dec.blocks)


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


def walk_base_documents():
    """Documents with a walk base: generate --n 3, 5 and 7, diag4, and a 3 x 5 grid (n != m)."""
    docs = {name: doc for name, doc in documents().items() if "start" in doc["base"]}
    docs["3x5"] = {
        "graph": {"kind": "grid", "n": 3, "m": 5},
        "group": {"kind": "row_shift", "order": 3},
        "base": {"start": [1, 2], "steps": [[0, 1], [1, 0], [0, 2], [2, 0], [0, 4]]},
        "blocks": [{"edges": [[[1, 2], [1, 3]]]}],
        "report": dict.fromkeys(VerificationReport.FLAGS, True),
    }
    return docs


def walk_base_cases(doc):
    """(label, document) pairs: each bad step and start at both ends of the walk, and valid rewrites."""
    n, m = doc["graph"]["n"], doc["graph"]["m"]
    steps = doc["base"]["steps"]
    last = len(steps) - 1
    bad_steps = {
        "not a list": 1,
        "an object": {"drow": 1},
        "null": None,
        "length 0": [],
        "length 1": [1],
        "length 3": [0, 1, 0],
        "float": [0, 1.0],
        "bool": [True, 0],
        "string": ["0", 1],
        "(0,0)": [0, 0],
        "(0,0) mod n": [n, 0],
        "(0,0) mod m": [0, -m],
        "(0,0) mod both": [2 * n, -m],
        "diagonal": [1, 1],
        "diagonal mod (n,m)": [n + 1, -1],
    }
    for position in (0, last):
        for label, value in bad_steps.items():
            yield f"step {position} {label}", edited(doc, ("base", "steps", position), value)
    diagonal_then_bool = edited(doc, ("base", "steps", 0), [1, 1])
    diagonal_then_bool["base"]["steps"][last] = [True, 0]
    yield "diagonal step, then a bool one", diagonal_then_bool
    negative = [[dr - n, dc - 2 * m] for dr, dc in steps]
    yield "every step negative", edited(doc, ("base", "steps"), negative)
    yield "last step negative", edited(doc, ("base", "steps", last), negative[last])
    for start in ([n, 0], [0, m], [-1, 0], [0, -1], [0.5, 0], [0, True], [0], None):
        yield f"start {start}", edited(doc, ("base", "start"), start)
    yield "start moved", edited(doc, ("base", "start"), [n - 1, m - 1])


WALK_BASE_CORPUS = [
    (f"{name}: {label}", doc)
    for name, valid in walk_base_documents().items()
    for label, doc in [("valid", valid), *walk_base_cases(valid)]
]


@pytest.mark.parametrize("label, doc", WALK_BASE_CORPUS, ids=[label for label, _ in WALK_BASE_CORPUS])
def test_walk_base_matches_object_path(label, doc, tmp_path, capsys):
    """The same parse, exit code and error line as the object path reading Step objects."""
    expected = outcome(object_parse_decomposition, doc)
    assert outcome(parse_decomposition, doc) == expected
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify", "--input", str(path)])
    err = capsys.readouterr().err
    if expected[0] == "error":
        assert (code, err) == (1, f"error: {expected[1]}: {expected[2]}\n")
    else:
        graph, group, dec = object_parse_decomposition(json.dumps(doc))
        assert code == (0 if verify_decomposition(graph, group, dec).all_ok else 2)


def test_walk_base_corpus_covers_each_outcome():
    results = [outcome(parse_decomposition, doc) for _, doc in WALK_BASE_CORPUS]
    paths = {r[1] for r in results if r[0] == "error"}
    assert {"$.base.start", "$.base.steps", "$.base.steps[0]", "$.base.steps[0][1]"} <= paths
    assert sum(r[0] == "ok" for r in results) >= 12


def test_parse_builds_one_vertex_object_per_vertex():
    graph, group, dec = parse_decomposition(json.dumps(documents()["n5"]))
    vertices = {id(v) for b in (dec.base, *dec.blocks) for e in b.edges for v in (e.u, e.v)}
    assert len(vertices) == graph.vertex_count


def permutations_of(graph, tables):
    vs = tuple(graph.vertices())
    for table in tables:
        yield permutation_of(graph, {v: vs[j] for v, j in zip(vs, table)})


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
            assert witness == object_automorphism_violation(graph, perm)
            checked += 1
            found += witness is not None
    assert checked > 1600 and 0 < found < checked


def test_automorphism_violation_rejects_another_domain():
    with pytest.raises(ValueError):
        automorphism_violation(GridGraph(3, 3), row_shift(3, 4))
    with pytest.raises(ValueError, match="does not act on the vertices of K_6"):
        automorphism_violation(CompleteGraph(6), row_shift(2, 3))


# ---------------------------------------------------------------- text against decoded input


def entry_result(data):
    """Everything parse_decomposition rebuilt from ``data``, or its error text."""
    try:
        graph, group, dec = parse_decomposition(data)
    except SchemaError as err:
        return ("error", str(err))
    kinds = [g.kind for g in group.generators]
    return ("ok", graph, kinds, group.graph, group.tables, dec.base, [b.keys for b in dec.blocks])


def decoded_result(text, frames=0):
    """What the decoded entry point gives for ``text``, or the decoder's error.  The text is
    decoded ``frames`` calls further down the stack: json's nesting limit counts the frames
    above it, so a text nested near that limit is compared at the text entry point's depth."""
    if frames:
        return decoded_result(text, frames - 1)
    try:
        data = json.loads(text)
    except ValueError as err:
        return ("error", f"$: invalid JSON: {err}")
    except RecursionError:
        return ("error", "$: invalid JSON: nested too deeply")
    return entry_result(data)


def assert_entry_points_agree(text, frames=0):
    expected = decoded_result(text, frames)
    assert entry_result(text) == expected
    return expected


CANONICAL = {name: dumps(doc) for name, doc in documents().items()}


@pytest.mark.parametrize("label, doc", CORPUS, ids=[label for label, _ in CORPUS])
def test_text_and_decoded_entry_points_agree(label, doc):
    assert_entry_points_agree(dumps(doc))


def test_writer_layout_skips_the_decoder(monkeypatch):
    """Every valid corpus document in the writer's layout has its blocks read from the text."""

    def refuse(*args):
        raise AssertionError("text decoded whole")

    monkeypatch.setattr(serialize, "_loads", refuse)
    for name, text in CANONICAL.items():
        assert entry_result(text)[0] == "ok", name


def test_blocks_past_the_cap_leave_the_rest_to_the_decoder(monkeypatch):
    """Past MAX_EDGES the reader stops; text after that point still fails as no JSON first."""
    doc = json.loads(CANONICAL["n5"])
    monkeypatch.setattr(serialize, "MAX_EDGES", sum(len(b["edges"]) for b in doc["blocks"]))
    over = dumps(edited(doc, ("blocks",), doc["blocks"] * 2))
    assert entry_result(over)[1].startswith("$.blocks[5].edges: ")
    # the reader keeps no more than MAX_EDGES keys: the decoder reads the rest, from block 5 on
    blocks_text = serialize._split_blocks(over)[1]
    key_lists, offset = serialize._canonical_block_keys(EdgeAction(GridGraph(5, 5)), blocks_text)
    assert (len(key_lists), offset) == (5, len(dumps(doc["blocks"])))
    assert blocks_text[offset:] == dumps(doc["blocks"])[1:]
    garbage = splice(over, '}],"report":', '},{"edges":[,]}],"report":')
    assert assert_entry_points_agree(garbage)[1].startswith("$: invalid JSON: ")
    hidden = splice(over, '}],"report":', '} ],"graph":[{}],"report":')
    assert assert_entry_points_agree(hidden)[1].startswith("$.graph: ")


@pytest.mark.parametrize("chunk", [1, 6, 50])
def test_blocks_read_in_small_chunks(monkeypatch, chunk):
    """Blocks split a few pairs at a time give the same parse, or fall back the same way."""
    monkeypatch.setattr(serialize, "CHUNK_CHARS", chunk)
    for name, text in CANONICAL.items():
        assert assert_entry_points_agree(text)[0] == "ok", name
    for _, doc in CORPUS:
        assert_entry_points_agree(dumps(doc))


def splice(text, old, new, count=1):
    assert old in text
    return text.replace(old, new, count)


def layouts(text):
    """(label, text) pairs: the document of ``text`` in other layouts, and edits of its bytes."""
    doc = json.loads(text)
    edge = doc["blocks"][0]["edges"][0]
    first = dumps(edge)
    assert f'"blocks":[{{"edges":[{first},' in text
    grid = doc["graph"]["kind"] == "grid"
    other = '[{"edges":[[[0,0],[0,1]]]}]' if grid else '[{"edges":[[1,2]]}]'
    yield "pretty", json.dumps(doc, indent=1)
    yield "spaced", json.dumps(doc)
    yield "keys reversed", dumps(dict(reversed(doc.items())))
    order = ("graph", "group", "base", "report", "blocks")
    yield "report before blocks", dumps({k: doc[k] for k in order})
    for value in ("[]", other):
        yield f"blocks {value} before", splice(text, '"blocks":', f'"blocks":{value},"blocks":')
        yield f"blocks {value} after", text[:-1] + f',"blocks":{value}}}'
        yield f"escaped blocks {value} after", text[:-1] + f',"\\u0062locks":{value}}}'
    # an array closed without "}]" hides a second key from the placeholder decode
    decoy = f'"blocks":[{{"edges":{dumps(doc["blocks"][1]["edges"])}}},{{"edges":1}},2],'
    yield "hidden second blocks key", splice(text, '"blocks":', decoy + '"blocks":')
    yield "hidden escaped blocks key", splice(text, '"blocks":', decoy + '"\\u0062locks":')
    # a blocks array closed by " ]" or ",0]" leaves its "}]" to a later member, inside the cut
    edge_base = '{"edges":[[[0,0],[0,1]]]}' if grid else '{"edges":[[1,2]]}'
    members = {
        "graph": '"graph":{"kind":"grid"}',
        "group": '"group":{"kind":"explicit","order":1,"generators":[]}',
        "base": f'"base":{edge_base}',
    }
    for close in (" ]", ",0]"):
        for key, member in members.items():
            hidden = splice(text, '}],"report":', f'}}{close},{member},"pad":[{{}}],"report":')
            yield f"blocks closed by {close!r}, then a second {key}", hidden
    yield "blocks in a string", splice(text, '"report":', '"note":"blocks","report":')
    yield "blocks text in a string", splice(
        text, '"report":', '"note":"\\"blocks\\":[{\\"edges\\":[]}]","report":'
    )
    yield "blocks key in report", splice(text, '"report":{', '"report":{"blocks":[],')
    yield "no blocks", splice(text, '"blocks":', '"blokcs":')
    yield "empty first block", splice(text, '"blocks":[{"edges":[', '"blocks":[{"edges":[]},{"edges":[')

    def first_edge_as(variant):
        return splice(text, f'"blocks":[{{"edges":[{first}', f'"blocks":[{{"edges":[{variant}')

    yield "reversed pair", first_edge_as(dumps(edge[::-1]))
    yield "duplicate edge", first_edge_as(f"{first},{first}")
    bare = [*doc["blocks"][0]["edges"], edge[0]]
    yield "bare vertex after the last pair", dumps(edited(doc, ("blocks", 0, "edges"), bare))
    yield "second block opened by a space", splice(text, '},{"edges":[', '},{"edges": ')
    block = dumps(doc["blocks"][0]["edges"])
    yield "unclosed last pair", splice(text, block, f"{block[:-1]},[{dumps(edge[0])}]")
    yield "blocks only inside report", dumps(
        {k: v for k, v in edited(doc, ("report", "blocks"), doc["blocks"]).items() if k != "blocks"}
    )
    yield "bad graph.n and no JSON", first_edge_as(f"{first},,").replace('"n":', '"n":"x","z":', 1)
    yield "trailing garbage", text + "x"
    yield "trailing bracket", text + "]"
    yield "trailing whitespace", text + " \n"
    head = edge[0][0] if isinstance(edge[0], list) else edge[0]
    start = first[: first.index(str(head))]
    rest = first[len(start) + len(str(head)) :]
    for token in (f"0{head}", "-0", f"{head}.0", "true", f"{head}e0", f" {head}", f"{head} ", "99", "-1"):
        yield f"coordinate {token}", first_edge_as(start + token + rest)
    yield "coordinate in quotes", first_edge_as(f'{start}"{head}"{rest}')


LAYOUTS = [
    (f"{name}: {label}", edited_text)
    for name, text in CANONICAL.items()
    for label, edited_text in layouts(text)
]


@pytest.mark.parametrize("label, text", LAYOUTS, ids=[label for label, _ in LAYOUTS])
def test_entry_points_agree_on_other_layouts(label, text):
    assert_entry_points_agree(text)


def test_other_layouts_cover_each_outcome():
    results = [decoded_result(text) for _, text in LAYOUTS]
    assert sum(r[0] == "ok" for r in results) >= 30
    errors = {r[1].split(":")[0] for r in results if r[0] == "error"}
    assert {"$", "$.blocks", "$.blocks[0].edges", "$.blocks[0].edges[0][0]"} <= errors


TOKEN = re.compile(r'-?\d+|"[^"]*"|[a-z]+|.', re.S)
CHARS = '0123456789[]{},:"\\ -.e'
TOKENS = (
    "0", "1", "00", "-0", "1.0", "true", "null", '"blocks"', "[]", "{}", "99", "-1", "[0,1]", ',"blocks":[]'
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(sorted(CANONICAL)),
    where=st.integers(0, 10**6),
    action=st.sampled_from(("replace", "insert", "delete", "token")),
    char=st.sampled_from(CHARS),
    token=st.sampled_from(TOKENS),
)
def test_entry_points_agree_on_mutated_text(name, where, action, char, token):
    """One byte or one token of a file in the writer's layout changed: the same parse or error."""
    text = CANONICAL[name]
    if action == "token":
        spans = [m.span() for m in TOKEN.finditer(text)]
        a, b = spans[where % len(spans)]
        text = text[:a] + token + text[b:]
    else:
        p = where % len(text)
        text = text[:p] + ("" if action == "delete" else char) + text[p + (action != "insert") :]
    assert_entry_points_agree(text)


# ---------------------------------------------------------------- a doubted block's suffix


def with_block(text, i, edit):
    """``text``, a file in the writer's layout, with block i's text replaced by ``edit`` of it."""
    doc = json.loads(text)
    pieces = [dumps(block) for block in doc["blocks"]]
    start = text.index('"blocks":[') + len('"blocks":[')
    end = start + len(",".join(pieces))
    assert text[start:end] == ",".join(pieces)
    pieces[i] = edit(pieces[i], doc["blocks"][i]["edges"])
    return text[:start] + ",".join(pieces) + text[end:]


def block_edits():
    """(label, edit) pairs: test_entry_points_agree_on_other_layouts' edits of one block, each
    of which the reader doubts, then rests that are no JSON and an integer past the digit limit."""

    def first_pair(variant):
        return lambda piece, edges: piece.replace(dumps(edges[0]), variant(edges[0]), 1)

    def coordinate(token):
        def variant(edge):
            text = dumps(edge)
            head = edge[0][0] if isinstance(edge[0], list) else edge[0]
            start = text[: text.index(str(head))]
            return start + token(head) + text[len(start) + len(str(head)) :]

        return first_pair(variant)

    yield "reversed pair", first_pair(lambda edge: dumps(edge[::-1]))
    yield "empty block", lambda piece, edges: '{"edges":[]}'
    yield "bare vertex after the last pair", lambda piece, edges: piece[:-2] + f",{dumps(edges[0][0])}]}}"
    yield "unclosed last pair", lambda piece, edges: piece[:-3] + f",[{dumps(edges[0][0])}]]}}"
    yield "opened by a space", lambda piece, edges: piece.replace('"edges":', '"edges": ', 1)
    for token in ("0{}", "-0", "{}.0", "true", "{}e0", " {}", "{} ", "99", "-1", '"{}"'):
        yield f"coordinate {token.format('h')}", coordinate(token.format)
    yield "no JSON after it", first_pair(lambda edge: f"{dumps(edge)},,")
    yield "the blocks closed after it, then an array", lambda piece, edges: piece + ',1],[{"x":0}'
    yield "an integer past the digit limit", coordinate(lambda head: "1" * 5000)


def doubted_texts():
    for name, text in CANONICAL.items():
        k = len(json.loads(text)["blocks"])
        for where, i in (("first", 0), ("middle", k // 2), ("last", k - 1)):
            for label, edit in block_edits():
                yield f"{name}: {where} block, {label}", with_block(text, i, edit)


DOUBTED = list(doubted_texts())


@pytest.mark.parametrize("label, text", DOUBTED, ids=[label for label, _ in DOUBTED])
def test_entry_points_agree_on_a_doubted_block(label, text):
    assert_entry_points_agree(text)


def test_a_doubted_block_decodes_only_the_rest(monkeypatch):
    """Past a doubted block, the rest of the blocks is decoded, not the whole text, unless the
    rest is no JSON value; and every outcome is among the doubted texts."""
    loads, whole = serialize._loads, []

    def recorded(text):
        whole.append(text.startswith("{"))
        return loads(text)

    monkeypatch.setattr(serialize, "_loads", recorded)
    outcomes = set()
    for label, text in DOUBTED:
        whole.clear()
        result = entry_result(text)
        undecodable = result[0] == "error" and result[1].startswith("$: invalid JSON")
        outcomes.add(result[0] if result[0] == "ok" else result[1].split(":")[0])
        if serialize._text_head(text) is not None:
            assert whole and whole[-1] == undecodable, label
    assert {"ok", "$", "$.blocks[0].edges", "$.blocks[6].edges", "$.blocks[6].edges[0][0]"} <= outcomes


def stack_depth():
    """The number of frames on the caller's stack."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_doubted_block_nested_around_the_decoder_limit(monkeypatch):
    """A doubted block whose first pair is nested d deep, for each d in a window around the
    depth at which json's decoder gives up: the rest of the blocks nests as deep as in the whole
    text, so the text entry point gives the decoded one's result at every d."""
    text = CANONICAL["n5"]

    def nested(i, d):
        return with_block(text, i, lambda piece, edges: piece.replace(dumps(edges[0]), "[" * d + "]" * d, 1))

    depths = []

    class Recording(json.JSONDecoder):
        def decode(self, s, *args):
            depths.append(stack_depth())
            return super().decode(s, *args)

    shallow = nested(2, 1)
    monkeypatch.setattr(json, "_default_decoder", Recording())
    entry_result(shallow)  # decodes the head, then the rest of the blocks
    decoded_result(shallow)
    monkeypatch.undo()
    assert len(depths) == 3
    frames = depths[1] - depths[2]  # the blocks' decode's depth, the text's less the decoded's
    assert frames >= 0

    # the least depth that is too deep for the text entry point, by bisection
    too_deep = ("error", "$: invalid JSON: nested too deeply")
    fine, limit = 1, 1 << 16
    assert entry_result(nested(2, fine)) != too_deep and entry_result(nested(2, limit)) == too_deep
    while limit - fine > 1:
        mid = (fine + limit) // 2
        fine, limit = (fine, mid) if entry_result(nested(2, mid)) == too_deep else (mid, limit)
    results = set()
    for i in (0, 2, 4):
        for d in range(limit - 3, limit + 4):
            results.add(assert_entry_points_agree(nested(i, d), frames) == too_deep)
    assert results == {True, False}
