"""verify_text gives what parse_decomposition followed by verify_decomposition gives.

The same graph, group tables, base, blocks and report, or the same
exception type and text, on the parse corpora, the fuzzed documents,
verify-files-style variants and hand-made tampers of the writer's layout.
"""

import json
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rookpaths import serialize
from rookpaths.decompose import (
    Decomposition,
    IsomorphismCapExceeded,
    PreconditionFailed,
    Subgraph,
    _partition_off_images,
    _premises,
    _transport,
    partition_witnesses,
    verify_decomposition,
)
from rookpaths.grid import GridGraph
from rookpaths.serialize import (
    SchemaError,
    dumps,
    parse_decomposition,
    report_to_json_dict,
    verify_text,
)

from oracles import brute_partition_witnesses
from test_parse_parity import CANONICAL, CORPUS, LAYOUTS, WALK_BASE_CORPUS
from test_verify_fuzz import DOCUMENTS, ENTRIES, PATHS, VALUES, mutate

ERRORS = (SchemaError, PreconditionFailed, IsomorphismCapExceeded)


def summary(graph, group, dec, report):
    blocks = [block.keys for block in dec.blocks]
    return ("ok", graph, group.tables, dec.base, blocks, report_to_json_dict(report))


def separately(text):
    """parse_decomposition, then verify_decomposition; or the exception they raise."""
    try:
        graph, group, dec = parse_decomposition(text)
        return summary(graph, group, dec, verify_decomposition(graph, group, dec))
    except ERRORS as err:
        return (type(err), str(err), getattr(err, "block_index", None))


def together(text):
    try:
        return summary(*verify_text(text))
    except ERRORS as err:
        return (type(err), str(err), getattr(err, "block_index", None))


def assert_same(text):
    expected = separately(text)
    assert together(text) == expected
    return expected


@pytest.mark.parametrize("label, doc", CORPUS, ids=[label for label, _ in CORPUS])
def test_parse_corpus(label, doc):
    assert_same(dumps(doc))


@pytest.mark.parametrize("label, doc", WALK_BASE_CORPUS, ids=[label for label, _ in WALK_BASE_CORPUS])
def test_walk_base_corpus(label, doc):
    assert_same(dumps(doc))


@pytest.mark.parametrize("label, text", LAYOUTS, ids=[label for label, _ in LAYOUTS])
def test_other_layouts(label, text):
    assert_same(text)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    source=st.integers(0, len(DOCUMENTS) - 1),
    section=st.integers(0, 4),
    where=st.integers(0, 10**6),
    action=st.sampled_from(("replace", "delete", "duplicate", "rotate")),
    value=VALUES,
)
def test_fuzzed_documents(source, section, where, action, value):
    """test_verify_fuzz's mutations, written in the writer's layout."""
    if action == "rotate":
        blocks = DOCUMENTS[source]["blocks"]
        turn = 1 + where % (len(blocks) - 1)
        doc = dict(DOCUMENTS[source], blocks=blocks[turn:] + blocks[:turn])
    else:
        sections = (ENTRIES if action == "duplicate" else PATHS)[source]
        paths = sections[section % len(sections)]
        doc = mutate(DOCUMENTS[source], paths[where % len(paths)], action, value)
    assert_same(dumps(doc))


def relabel_grid(doc, rng):
    """A row translation and column permutation of a row-shift grid document: again valid."""
    n, m = doc["graph"]["n"], doc["graph"]["m"]
    offset, cols = rng.randrange(n), rng.sample(range(m), m)

    def vertex(v):
        return [(v[0] + offset) % n, cols[v[1]]]

    def edges(pairs):
        return sorted(sorted([vertex(a), vertex(b)]) for a, b in pairs)

    out = json.loads(json.dumps(doc))
    path = [doc["base"]["start"]]
    for dr, dc in doc["base"]["steps"]:
        path.append([(path[-1][0] + dr) % n, (path[-1][1] + dc) % m])
    mapped = [vertex(v) for v in path]
    steps = [[(b[0] - a[0]) % n, (b[1] - a[1]) % m] for a, b in zip(mapped, mapped[1:])]
    out["base"] = {"start": mapped[0], "steps": steps}
    out["blocks"] = [{"edges": edges(block["edges"])} for block in doc["blocks"]]
    return out


def variants(doc, rng):
    """(label, document): verify-files' variants of a valid document and the tampers of the
    writer's layout a lookup must not take for an image."""
    blocks = doc["blocks"]
    k = len(blocks)
    yield "valid", doc
    turn = rng.randrange(1, k)
    yield "rotated", dict(doc, blocks=blocks[turn:] + blocks[:turn])
    dropped = json.loads(json.dumps(blocks))
    dropped[1]["edges"].pop(rng.randrange(len(dropped[1]["edges"])))
    yield "dropped", dict(doc, blocks=dropped)
    moved = json.loads(json.dumps(blocks))
    moved[2 % k]["edges"] = sorted(moved[2 % k]["edges"] + [moved[0]["edges"].pop()])
    yield "moved", dict(doc, blocks=moved)
    last = json.loads(json.dumps(blocks))
    a = last[-1]["edges"][-1][0]
    last[-1]["edges"][-1] = [a, a]
    yield "malformed", dict(doc, blocks=last)
    prefix = json.loads(json.dumps(blocks))
    prefix[0]["edges"].pop()
    yield "block a prefix of its rendering", dict(doc, blocks=prefix)
    yield "an image repeated in place of another", dict(doc, blocks=[blocks[0], *blocks[:-1]])
    yield "a missing block", dict(doc, blocks=blocks[:-1])
    yield "an extra block", dict(doc, blocks=[*blocks, {"edges": blocks[0]["edges"][:1]}])
    yield "an image twice", dict(doc, blocks=[*blocks, blocks[0]])
    reversed_pair = json.loads(json.dumps(blocks))
    reversed_pair[-1]["edges"][0] = reversed_pair[-1]["edges"][0][::-1]
    yield "one pair reversed", dict(doc, blocks=reversed_pair)


SOURCES = {name: json.loads(text) for name, text in CANONICAL.items()}


def variant_texts():
    rng = random.Random(31)
    for name, doc in SOURCES.items():
        docs = [doc]
        if doc["group"]["kind"] == "row_shift":
            docs.append(relabel_grid(doc, rng))
        for i, source in enumerate(docs):
            for label, variant in variants(source, rng):
                yield f"{name}{'-relabelled' * i}: {label}", dumps(variant)
        text = CANONICAL[name]
        pair = dumps(doc["blocks"][1]["edges"][0])
        yield f"{name}: a pair after a block's rendering", text.replace(
            ']},{"edges":', f',{pair}]}},{{"edges":', 1
        )
        yield f"{name}: a member after the blocks", text.replace(
            '}],"report":', '}],"extra":[{"edges":[]}],"report":', 1
        )


VARIANTS = list(variant_texts())


@pytest.mark.parametrize("label, text", VARIANTS, ids=[label for label, _ in VARIANTS])
def test_variants(label, text):
    assert_same(text)


def test_variants_cover_each_outcome():
    outcomes = [separately(text) for _, text in VARIANTS]
    kinds = {("ok", "witnesses" not in o[5]) if o[0] == "ok" else o[0] for o in outcomes}
    assert kinds == {("ok", True), ("ok", False), SchemaError}


def refuse(*args):
    raise AssertionError("a block was tokenized")


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_valid_blocks_are_matched_not_tokenized(monkeypatch, name):
    """Each block of a valid file, in any order or relabelled, is an image: no block is
    tokenized."""
    doc = SOURCES[name]
    docs = [doc, dict(doc, blocks=doc["blocks"][1:] + doc["blocks"][:1])]
    if doc["group"]["kind"] == "row_shift":
        docs.append(relabel_grid(doc, random.Random(5)))
    monkeypatch.setattr(serialize, "_token_tables", refuse)
    for text in map(dumps, docs):
        assert verify_text(text)[3].all_ok


def test_a_doubted_block_is_tokenized(monkeypatch):
    """A block one pair short of an image's rendering is read by the tokenizer, and so are
    the blocks after it (test_variants shows that the result is the separate parse's)."""
    doc = SOURCES["n5"]
    blocks = json.loads(json.dumps(doc["blocks"]))
    blocks[2]["edges"].pop()
    monkeypatch.setattr(serialize, "_token_tables", refuse)
    with pytest.raises(AssertionError, match="tokenized"):
        verify_text(dumps(dict(doc, blocks=blocks)))


def swap_with_malformed_block(doc):
    """n5's swap generator, a bijection but no automorphism, and a malformed last block."""
    n = doc["graph"]["n"]
    pairs = [[[a, b], [a, b]] for a in range(n) for b in range(n)]
    pairs[0][1], pairs[n + 1][1] = [1, 1], [0, 0]
    blocks = json.loads(json.dumps(doc["blocks"]))
    a = blocks[-1]["edges"][-1][0]
    blocks[-1]["edges"][-1] = [a, "x"]
    group = {"kind": "explicit", "order": 2, "generators": [{"kind": "explicit", "map": pairs}]}
    return dict(doc, group=group, blocks=blocks)


def test_a_malformed_block_comes_before_a_failed_premise():
    doc = swap_with_malformed_block(SOURCES["n5"])
    text = dumps(doc)
    outcome = assert_same(text)
    assert outcome[0] is SchemaError and outcome[1].startswith("$.blocks[4].edges[")
    well_formed = dumps(dict(doc, blocks=SOURCES["n5"]["blocks"]))
    assert assert_same(well_formed)[0] is PreconditionFailed


def test_no_image_longer_than_its_block_is_rendered(monkeypatch):
    """K_200 under the trivial group, its base every edge: 2,000 one-edge blocks all open with
    the base's first pair, and none of them makes the reader render the base's 19,900 pairs."""
    n = 200
    edges = [[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    identity = {"kind": "explicit", "map": [[v, v] for v in range(1, n + 1)]}
    doc = {
        "graph": {"kind": "complete", "n": n},
        "group": {"kind": "explicit", "order": 1, "generators": [identity]},
        "base": {"edges": edges},
        "blocks": [{"edges": [[1, 2]]}] * 2000,
        "report": SOURCES["k9"]["report"],
    }
    rendered = []
    edge_list = serialize._edge_list

    def counted(keys, *args):
        rendered.append(len(keys))
        return edge_list(keys, *args)

    monkeypatch.setattr(serialize, "_edge_list", counted)
    text = dumps(doc)
    assert assert_same(text)[5]["is_partition"] is False
    assert sum(rendered) == 0


def test_an_image_is_rendered_once_for_the_blocks_that_are_not_it(monkeypatch):
    """K_8 under the trivial group, its base the path 1-2-3-4: 14 other paths 1-2-a-b open with
    the base's first pair, and the reader renders the base once for all of them, then once more
    for each block that is the base."""
    identity = {"kind": "explicit", "map": [[v, v] for v in range(1, 9)]}
    others = [[[1, 2], [2, a], [a, b]] for a in range(3, 8) for b in range(a + 1, 9) if (a, b) != (3, 4)]
    base = [[1, 2], [2, 3], [3, 4]]
    doc = {
        "graph": {"kind": "complete", "n": 8},
        "group": {"kind": "explicit", "order": 1, "generators": [identity]},
        "base": {"edges": base},
        "blocks": [{"edges": edges} for edges in others],
        "report": SOURCES["k9"]["report"],
    }
    rendered = []
    edge_list = serialize._edge_list

    def counted(keys, *args):
        rendered.append(len(keys))
        return edge_list(keys, *args)

    monkeypatch.setattr(serialize, "_edge_list", counted)
    assert assert_same(dumps(doc))[5]["group_transitive"] is False
    assert rendered == [3]
    rendered.clear()
    doc["blocks"] = [{"edges": base}, *doc["blocks"], {"edges": base}]
    assert assert_same(dumps(doc))[5]["is_partition"] is False
    assert rendered == [3, 3]


# ---------------------------------------------------------------- partition off the certificate


def partition_tampers(blocks):
    """(label, blocks): the blocks of a valid file with one defect a partition check must see."""
    k = len(blocks)

    def fresh():
        return json.loads(json.dumps(blocks))

    dropped = fresh()
    dropped[1]["edges"].pop(0)
    yield "an edge dropped", dropped
    moved = fresh()
    moved[k - 1]["edges"] = sorted(moved[k - 1]["edges"] + [moved[0]["edges"].pop(1)])
    yield "an edge moved", moved
    copied = fresh()
    copied[1]["edges"] = sorted(copied[1]["edges"] + [copied[0]["edges"][0]])
    yield "an edge copied into another block", copied
    yield "a block repeated", [*blocks, blocks[1]]
    yield "a block dropped", blocks[:1] + blocks[2:]
    yield "blocks rotated", blocks[1:] + blocks[:1]


CERTIFIED = [
    (f"{name}: {label}", dumps(dict(SOURCES[name], blocks=blocks)))
    for name in ("n5", "n7", "k9", "diag4")
    for label, blocks in partition_tampers(SOURCES[name]["blocks"])
]


def images_of(graph, group, base):
    """The base's images as array bytes, asserted certified to partition E, and the action."""
    action, tables, keys = _premises(graph, group, base)
    images, partitioned = _transport(action, tables, keys, array.tobytes)
    assert partitioned
    return action, set(images)


@pytest.mark.parametrize("label, text", CERTIFIED, ids=[label for label, _ in CERTIFIED])
def test_partition_off_the_certificate(label, text):
    """With the base's images certified to partition E, the witnesses read off them are
    partition_witnesses' and the oracle's, and both verify paths report them."""
    graph, group, dec = parse_decomposition(text)
    action, images = images_of(graph, group, dec.base)
    block_keys = [block.keys for block in dec.blocks]
    check = _partition_off_images(action, block_keys, [k.tobytes() for k in block_keys], images)
    assert check == partition_witnesses(graph, dec.blocks) == brute_partition_witnesses(graph, dec.blocks)
    witnesses = verify_decomposition(graph, group, dec).witnesses
    expected = None if check.ok else {
        "duplicated": list(check.duplicated), "missing": list(check.missing), "foreign": []
    }
    assert witnesses.get("is_partition") == expected
    assert (label.endswith("rotated") or label.endswith("moved")) == check.ok
    assert assert_same(text)[0] == "ok"


@pytest.mark.parametrize("name", ["n5", "n7", "k9", "diag4"])
@pytest.mark.parametrize("where", ["no edge", "past the last vertex"])
def test_a_key_of_no_edge_off_the_certificate(name, where):
    """A library block holding a key of no edge raises partition_witnesses' ValueError: a pair
    of vertices that is no edge ((0,0)-(1,1) on a grid, a loop on K_n), or a key past them."""
    graph, group, dec = parse_decomposition(CANONICAL[name])
    action = dec.base.action
    if where == "no edge":
        foreign = graph.m + 1 if isinstance(graph, GridGraph) else 0  # (0,0)-(1,1), or 1-1
    else:
        foreign = action.size * action.size
    bad = Subgraph(action, [*dec.blocks[1].keys[1:], foreign])
    blocks = (dec.blocks[0], bad, *dec.blocks[2:])
    with pytest.raises(ValueError) as expected:
        partition_witnesses(graph, blocks)
    if where == "no edge":
        with pytest.raises(ValueError):
            brute_partition_witnesses(graph, blocks)
    with pytest.raises(ValueError) as got:
        verify_decomposition(graph, group, Decomposition(blocks, group, dec.base))
    assert str(got.value) == str(expected.value)
