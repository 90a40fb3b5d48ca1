"""Deterministic JSON, DOT, and edge-text serialization.

The JSON layout is fixed: top-level keys graph, group, base, blocks,
report in that order, edge arrays sorted canonically, vertices written
as [row, col] pairs on grids and bare integer labels on complete
graphs.  Identical inputs always serialize to identical bytes, so
outputs can be diffed and used as golden files.  JSON blocks and split
segments, edge text and DOT are all written straight from key arrays
through one per-vertex text table per call (_vertex_texts); edge
objects are written only for witnesses and an edge-list base.

Parsing is strict and reports the JSON path of the first offending
element in document order, e.g. "$.blocks[2].edges[0]".  It reads the
input straight onto the integer representation of groups.EdgeAction:
a vertex becomes its index (row * m + col on a grid, label - 1 on a
complete graph) and an edge its key, adjacency is checked on the
indices, and each block's keys, or the base walk's, become a Subgraph,
which rejects a repeated edge.  Error text is formatted only for an
element that fails a check.

Text in the writer's layout has its blocks read straight from the text:
split on the writer's separators, each endpoint token looked up in the
vertex-text table, without json.loads building three lists per edge.
The rest of such a document is small and is decoded as usual.  From the
first block the reader doubts (leading zeros, reversed pairs, any
malformed edge), json.loads decodes only the rest of the blocks, which
gives the same blocks as decoding the whole text (_text_blocks).  Text
in another layout around its blocks (whitespace, escapes, a repeated
"blocks" key), and text whose rest of the blocks is no JSON value, is
decoded whole by json.loads, so it gives the same result and the same
error.

verify_text, the command line's verify, runs the verifier's premises
and transport right after the head, and the reader then takes a block
whose text is exactly the writer's _edge_list text of an image, found
by the block's first pair, as that image's key array; only other
blocks are tokenized.  It gives what parse_decomposition followed by
verify_decomposition gives.
"""

from __future__ import annotations

import json
from array import array
from functools import lru_cache
from itertools import chain, islice
from typing import Sequence

from .decompose import (
    CompleteGraph,
    Decomposition,
    PreconditionFailed,
    Subgraph,
    VerificationReport,
    _check_flags,
    _premises,
    _transport,
    verify_decomposition,
)
from .grid import GridGraph
from .groups import (
    DEFAULT_GROUP_CAP,
    DIAGONAL_SHIFT,
    EXPLICIT,
    ROW_SHIFT,
    EdgeAction,
    EdgeOrbit,
    FiniteGroup,
    GroupTooLarge,
    Permutation,
    diagonal_shift,
    generate_group,
    row_shift,
)
from .staircase import walk_from_array

# Size caps on parsed input, checked before anything proportional to the
# graph or the group is allocated.  K_101 box K_101 (10,201 vertices,
# 1,020,100 edges, a row-shift action of 1,030,301 entries) is within them.
MAX_VERTICES = 20_000
MAX_EDGES = 2_500_000
# |G| * |V|: the entries of all group elements' vertex tables together
MAX_ACTION_ENTRIES = 4_000_000
# distinct explicit generator tables: floor(log2 DEFAULT_GROUP_CAP).  Each generator
# of an irredundant list at least doubles the group, so no group within the
# closure cap needs more.
MAX_GENERATORS = DEFAULT_GROUP_CAP.bit_length() - 1
# characters of a block's text split at a time by the canonical-layout reader.  For
# K_135 box K_135 in one 46 MB block, verify peaks at 288 MB, and at 579 MB unsplit.
CHUNK_CHARS = 1 << 20
# per-vertex text tables kept for the writers and the reader: (graph, form) pairs
VERTEX_TEXT_TABLES = 8

# 12 distinguishable edge colors, cycled by block index
PALETTE = (
    "#a6cee3", "#1f78b4", "#b2df8a", "#33a02c",
    "#fb9a99", "#e31a1c", "#fdbf6f", "#ff7f00",
    "#cab2d6", "#6a3d9a", "#b15928", "#ffff99",
)


class SchemaError(ValueError):
    """Malformed serialized input; ``path`` points at the offending element."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


def dumps(obj) -> str:
    """Compact deterministic JSON: fixed key order, no whitespace variance."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def permutation_to_json(perm: Permutation) -> dict:
    graph = perm.graph
    if perm.kind in (ROW_SHIFT, DIAGONAL_SHIFT):
        return {"kind": perm.kind, "n": graph.n, "m": graph.m}
    vs = graph.vertices()
    pairs = [[v, vs[j]] for v, j in zip(vs, perm.table)]
    return {"kind": EXPLICIT, "map": pairs}


def _graph_json(graph) -> dict:
    if isinstance(graph, GridGraph):
        return {"kind": "grid", "n": graph.n, "m": graph.m}
    return {"kind": "complete", "n": graph.n}


def _group_json(group: FiniteGroup) -> dict:
    kind = group.generator_kind
    if kind in (ROW_SHIFT, DIAGONAL_SHIFT):
        return {"kind": kind, "order": group.order}
    return {
        "kind": EXPLICIT,
        "order": group.order,
        "generators": [permutation_to_json(g) for g in group.generators],
    }


def _base_json(base: Subgraph) -> dict:
    if base.walk is not None:
        w = base.walk
        return {"start": list(divmod(w.path[0], w.m)), "steps": [list(p) for p in w.step_pairs()]}
    return {"edges": base.edges}


def _jsonable(value):
    """Witness payloads as values json.dumps writes: a tuple (an edge or vertex too) as an array."""
    if isinstance(value, Permutation):
        return permutation_to_json(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def report_to_json_dict(report: VerificationReport) -> dict:
    out: dict = dict(report.flags())
    if report.witnesses:
        out["witnesses"] = _jsonable(report.witnesses)
    return out


@lru_cache(maxsize=VERTEX_TEXT_TABLES)
def _vertex_texts(graph, grid_form: str) -> tuple[str, ...]:
    """Each vertex's text by index: ``grid_form % (row, col)`` on a grid, the label on K_n."""
    if isinstance(graph, GridGraph):
        return tuple([grid_form % divmod(i, graph.m) for i in range(graph.vertex_count)])
    return tuple(map(str, graph.vertices()))


def _check_on(graph, subs) -> None:
    """ValueError naming both graphs unless every one of ``subs`` is a subgraph of ``graph``."""
    for sub in subs:
        if sub.action.graph is not graph and sub.action.graph != graph:
            raise ValueError(f"a subgraph of {sub.action.graph} is not a subgraph of {graph}")


@lru_cache(maxsize=VERTEX_TEXT_TABLES)
def _pair_halves(graph, grid_form: str, open_: str, sep: str, close: str) -> tuple[tuple, tuple]:
    """(heads, tails) of ``graph``: the text of edge i < j is heads[i] + tails[j]."""
    texts = _vertex_texts(graph, grid_form)
    return tuple([open_ + t + sep for t in texts]), tuple([t + close for t in texts])


def _halves(subs, *form: str) -> tuple[tuple, tuple, int]:
    """(heads, tails, |V|) of the one graph ``subs`` lie on, in _pair_halves' ``form``."""
    if not subs:
        return (), (), 0
    graph = subs[0].action.graph
    _check_on(graph, subs)
    return (*_pair_halves(graph, *form), graph.vertex_count)


# the JSON edge list's form for _pair_halves: [[r,c],[r,c]] on a grid, [a,b] on K_n
JSON_PAIR = ("[%d,%d]", "[", ",", "]")


def _edge_list(keys, heads: tuple, tails: tuple, size: int) -> str:
    """The text of ``keys``' pairs, comma-separated: an edge list without its brackets."""
    return ",".join([heads[k // size] + tails[k % size] for k in keys])


def dumps_with_edges(fields: dict, name: str) -> str:
    """dumps(fields), member ``name`` (subgraphs) written from the keys, large texts copied once."""
    heads, tails, size = _halves(fields[name], *JSON_PAIR)
    texts = (_edge_list(sub.keys, heads, tails, size) for sub in fields[name])
    edge_lists = "[%s]" % ",".join([f'{{"edges":[{text}]}}' for text in texts])
    members = (
        f'"{key}":{edge_lists if key == name else dumps(value)}' for key, value in fields.items()
    )
    return "{" + ",".join(members) + "}"


def decomposition_to_json(graph, dec: Decomposition, report: VerificationReport) -> str:
    """The JSON text of ``dec``, whose group, base and blocks are on ``graph`` (else ValueError)."""
    dec.group.tables_on(graph)
    _check_on(graph, (dec.base, *dec.blocks))
    fields = {
        "graph": _graph_json(graph),
        "group": _group_json(dec.group),
        "base": _base_json(dec.base),
        "blocks": dec.blocks,
        "report": report_to_json_dict(report),
    }
    return dumps_with_edges(fields, "blocks")


def orbit_id_str(oid: tuple) -> str:
    return f"{oid[0]}({oid[1]},{oid[2]})" if oid[0] in ("H", "V") else f"O({oid[1]})"


def orbit_lines(orbits: Sequence[EdgeOrbit], edges: bool) -> list[str]:
    """Each orbit's id and size, then with ``edges`` its member edges as "  (a,b)-(c,d)"; the
    orbits are of one graph, and an opaque id ("O", e) is written from e's key, the least."""
    if not orbits:
        return []
    graph, lines, size = orbits[0].action.graph, [], orbits[0].action.size
    _check_on(graph, orbits)
    texts = _vertex_texts(graph, "(%d,%d)") if edges or any(o.id[0] == "O" for o in orbits) else ()
    heads = edges and ["  " + t + "-" for t in texts]
    for orbit in orbits:
        oid, k = orbit.id, orbit.keys[0]
        name = f"O({texts[k // size]}-{texts[k % size]})" if oid[0] == "O" else orbit_id_str(oid)
        lines.append(f"{name} size={len(orbit.keys)}")
        if edges:
            lines += [heads[k // size] + texts[k % size] for k in orbit.keys]
    return lines


# ---------------------------------------------------------------- parsing


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _get(obj: dict, key: str, path: str):
    _expect(isinstance(obj, dict), path, "expected an object")
    if key not in obj:
        raise SchemaError(path, f"missing key {key!r}")
    return obj[key]


def _int_at(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    return value


def _parse_graph(obj, path: str):
    kind = _get(obj, "kind", path)
    if kind == "grid":
        n = _int_at(_get(obj, "n", path), f"{path}.n")
        m = _int_at(_get(obj, "m", path), f"{path}.m")
        if n < 2 or m < 2:
            raise SchemaError(path, f"grid needs n, m >= 2, got {n} x {m}")
        graph = GridGraph(n, m)
    elif kind == "complete":
        n = _int_at(_get(obj, "n", path), f"{path}.n")
        if n < 1:
            raise SchemaError(f"{path}.n", f"complete graph needs n >= 1, got {n}")
        graph = CompleteGraph(n)
    else:
        raise SchemaError(f"{path}.kind", f"unknown graph kind {kind!r}")
    # both graph types hold only their dimensions, so the counts are arithmetic
    if graph.vertex_count > MAX_VERTICES:
        raise SchemaError(
            path, f"{graph} has {graph.vertex_count} vertices, more than the cap of {MAX_VERTICES}"
        )
    if graph.edge_count > MAX_EDGES:
        raise SchemaError(
            path, f"{graph} has {graph.edge_count} edges, more than the cap of {MAX_EDGES}"
        )
    return graph


def _vertex_index(graph, value, path: str) -> int:
    """A serialized vertex as its index: row * m + col on a grid, label - 1 on K_n."""
    if isinstance(graph, GridGraph):
        _expect(
            isinstance(value, list) and len(value) == 2, path, "expected a [row, col] pair"
        )
        row = _int_at(value[0], f"{path}[0]")
        col = _int_at(value[1], f"{path}[1]")
        if not (0 <= row < graph.n and 0 <= col < graph.m):
            raise SchemaError(path, f"vertex ({row},{col}) outside {graph}")
        return row * graph.m + col
    label = _int_at(value, path)
    if not 1 <= label <= graph.n:
        raise SchemaError(path, f"vertex {label} outside {graph}")
    return label - 1


def _edge_key(action: EdgeAction, value, path: str) -> int:
    """The key of one serialized edge; SchemaError naming what is wrong with it."""
    _expect(isinstance(value, list) and len(value) == 2, path, "expected an endpoint pair")
    graph = action.graph
    i = _vertex_index(graph, value[0], f"{path}[0]")
    j = _vertex_index(graph, value[1], f"{path}[1]")
    u, v = action.vertices[i], action.vertices[j]
    if i == j:
        raise SchemaError(path, f"degenerate edge at {u}")
    if isinstance(graph, GridGraph) and u.row != v.row and u.col != v.col:
        raise SchemaError(path, f"{u}-{v} is not a grid edge")
    return i * action.size + j if i < j else j * action.size + i


def _edge_keys(action: EdgeAction, value, path: str) -> list[int]:
    """Keys of a serialized edge list, in document order.

    A well-formed edge is read straight to its key; the first one that
    is not goes through _edge_key, which raises the SchemaError for it.
    """
    _expect(isinstance(value, list) and value, path, "expected a non-empty edge list")
    graph, size = action.graph, action.size
    keys: list[int] = []
    # a list's unpacking can only raise ValueError, for a length other than 2
    if isinstance(graph, GridGraph):
        n, m = graph.n, graph.m
        for e in value:
            if type(e) is list:
                try:
                    a, b = e
                    if type(a) is type(b) is list:
                        (r1, c1), (r2, c2) = a, b
                        if (
                            type(r1) is type(c1) is type(r2) is type(c2) is int
                            and 0 <= r1 < n and 0 <= r2 < n and 0 <= c1 < m and 0 <= c2 < m
                            and (r1 == r2) != (c1 == c2)
                        ):
                            i, j = r1 * m + c1, r2 * m + c2
                            keys.append(i * size + j if i < j else j * size + i)
                            continue
                except ValueError:
                    pass
            keys.append(_edge_key(action, e, f"{path}[{len(keys)}]"))
    else:
        for e in value:
            if type(e) is list:
                try:
                    a, b = e
                    if type(a) is type(b) is int and 0 < a <= size and 0 < b <= size and a != b:
                        keys.append((a - 1) * size + b - 1 if a < b else (b - 1) * size + a - 1)
                        continue
                except ValueError:
                    pass
            keys.append(_edge_key(action, e, f"{path}[{len(keys)}]"))
    return keys


def _subgraph(action: EdgeAction, keys: list[int], path: str, walk=None) -> Subgraph:
    """The Subgraph on ``keys``; SchemaError at ``path`` for the least duplicated edge."""
    try:
        return Subgraph(action, keys, walk)
    except ValueError as err:
        raise SchemaError(path, str(err)) from None


def _parse_step(value, path: str) -> None:
    _expect(isinstance(value, list) and len(value) == 2, path, "expected a [drow, dcol] pair")
    dr = _int_at(value[0], f"{path}[0]")
    dc = _int_at(value[1], f"{path}[1]")
    _expect(dr or dc, path, "degenerate step (0,0)")


def _parse_permutation(action: EdgeAction, obj, path: str) -> Permutation:
    graph = action.graph
    kind = _get(obj, "kind", path)
    if kind == ROW_SHIFT:
        _expect(isinstance(graph, GridGraph), path, "row_shift needs a grid graph")
        return row_shift(graph.n, graph.m)
    if kind == DIAGONAL_SHIFT:
        _expect(isinstance(graph, GridGraph), path, "diagonal_shift needs a grid graph")
        _expect(graph.n == graph.m, path, "diagonal_shift needs a square grid")
        return diagonal_shift(graph.n)
    if kind == EXPLICIT:
        entries = _get(obj, "map", path)
        _expect(isinstance(entries, list), f"{path}.map", "expected a list of pairs")
        table = [-1] * action.size
        for i, pair in enumerate(entries):
            ppath = f"{path}.map[{i}]"
            _expect(isinstance(pair, list) and len(pair) == 2, ppath, "expected a [vertex, image] pair")
            v = _vertex_index(graph, pair[0], f"{ppath}[0]")
            w = _vertex_index(graph, pair[1], f"{ppath}[1]")
            if table[v] != -1:
                raise SchemaError(ppath, f"vertex {action.vertices[v]} mapped twice")
            table[v] = w
        # every entry maps a distinct vertex, so the count decides coverage
        _expect(
            len(entries) == action.size,
            f"{path}.map",
            "map does not cover the vertex set exactly",
        )
        _expect(
            len(set(table)) == action.size,
            f"{path}.map",
            "mapping is not a bijection on its domain",
        )
        return Permutation(graph, tuple(table))
    raise SchemaError(f"{path}.kind", f"unknown permutation kind {kind!r}")


def _parse_group(action: EdgeAction, obj, path: str) -> FiniteGroup:
    kind = _get(obj, "kind", path)
    order = _int_at(_get(obj, "order", path), f"{path}.order")
    _expect(order >= 1, f"{path}.order", "group order must be positive")
    if kind in (ROW_SHIFT, DIAGONAL_SHIFT):
        gens = [_parse_permutation(action, obj, path)]
    elif kind == EXPLICIT:
        raw = _get(obj, "generators", path)
        _expect(isinstance(raw, list) and raw, f"{path}.generators", "expected a non-empty list")
        gens, tables = [], set()
        for i, g in enumerate(raw):
            gpath = f"{path}.generators[{i}]"
            gens.append(_parse_permutation(action, g, gpath))
            tables.add(gens[-1].table)
            if len(tables) > MAX_GENERATORS:
                raise SchemaError(
                    gpath, f"{len(tables)} distinct generators, more than the cap of {MAX_GENERATORS}"
                )
    else:
        raise SchemaError(f"{path}.kind", f"unknown group kind {kind!r}")
    cap = min(DEFAULT_GROUP_CAP, MAX_ACTION_ENTRIES // action.size)
    try:
        group = generate_group(gens, cap=cap)
    except GroupTooLarge as err:
        raise SchemaError(path, str(err)) from None
    if group.order != order:
        raise SchemaError(
            f"{path}.order", f"declared order {order} but the generators give order {group.order}"
        )
    return group


def _parse_base(action: EdgeAction, obj, path: str) -> Subgraph:
    graph = action.graph
    _expect(isinstance(obj, dict), path, "expected an object")
    if "start" in obj or "steps" in obj:
        _expect(
            isinstance(graph, GridGraph), path, "walk bases are only defined on grid graphs"
        )
        start = _vertex_index(graph, _get(obj, "start", path), f"{path}.start")
        raw = _get(obj, "steps", path)
        _expect(isinstance(raw, list) and raw, f"{path}.steps", "expected a non-empty list")
        for i, s in enumerate(raw):  # a step other than a plain non-zero [int, int] pair
            if not (type(s) is list and len(s) == 2 and type(s[0]) is type(s[1]) is int and any(s)):
                _parse_step(s, f"{path}.steps[{i}]")
        try:
            walk = walk_from_array(divmod(start, graph.m), raw, graph.n, graph.m)
        except ValueError as err:
            raise SchemaError(f"{path}.steps", str(err)) from None
        # consecutive walk vertices are distinct and share a line, so each pair is an edge
        return _subgraph(action, action.walk_keys(walk), f"{path}.steps", walk)
    if "edges" in obj:
        path = f"{path}.edges"
        return _subgraph(action, _edge_keys(action, obj["edges"], path), path)
    raise SchemaError(path, "base needs either start+steps or edges")


def _parse_report_stub(obj, path: str) -> None:
    """The embedded report is never trusted, but it must be well-formed."""
    _expect(isinstance(obj, dict), path, "expected an object")
    for flag in VerificationReport.FLAGS:
        value = _get(obj, flag, path)
        _expect(isinstance(value, bool), f"{path}.{flag}", "expected a boolean")


def _loads(text: str):
    try:
        return json.loads(text)
    except ValueError as err:  # a JSONDecodeError, or an integer past the digit limit
        raise SchemaError("$", f"invalid JSON: {err}") from None
    except RecursionError:
        raise SchemaError("$", "invalid JSON: nested too deeply") from None


def _split_blocks(text: str):
    """(the document with its blocks member read as null, the blocks text), or None.

    The blocks text runs from the first ``"blocks":[{"edges":[`` to the
    next ``}]``.  Text with a backslash, or naming "blocks" other than
    once, is left to json.loads, so no other key, escaped or not, can be
    a blocks member.  The document decoded with null in the blocks
    text's place must hold that null as its top-level blocks member.
    Once _canonical_block_keys has read the whole blocks text in the
    writer's layout, that text is one JSON array, and the whole text
    decodes to this document with those blocks in the null's place.
    """
    if "\\" in text or text.count('"blocks"') != 1:
        return None
    start = text.find('"blocks":[{"edges":[') + len('"blocks":')
    end = text.find("}]", start) + len("}]")
    if start < len('"blocks":') or end < start:
        return None
    try:
        doc = json.loads(text[:start] + "null" + text[end:])
    except (ValueError, RecursionError):
        return None
    if type(doc) is not dict or "blocks" not in doc or doc["blocks"] is not None:
        return None
    return doc, text[start:end]


@lru_cache(maxsize=VERTEX_TEXT_TABLES)
def _token_tables(graph) -> tuple[dict, dict, tuple, tuple]:
    """The canonical reader's tables of ``graph``, read and never written: each vertex index
    by its opened ("[r,c" or "[a") and its closed ("r,c]" or "a]") text, then each vertex's
    line numbers, its row and column on a grid, the one line of K_n."""
    texts, size = _vertex_texts(graph, "%d,%d"), graph.vertex_count
    firsts = {"[" + t: i for i, t in enumerate(texts)}
    seconds = {t + "]": i for i, t in enumerate(texts)}
    if not isinstance(graph, GridGraph):
        return firsts, seconds, (0,) * size, (0,) * size
    rows, cols = zip(*[divmod(i, graph.m) for i in range(size)])
    return firsts, seconds, rows, cols


def _canonical_block_keys(action: EdgeAction, text: str, images=()) -> tuple[list, int | None]:
    """(the keys of the leading blocks in the writer's layout, the offset in ``text`` of the
    ``{"edges":`` of the first block not read, or None when every block is read).

    ``text`` is cut by _split_blocks: ``[{"edges":[`` up to ``}]``.
    A block whose text is the writer's rendering of one of ``images``
    (strictly ascending key arrays of edges, see verify_text) is that
    array: the block's first pair names the one image to render and
    compare, so no other image is rendered, and an image's rendering is
    kept once a block fails to match it, so the blocks that are no image
    render each image once between them.  Any other block
    ``[[a,b],[c,d],...]`` (``[[[r,c],[r,c]],...]`` on a grid) splits on
    the writer's separators into endpoint tokens that must be exactly
    the vertex texts _vertex_texts gives, opened or closed, so the text
    is the canonical rendering of the pairs it yields.  Every pair must
    be ascending and, on a grid, on one line.  Reading stops before the
    first block that is not in the layout, or that takes the total past
    MAX_EDGES.  A long block is split a chunk of pairs at a time, in
    place.
    """
    graph, size = action.graph, action.size
    opening, closing, sep = ("[[", "]]", "],[") if isinstance(graph, GridGraph) else ("[", "]", ",")
    between = "]" + sep + "["  # from the end of one pair to the start of the next
    heads, tails = _pair_halves(graph, *JSON_PAIR) if images else ((), ())
    # each image by the text of its first, least pair, which ends at the pair's first ``closing``
    by_first = {heads[a[0] // size] + tails[a[0] % size]: a for a in reversed(images)}

    rendered: dict = {}  # an image's rendering by its first pair's text, once a block is not it

    def image_at(pos: int, end: int):
        """The image whose rendering is the block text[pos:end], or None."""
        cut = text.find(closing, pos, end)
        first = text[pos + 1 : cut + len(closing)] if cut > pos else ""
        image = by_first.get(first)
        # a pair's text has 5 characters or more ("[a,b]"), so no image longer than the block
        # is rendered: rendering costs at most what reading the block does
        if image is None or 5 * len(image) > end - pos:
            return None
        body = rendered.get(first) or _edge_list(image, heads, tails, size)
        framed = text[pos] == "[" and text[end - 1] == "]" and end - pos == len(body) + 2
        if framed and text.startswith(body, pos + 1):
            return image
        rendered[first] = body
        return None

    def block_keys(pos: int, end: int):
        """The keys of the block text[pos:end], or None."""
        start, body_end, keys, pairs = pos + len(opening), end - len(closing), [], 0
        framed = text.startswith(opening, pos) and text.endswith(closing, pos, end)
        if not (start < body_end and framed):
            return None
        firsts, seconds, rows, cols = _token_tables(graph)
        while start < body_end:
            cut = text.find(between, start + CHUNK_CHARS, body_end) + 1 or body_end
            tokens = text[start:cut].split(sep)
            start = cut + len(sep)
            pairs += len(tokens) // 2
            try:
                keys += [
                    i * size + j
                    for i, j in zip(
                        map(firsts.__getitem__, islice(tokens, 0, None, 2)),
                        map(seconds.__getitem__, islice(tokens, 1, None, 2)),
                    )
                    if i < j and (rows[i] == rows[j] or cols[i] == cols[j])
                ]
            except KeyError:
                return None
            if len(tokens) % 2 or len(keys) != pairs:
                return None
        return keys

    key_lists, total, pos, stop = [], 0, len('[{"edges":'), len(text) - len("}]")
    while True:
        end = text.find('},{"edges":', pos, stop)
        block_end = stop if end < 0 else end
        keys = image_at(pos, block_end) if by_first else None
        if keys is None:
            keys = block_keys(pos, block_end)
        if keys is None or total + len(keys) > MAX_EDGES:
            return key_lists, pos - len('{"edges":')
        total += len(keys)
        key_lists.append(keys)
        if end < 0:
            return key_lists, None
        pos = end + len('},{"edges":')


def _parse_head(data) -> tuple:
    """(graph, its EdgeAction, group, base) of a decoded document."""
    _expect(isinstance(data, dict), "$", "expected a top-level object")
    graph = _parse_graph(_get(data, "graph", "$"), "$.graph")
    action = EdgeAction(graph)
    group = _parse_group(action, _get(data, "group", "$"), "$.group")
    base = _parse_base(action, _get(data, "base", "$"), "$.base")
    images = group.order * base.edge_count  # the verifier's first work; |E| in a valid file
    if images > MAX_EDGES:
        raise SchemaError("$.base", f"{images} base edge images, more than the cap of {MAX_EDGES}")
    return graph, action, group, base


def _text_head(text: str):
    """(document with null blocks, blocks text, head) of text in the writer's layout whose
    head parses (_split_blocks, _parse_head), else None: such text is decoded whole."""
    split = _split_blocks(text)
    if split is None:
        return None
    try:
        return (*split, _parse_head(split[0]))
    except SchemaError:
        return None


def _text_blocks(text: str, doc: dict, blocks_text: str, head: tuple, images=()) -> tuple:
    """(graph, group, decomposition) of ``text``, whose _text_head is (doc, blocks_text, head).

    The blocks are read from the text (_canonical_block_keys).  From the
    first block the reader doubts, at ``offset``, the rest R of the
    blocks text is decoded: blocks_text is ``[B0,...,Bk-1,`` + R with
    each Bi a writer's rendering, so it is one JSON value exactly when
    ``[`` + R is, and then the whole text is ``doc`` with that value in
    the place of its null.  ``[[`` + R + ``]`` must decode, through
    _loads as the whole text would be, to a one-element list: the outer
    ``[[`` gives R the document's own nesting depth.  Otherwise the text
    is decoded whole, and the blocks read so far are kept if the
    decoder's document has the same members besides blocks: a second
    member inside the blocks text would override the head, and then
    that document is parsed afresh.
    """
    key_lists, offset = _canonical_block_keys(head[1], blocks_text, images)
    if offset is None:  # read already: _parse_blocks takes no entry of them
        return _parse_blocks(dict(doc, blocks=key_lists), head, key_lists)
    try:
        rest = _loads("[[" + blocks_text[offset:] + "]")
    except SchemaError:  # the whole text's decode gives the error, or another document
        rest = ()
    if len(rest) == 1:
        return _parse_blocks(dict(doc, blocks=key_lists + rest[0]), head, key_lists)
    data = _loads(text)
    if type(data) is not dict or data != dict(doc, blocks=data.get("blocks")):
        return parse_decomposition(data)
    return _parse_blocks(data, head, key_lists)


def _parse_blocks(data, head: tuple, leading: list) -> tuple:
    """(graph, group, decomposition) of ``data``, whose head parsed to ``head``.

    ``leading`` holds the keys of the first blocks, read from the text.
    """
    graph, action, group, base = head
    raw_blocks = _get(data, "blocks", "$")
    _expect(isinstance(raw_blocks, list) and raw_blocks, "$.blocks", "expected a non-empty list")
    blocks = []
    total = 0  # |E| in a valid file
    for i, entry in enumerate(raw_blocks):
        path = f"$.blocks[{i}].edges"
        if i < len(leading):
            keys = leading[i]
        else:
            keys = _edge_keys(action, _get(entry, "edges", f"$.blocks[{i}]"), path)
        total += len(keys)
        if total > MAX_EDGES:
            raise SchemaError(path, f"{total} block edges in all, more than the cap of {MAX_EDGES}")
        matched = type(keys) is array  # an image the reader matched, strictly ascending already
        blocks.append(Subgraph._ascending(action, keys) if matched else _subgraph(action, keys, path))
    _parse_report_stub(_get(data, "report", "$"), "$.report")
    return graph, group, Decomposition(tuple(blocks), group, base)


def parse_decomposition(data) -> tuple:
    """Rebuild (graph, group, decomposition) from serialized form.

    ``data`` is a JSON string or an already-decoded object.  The
    embedded report is type-checked but otherwise ignored; callers are
    expected to re-verify.  Explicit generators are checked to be
    bijections here; whether they are automorphisms is a mathematical
    question left to the caller.  Text whose blocks are in the writer's
    layout has them read without the decoder (_text_blocks); any other
    text gives the same result or error as its decoded object.
    """
    if isinstance(data, str):
        read = _text_head(data)
        return parse_decomposition(_loads(data)) if read is None else _text_blocks(data, *read)
    return _parse_blocks(data, _parse_head(data), [])


def verify_text(text: str) -> tuple:
    """(graph, group, decomposition, report): parse_decomposition of ``text``, then
    verify_decomposition, with their result or exception, in one pass.

    In the writer's layout the premises and transport run once, after
    the head.  Every group element is then a bijective automorphism and
    the parsed base's keys are distinct edges, so each image is a
    strictly ascending array of edge keys, and the writer's text of it
    is exactly the text the reader parses back to it: a block with that
    text is taken as the image (_canonical_block_keys), which changes no
    parse result, and the flags are checked on the same premises and
    images.  Failed premises leave every block to the tokenizer and are
    raised after the parse, so a malformed block still comes first.  A
    decoded document with another head than the text's, and text in any
    other layout, are verified afresh.
    """
    read = _text_head(text)
    if read is None:
        graph, group, dec = parse_decomposition(_loads(text))
        return graph, group, dec, verify_decomposition(graph, group, dec)
    graph, action, group, base = read[2]
    failed = images = None
    try:
        action, tables, keys = _premises(graph, group, base)
    except PreconditionFailed as err:
        failed = err
    else:
        images, partitioned = _transport(action, tables, keys)
    parsed = _text_blocks(text, *read, images or ())
    if parsed[2].base is not base:
        return *parsed, verify_decomposition(*parsed)
    if failed is not None:
        raise failed
    signatures = [image.tobytes() for image in images]
    return *parsed, _check_flags(graph, group, parsed[2], action, signatures, partitioned)


# ---------------------------------------------------------------- text formats


def blocks_to_text(blocks: Sequence[Subgraph]) -> str:
    """Edge text for the blocks of one graph, with a comment header per block.

    One edge per line, canonical endpoint first: (a,b)-(c,d) or u-v.
    """
    heads, tails, size = _halves(blocks, "(%d,%d)", "", "-", "\n")
    chunks = []
    for i, block in enumerate(blocks):
        chunks.append(f"# block {i}\n")
        chunks.extend([heads[k // size] + tails[k % size] for k in block.keys])
    return "".join(chunks)


def dot_for_blocks(blocks: Sequence[Subgraph]) -> str:
    """GraphViz text for the blocks of one graph: the vertices they touch in index order, which
    is vertex order on a grid or a K_n, then their edges, colored by block."""
    heads, tails, size = _halves(blocks, "%d,%d", '  "', '" -- "', '"')
    keys = list(chain.from_iterable(block.keys for block in blocks))
    touched = {k // size for k in keys}.union([k % size for k in keys])
    lines = ["graph decomposition {", "  node [shape=circle fontsize=10];"]
    lines += [f'  "{tails[i]};' for i in sorted(touched)]
    for i, block in enumerate(blocks):
        color = f' [color="{PALETTE[i % len(PALETTE)]}"];'
        lines += [heads[k // size] + tails[k % size] + color for k in block.keys]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(dec: Decomposition) -> str:
    """GraphViz text with one fixed palette color per block."""
    return dot_for_blocks(dec.blocks)
