"""The three benchmark workloads, built from a seed.

A workload hands out rounds of operations.  Every round of a workload
has the same mix (the same commands, sources and variants); the seed
only fixes the order inside a round and, for verify-files, how each
input file is relabelled and where it is tampered with.  So two seeds
give the same proportions, and a run that stops at a round boundary
holds exactly that mix.

An operation is one ``rookpaths`` command line: the argv, a mix label,
the edge count of the graph it handles, and the expected outcome.
"""

from __future__ import annotations

import json
import random
from math import comb
from pathlib import Path
from typing import NamedTuple

from check import FLAGS, Expect, check

class Op(NamedTuple):
    argv: tuple
    cls: str  # mix label
    edges: int  # edge count of the graph the command handles
    expect: Expect
    heavy: bool = False  # member of the class that heavy_op_s reports
    probe: bool = False  # known-defect probe: run and checked, kept out of the metrics


def grid_edges(n: int, m: int) -> int:
    return n * comb(m, 2) + m * comb(n, 2)


def command(argv) -> str:
    return " ".join(argv)


def fixed_op(argv, exit_code, edges, digests, heavy=False) -> Op:
    argv = tuple(argv)
    expect = Expect("digest", exit_code, digest=digests.get(command(argv)))
    return Op(argv, command(argv), edges, expect, heavy)


def generate_op(n: int, digests, heavy=False) -> Op:
    argv = ("generate", "--n", str(n))
    expect = Expect("staircase", 0, digest=digests.get(command(argv)), n=n)
    return Op(argv, command(argv), n * n * (n - 1), expect, heavy)


# ---------------------------------------------------------------- staircase-large


class StaircaseLarge:
    """``generate --n N`` (JSON) for each width once per round, in seeded order."""

    def __init__(self, digests, rng: random.Random, widths=(11, 13, 17, 19, 23)):
        self.rng = rng
        self.ops = [generate_op(n, digests, heavy=n == max(widths)) for n in widths]

    def next_round(self) -> list[Op]:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------- cli-small


def cli_small_commands() -> list[tuple[tuple, int, int]]:
    """(argv, exit code by the README contract, graph edge count) of every short command."""
    cmds = []
    for name, edges in (("k9", 36), ("fig3", grid_edges(3, 3)), ("diag4", grid_edges(4, 4))):
        for fmt in ("json", "dot", "edges"):
            cmds.append((("examples", name, "--format", fmt), 0, edges))
    for n in range(2, 8):
        for m in range(2, 8):
            # an even row shift has an element of order 2 fixing vertical edges
            cmds.append((("orbits", "--n", str(n), "--m", str(m)), 2 if n % 2 == 0 else 0, grid_edges(n, m)))
    for n in range(3, 7):
        cmds.append((("orbits", "--n", str(n), "--group", "diagonal_shift", "--edges"), 0, grid_edges(n, n)))
    # the n=7 commands are about a fifth of a round, so the p90 falls inside their band
    for n, sizes in ((5, (None, 2, 3, 4, 5, 10)), (7, (None, 1, 2, 3, 4, 6, 7, 14, 21))):
        for b in sizes:
            argv = ("split", "--n", str(n)) + (() if b is None else ("--b", str(b)))
            length = n * (n - 1)
            cmds.append((argv, 0 if b is None or length % b == 0 else 1, n * n * (n - 1)))
    for fmt in ("dot", "edges"):
        cmds.append((("split", "--n", "7", "--format", fmt), 0, 7 * 7 * 6))
    cmds.append((("generate", "--n", "7"), 0, 7 * 7 * 6))
    for n in (3, 5, 7):
        for fmt in ("dot", "edges"):
            cmds.append((("generate", "--n", str(n), "--format", fmt), 0, n * n * (n - 1)))
    cmds.append((("generate", "--n", "9"), 1, 0))
    cmds.append((("generate", "--n", "9", "--force"), 2, 0))
    return cmds


class CliSmall:
    """Every short command once per round, in seeded order."""

    HEAVY_PREFIX = ("split", "--n", "7")

    def __init__(self, digests, rng: random.Random, commands=None):
        self.rng = rng
        self.ops = [
            fixed_op(argv, code, edges, digests, heavy=argv[:3] == self.HEAVY_PREFIX)
            for argv, code, edges in (commands or cli_small_commands())
        ]

    def next_round(self) -> list[Op]:
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------- verify-files


def _sorted_edge(a, b):
    return [a, b] if a <= b else [b, a]


def _relabel(doc: dict, vmap) -> dict:
    """Image of a decomposition document under the vertex map ``vmap``.

    ``vmap`` must be a graph automorphism that normalizes the group, so
    the image is again a valid decomposition under the same group.  The
    walk base is re-derived from its mapped vertex sequence.
    """
    out = {"graph": doc["graph"], "group": doc["group"]}
    grid = doc["graph"]["kind"] == "grid"
    if grid:
        n, m = doc["graph"]["n"], doc["graph"]["m"]
        vm = lambda v: list(vmap(tuple(v)))  # noqa: E731
    else:
        vm = vmap
        gens = []
        for gen in doc["group"]["generators"]:
            gens.append({"kind": "explicit", "map": sorted([vm(v), vm(w)] for v, w in gen["map"])})
        out["group"] = dict(doc["group"], generators=gens)
    base = doc["base"]
    if "steps" in base:
        verts = [tuple(base["start"])]
        for dr, dc in base["steps"]:
            r, c = verts[-1]
            verts.append(((r + dr) % n, (c + dc) % m))
        mapped = [vmap(v) for v in verts]
        steps = [[(b[0] - a[0]) % n, (b[1] - a[1]) % m] for a, b in zip(mapped, mapped[1:])]
        out["base"] = {"start": list(mapped[0]), "steps": steps}
    else:
        out["base"] = {"edges": sorted(_sorted_edge(vm(a), vm(b)) for a, b in base["edges"])}
    out["blocks"] = [
        {"edges": sorted(_sorted_edge(vm(a), vm(b)) for a, b in blk["edges"])} for blk in doc["blocks"]
    ]
    out["report"] = doc["report"]
    return out


def _row_shift_map(n: int, rng: random.Random):
    """A row translation and optional row reflection, times a column permutation."""
    offset, flip = rng.randrange(n), rng.random() < 0.5
    cols = list(range(n))
    rng.shuffle(cols)
    key = (offset, flip, tuple(cols))
    return key, lambda v: (((-v[0] if flip else v[0]) + offset) % n, cols[v[1]])


def _diagonal_map(n: int, rng: random.Random):
    """A translation, optional transpose and optional negation; all normalize the diagonal shift."""
    dr, dc, swap, neg = rng.randrange(n), rng.randrange(n), rng.random() < 0.5, rng.random() < 0.5

    def vmap(v):
        r, c = (v[1], v[0]) if swap else v
        if neg:
            r, c = -r, -c
        return ((r + dr) % n, (c + dc) % n)

    return (dr, dc, swap, neg), vmap


def _conjugate_map(n: int, rng: random.Random):
    """A relabelling of 1..n; it conjugates the explicit group along with the blocks."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return tuple(labels), lambda v: labels[v - 1]


class Source(NamedTuple):
    name: str
    argv: tuple  # command whose stdout is the valid document
    maps: object  # (n, rng) -> (key, vertex map)
    heavy: bool = False


VERIFY_SOURCES = (
    Source("n5", ("generate", "--n", "5"), _row_shift_map),
    Source("n7", ("generate", "--n", "7"), _row_shift_map),
    Source("n11", ("generate", "--n", "11"), _row_shift_map),
    Source("n13", ("generate", "--n", "13"), _row_shift_map, heavy=True),
    Source("k9", ("examples", "k9"), _conjugate_map),
    Source("diag4", ("examples", "diag4"), _diagonal_map),
)


def _edge_count(graph: dict) -> int:
    if graph["kind"] == "grid":
        return grid_edges(graph["n"], graph["m"])
    return comb(graph["n"], 2)
VARIANTS = ("valid", "moved", "dropped", "malformed")
DEFECT1_VERTICES = 20


def _malform(doc: dict, rng: random.Random) -> str:
    """Break one edge in the second half of the last block; return its JSON path."""
    blocks = doc["blocks"]
    i = len(blocks) - 1
    edges = blocks[i]["edges"]
    j = rng.randrange(len(edges) // 2, len(edges))
    a, b = edges[j]
    kind = rng.choice(("out_of_range", "not_an_edge", "wrong_type", "short"))
    if doc["graph"]["kind"] == "grid":
        n, m = doc["graph"]["n"], doc["graph"]["m"]
        bad = {
            "out_of_range": [a, [n, a[1]]],
            "not_an_edge": [a, [(a[0] + 1) % n, (a[1] + 1) % m]],
            "wrong_type": [a, "x"],
            "short": [a],
        }[kind]
    else:
        bad = {
            "out_of_range": [a, doc["graph"]["n"] + 1],
            "not_an_edge": [a, a],
            "wrong_type": [a, "x"],
            "short": [a],
        }[kind]
    edges[j] = bad
    return f"$.blocks[{i}].edges[{j}]"


def _flags(*false) -> dict:
    return {f: f not in false for f in FLAGS}


# A changed block is no image of the base under the (semiregular) group, so
# invariance and transitivity fail with it; the base itself is untouched.
TAMPERED = ("blocks_isomorphic_to_base", "group_invariant", "group_transitive")


def _tamper(doc: dict, variant: str, rng: random.Random) -> Expect:
    blocks = doc["blocks"]
    if variant == "valid":
        return Expect("report", 0, flags=_flags())
    if variant == "dropped":
        i = rng.randrange(len(blocks))
        edges = blocks[i]["edges"]
        edge = edges.pop(rng.randrange(len(edges)))
        witnesses = {
            "is_partition": {"duplicated": [], "missing": [edge], "foreign": []},
            "blocks_isomorphic_to_base": {"block_index": i},
        }
        return Expect("report", 2, flags=_flags("is_partition", *TAMPERED), witnesses=witnesses)
    if variant == "moved":
        src, dst = rng.sample(range(len(blocks)), 2)
        edges = blocks[src]["edges"]
        blocks[dst]["edges"] = sorted(blocks[dst]["edges"] + [edges.pop(rng.randrange(len(edges)))])
        # the cover is unchanged, but two blocks now differ in size from the base
        witnesses = {"blocks_isomorphic_to_base": {"block_index": min(src, dst)}}
        return Expect("report", 2, flags=_flags(*TAMPERED), witnesses=witnesses)
    return Expect("malformed", 1, path=_malform(doc, rng))


def defect1_file(rng: random.Random) -> tuple[dict, Expect]:
    """A hostile input: one 20-vertex cycle block on K_20 under the trivial group.

    The block is the base and misses every other edge, so the right
    verdict is exit 2 with only is_partition false.  When the benchmark
    was added the isomorphism search raised instead, because the cycle
    exceeds its 16-vertex cap; the workload runs these files as
    known-defect probes, kept out of the counted operations.
    """
    n = DEFECT1_VERTICES
    order = list(range(1, n + 1))
    rng.shuffle(order)
    cycle = sorted(_sorted_edge(a, b) for a, b in zip(order, order[1:] + order[:1]))
    missing = [[a, b] for a in range(1, n + 1) for b in range(a + 1, n + 1) if [a, b] not in cycle]
    witness = {"is_partition": {"duplicated": [], "missing": missing, "foreign": []}}
    expect = Expect("report", 2, flags=_flags("is_partition"), witnesses=witness)
    return {
        "graph": {"kind": "complete", "n": n},
        "group": {
            "kind": "explicit",
            "order": 1,
            "generators": [{"kind": "explicit", "map": [[v, v] for v in range(1, n + 1)]}],
        },
        "base": {"edges": cycle},
        "blocks": [{"edges": list(cycle)}],
        "report": dict.fromkeys(FLAGS, True),
    }, expect


class VerifyFiles:
    """``verify --input F`` on distinct files: every source in every variant once per round.

    The valid documents come from the program itself (checked against
    their recorded digests) while the workload is set up.  Each file is
    the image of a source under an automorphism that normalizes its
    group and was not used before for that source and variant, so a
    cache keyed on file content does not help.  The files of round r+1
    are written after round r, outside any timed operation, and removed
    once used.  One defect-1 probe runs per round.
    """

    def __init__(self, run_cli, digests, rng: random.Random, workdir: Path, sources=VERIFY_SOURCES):
        self.rng = rng
        self.workdir = workdir
        self.sources = sources
        self.docs = {}
        for src in sources:
            rc, out, err, raised, _ = run_cli(src.argv)
            expect = Expect("digest", 0, digest=digests.get(command(src.argv)))
            reason = check(expect, rc, out, err, raised)
            if reason is not None:
                raise RuntimeError(f"source {command(src.argv)!r} is wrong: {reason}")
            self.docs[src.name] = json.loads(out)
        self.seen: dict = {}
        self.round_index = 0
        self.written: list[Path] = []
        self.pending = self._write_round()

    def _fresh_map(self, src: Source, variant: str):
        seen = self.seen.setdefault((src.name, variant), set())
        for _ in range(64):
            key, vmap = src.maps(self.docs[src.name]["graph"]["n"], self.rng)
            if key not in seen:
                seen.add(key)
                return vmap
        seen.clear()  # every relabelling used up: allow repeats from here on
        return vmap

    def _write(self, name: str, doc: dict) -> str:
        path = self.workdir / f"r{self.round_index:05d}-{len(self.written):02d}-{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        self.written.append(path)
        return str(path)

    def _write_round(self) -> list[Op]:
        for path in self.written:
            path.unlink()
        self.written.clear()
        ops = []
        for src in self.sources:
            # the heavy source's valid file runs twice: more heavy_op_s samples, and the
            # median and p90 of a 25-op round land mid-class instead of between classes
            for variant in VARIANTS + (("valid",) if src.heavy else ()):
                doc = _relabel(self.docs[src.name], self._fresh_map(src, variant))
                blocks = doc["blocks"]
                rot = self.rng.randrange(len(blocks))
                doc["blocks"] = blocks[rot:] + blocks[:rot]
                expect = _tamper(doc, variant, self.rng)
                path = self._write(f"{src.name}-{variant}", doc)
                heavy = src.heavy and variant == "valid"
                edges = _edge_count(doc["graph"])
                ops.append(Op(("verify", "--input", path), f"{src.name}/{variant}", edges, expect, heavy))
        doc, expect = defect1_file(self.rng)
        path = self._write("defect1", doc)
        ops.append(Op(("verify", "--input", path), "defect1/cycle20", _edge_count(doc["graph"]), expect, probe=True))
        self.rng.shuffle(ops)
        self.round_index += 1
        return ops

    def next_round(self) -> list[Op]:
        ops = self.pending or self._write_round()
        self.pending = None
        return ops
