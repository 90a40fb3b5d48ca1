"""Byte-identity of the command line between two source trees.

    python tools/cli_diff.py --tree parent=../parent/src --tree change=src

runs each command of a fixed corpus as its own process,
``python -m rookpaths ARGS`` with PYTHONPATH set to the tree, once per
tree, and compares the exit code, stdout and stderr.  It prints one line
per command that differs, naming what differs, then a count, and exits 1
when any command differs.  The corpus:

  - every command in perfbench/digests.json (read, never written);
  - generate for the odd primes up to 23, every width the digests
    claim, in all three formats;
  - split --n 3, 5, 7, 11 and 13 with several --b, in all three
    formats: at n=3, 11 and 13 among them --b 1 and the whole block,
    n(n-1) (at n=13, --b 1 gives 2,028 one-edge segments); at n=5,
    --b 0 exits 1, and at n=13, --b 5 exits 1; at n=7 these are every
    --b the cli-small workload runs, and 42;
  - split's front end, which refuses a width before it reads --b
    (FRONT): --b 4 at the composite width 9, with and without --force
    (exit 1 and exit 2), --b 0 at the even width 4, and width 137, over
    the edge cap;
  - orbits --edges under both groups on square grids, and under the
    row shift on every rectangular grid with 2 <= n != m <= 5;
  - help and usage errors (USAGE): no arguments, --help before and
    after each subcommand, unknown or abbreviated subcommands, "--",
    missing, extra and malformed arguments, and argv just past the
    plain form that is read without a parser: help or "--" after a
    subcommand, abbreviated, repeated or --opt=value options, a negative
    width or segment size and a stray positional;
  - plain argv at the edges of reading them from the subcommand table
    (PLAIN): widths written " 5", "+5" and "07", options in another
    order than help lists them, examples' name after its option, and
    verify of an empty path;
  - verify of files written from the first tree's output of generate
    --n 5 and 7 and examples k9 and diag4: the valid file, one with its
    blocks rotated by one, one with block 0 repeated in place of block
    1, one whose last block ends in a degenerate edge, one with an edge
    moved to another block and one with an edge dropped; for generate
    also one whose base walk starts one column over, so that the base
    is no block; for k9 also explicit maps with a vertex mapped twice,
    with an image used twice and with an entry missing; for n5 also one
    explicit generator swapping two vertices, a bijection but no
    automorphism, the identity followed by that swap twice, and that
    swap with the degenerate last edge (exit 1 at the block, not 2); for
    diag4 also the row shift with a one-edge base and its images as
    blocks, whose report prints the element that fixes an edge as an
    explicit map.  These files are in the writer's compact layout, the
    one whose blocks verify looks up among the base's images.  Each valid document is also written in four other
    layouts, which verify reads through json.loads: pretty-printed, with
    a second, escaped "blocks" key holding other blocks, with a leading
    zero in a block coordinate, and with report before blocks;
  - verify of three fixed files (SEARCH) whose blocks reach the
    isomorphism search, each K_n under a trivial explicit group: on K_16
    the base K_4 box K_4 with three relabelled copies of it as blocks
    (exit 2, group_transitive), and with the Shrikhande graph as its one
    block (exit 2, blocks_isomorphic_to_base); on K_17 a path with a
    chord and a relabelled copy of it, a degree-3 block past the
    search's 16 vertices (exit 1 at $.blocks[1]);
  - verify of two fixed files (TINY) at one vertex and one edge, where
    gathering a single index yields a bare item: K_1 under a trivial
    explicit group, whose group is closed before its base fails to
    parse (exit 1), and K_2 under a trivial explicit group with its one
    edge as base and block (exit 0).

--limit N runs N commands spread evenly over the corpus, the first and
the last included.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "perfbench" / "digests.json"
FORMATS = ("json", "dot", "edges")
SPLITS = {
    3: (None, 1, 2, 3, 6),
    5: (None, 0, 1, 2, 3, 4, 5, 10, 20),
    7: (None, 1, 2, 3, 4, 6, 7, 14, 21, 42),
    11: (None, 1, 5, 22, 110),
    13: (None, 1, 5, 12, 156),
}
FRONT = [
    ("split", "--n", "9", "--b", "4"), ("split", "--n", "9", "--force", "--b", "4"),
    ("split", "--n", "4", "--b", "0"), ("split", "--n", "137"),
]
USAGE = [
    (), ("--help",), ("-h", "generate"), ("--", "generate", "--n", "5"), ("frobnicate",),
    ("gen", "--n", "5"), ("--n", "5", "generate"), ("generate",), ("generate", "--n", "x"),
    ("generate", "--n=5", "--format=edges"), ("generate", "--n", "5", "verify"),
    ("verify", "--input"), ("orbits", "--n", "3", "--m"), ("orbits", "--n", "3", "--group", "split"),
    ("examples", "k10"), ("examples",), ("split", "--n", "5", "--b", "generate"),
    *((name, "--help") for name in ("generate", "verify", "orbits", "examples", "split")),
    ("generate", "--n", "5", "-h"), ("generate", "--he"), ("generate", "--", "--n", "5"),
    ("generate", "--fo", "dot", "--n", "3"), ("generate", "--n", "3", "--n", "5"),
    ("orbits", "--n", "-3"), ("verify", "--input="), ("split", "--n", "5", "--b"),
    ("examples", "k9", "fig3"), ("split", "--n", "5", "--b", "-1"),
]
PLAIN = [
    ("generate", "--n", " 5"), ("generate", "--n", "+5"), ("generate", "--n", "07"),
    ("examples", "--format", "dot", "k9"), ("orbits", "--edges", "--m", "4", "--n", "3"),
    ("split", "--force", "--n", "7", "--b", "3"), ("verify", "--input", ""),
]
FLAGS = ("is_partition", "blocks_isomorphic_to_base", "group_invariant",
         "group_transitive", "stabilizer_trivial", "semiregular")
# name: (source command, the variants written besides valid, moved and dropped)
VERIFY_SOURCES = {
    "n5": (("generate", "--n", "5"), ("shifted-base", "swap", "late-swap", "swap-malformed")),
    "n7": (("generate", "--n", "7"), ("shifted-base",)),
    "k9": (("examples", "k9"), ("mapped-twice", "image-twice", "short-map")),
    "diag4": (("examples", "diag4"), ("row-shift-edge",)),
}


def rotated(doc: dict) -> None:
    doc["blocks"].append(doc["blocks"].pop(0))


def repeated(doc: dict) -> None:
    """Block 0's edges in place of block 1's: one image twice, another missing."""
    doc["blocks"][1] = doc["blocks"][0]


def malformed_last(doc: dict) -> None:
    """The last edge of the last block made degenerate, an endpoint paired with itself."""
    edges = doc["blocks"][-1]["edges"]
    edges[-1] = [edges[-1][0], edges[-1][0]]


def moved(doc: dict) -> None:
    doc["blocks"][1]["edges"].append(doc["blocks"][0]["edges"].pop())


def dropped(doc: dict) -> None:
    doc["blocks"][0]["edges"].pop()


def shifted_base(doc: dict) -> None:
    """Move the base walk's start one column over: the base is then no image of any block."""
    start = doc["base"]["start"]
    start[1] = (start[1] + 1) % doc["graph"]["m"]


def first_map(doc: dict) -> list:
    return doc["group"]["generators"][0]["map"]


def mapped_twice(doc: dict) -> None:
    entries = first_map(doc)
    entries[1][0] = entries[0][0]


def image_twice(doc: dict) -> None:
    """The map still names every vertex once, but it is no bijection."""
    entries = first_map(doc)
    entries[0][1] = entries[1][1]


def short_map(doc: dict) -> None:
    first_map(doc).pop()


def swap(doc: dict) -> None:
    """One explicit generator of order 2 swapping (0,0) and (1,1): a bijection, no automorphism."""
    n, m = doc["graph"]["n"], doc["graph"]["m"]
    pairs = [[[a, b], [a, b]] for a in range(n) for b in range(m)]
    pairs[0][1], pairs[m + 1][1] = [1, 1], [0, 0]
    doc["group"] = {"kind": "explicit", "order": 2, "generators": [{"kind": "explicit", "map": pairs}]}


def late_swap(doc: dict) -> None:
    """Generators identity, swap, swap: the failing one is repeated and not first."""
    swap(doc)
    generators = doc["group"]["generators"]
    identity = [[v, v] for v, _ in generators[0]["map"]]
    generators[:] = [{"kind": "explicit", "map": identity}, generators[0], generators[0]]


def swap_malformed(doc: dict) -> None:
    """The swap generator, no automorphism, with a malformed last block: the block exits 1."""
    swap(doc)
    malformed_last(doc)


def row_shift_edge(doc: dict) -> None:
    """The row shift, base (0,0)-(0,1) and its n images: on even n a shift fixes an edge."""
    n = doc["graph"]["n"]
    doc["group"] = {"kind": "row_shift", "order": n}
    doc["base"] = {"edges": [[[0, 0], [0, 1]]]}
    doc["blocks"] = [{"edges": [[[k, 0], [k, 1]]]} for k in range(n)]


def compact(doc: dict) -> str:
    """The writer's layout: no whitespace, keys in document order."""
    return json.dumps(doc, separators=(",", ":"))


def escaped_key(doc: dict) -> str:
    """A second, escaped "blocks" key after the real one, holding the blocks with an edge moved."""
    other = json.loads(json.dumps(doc))
    moved(other)
    return compact(doc)[:-1] + ',"\\u0062locks":' + compact(other["blocks"]) + "}"


def leading_zeros(doc: dict) -> str:
    """The first coordinate of the first block edge written with a leading zero: no JSON."""
    text = compact(doc)
    start = text.index('"blocks":[{"edges":[') + len('"blocks":[{"edges":[')
    digit = start + len(text[start:]) - len(text[start:].lstrip("["))
    return text[:digit] + "0" + text[digit:]


def report_first(doc: dict) -> str:
    return compact({key: doc[key] for key in ("graph", "group", "base", "report", "blocks")})


# the valid document in other layouts than the writer's
LAYOUTS = {
    "pretty": lambda doc: json.dumps(doc, indent=1),
    "escaped-key": escaped_key,
    "leading-zeros": leading_zeros,
    "report-first": report_first,
}


TAMPERS = {
    "valid": lambda doc: None, "rotated": rotated, "repeated": repeated,
    "malformed-last": malformed_last, "moved": moved, "dropped": dropped, "shifted-base": shifted_base,
    "mapped-twice": mapped_twice, "image-twice": image_twice, "short-map": short_map,
    "swap": swap, "late-swap": late_swap, "swap-malformed": swap_malformed,
    "row-shift-edge": row_shift_edge,
}


ROOK = [(u + 1, v + 1) for u in range(16) for v in range(u + 1, 16) if u // 4 == v // 4 or u % 4 == v % 4]
SHRIKHANDE = sorted(
    tuple(sorted((4 * r + c + 1, 4 * ((r + dr) % 4) + (c + dc) % 4 + 1)))
    for r in range(4) for c in range(4) for dr, dc in ((0, 1), (1, 0), (1, 1))
)
CHORDED_PATH = [(v, v + 1) for v in range(1, 17)] + [(2, 4)]


def relabelled(pairs: list, label: list) -> list:
    return sorted(tuple(sorted((label[u - 1], label[v - 1]))) for u, v in pairs)


def trivial_group_doc(n: int, base: list, blocks: list) -> dict:
    """K_n under a trivial explicit group, with the base and the blocks given as label pairs."""
    identity = {"kind": "explicit", "map": [[v, v] for v in range(1, n + 1)]}
    return {
        "graph": {"kind": "complete", "n": n},
        "group": {"kind": "explicit", "order": 1, "generators": [identity]},
        "base": {"edges": [list(p) for p in base]},
        "blocks": [{"edges": [list(p) for p in block]} for block in blocks],
        "report": dict.fromkeys(FLAGS, True),
    }


SEARCH = {
    "k16-relabelled": trivial_group_doc(
        16, ROOK, [relabelled(ROOK, random.Random(seed).sample(range(1, 17), 16)) for seed in (1, 2, 3)]
    ),
    "k16-shrikhande": trivial_group_doc(16, ROOK, [SHRIKHANDE]),
    "k17-degree3": trivial_group_doc(
        17, CHORDED_PATH, [CHORDED_PATH, relabelled(CHORDED_PATH, [*range(2, 18), 1])]
    ),
}

TINY = {
    "k1-explicit": trivial_group_doc(1, [(1, 1)], [[(1, 1)]]),
    "k2-one-edge": trivial_group_doc(2, [(1, 2)], [[(1, 2)]]),
}


def tampers(name: str) -> list[str]:
    """The variants written for a verify source: the common ones, then its own."""
    common = ["valid", "rotated", "repeated", "malformed-last", "moved", "dropped"]
    return common + list(VERIFY_SOURCES[name][1])


def variants(name: str) -> list[str]:
    """Every file written for a verify source: its tampers, then the valid document's layouts."""
    return tampers(name) + list(LAYOUTS)


def corpus() -> list[tuple[str, ...]]:
    """Every command once, as argument tuples, in a fixed order."""
    commands = [tuple(c.split()) for c in json.loads(DIGESTS.read_text("utf-8"))["commands"]]
    for n in (3, 5, 7, 11, 13, 17, 19, 23):
        commands += [("generate", "--n", str(n), "--format", fmt) for fmt in FORMATS]
    for n, sizes in SPLITS.items():
        for b in sizes:
            size = () if b is None else ("--b", str(b))
            commands += [("split", "--n", str(n), *size, "--format", fmt) for fmt in FORMATS]
    commands += FRONT
    for group in ("row_shift", "diagonal_shift"):
        commands += [("orbits", "--n", str(n), "--group", group, "--edges") for n in (2, 3, 4, 5)]
    for n in range(2, 6):
        commands += [("orbits", "--n", str(n), "--m", str(m), "--edges") for m in range(2, 6) if m != n]
    commands += USAGE + PLAIN
    for name in VERIFY_SOURCES:
        commands += [("verify", "--input", f"{name}-{kind}.json") for kind in variants(name)]
    commands += [("verify", "--input", f"{name}.json") for name in [*SEARCH, *TINY]]
    return list(dict.fromkeys(commands))


def run(src: Path, args: tuple[str, ...], cwd: Path) -> tuple[int, bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "rookpaths", *args], cwd=cwd, env=env, capture_output=True
    )
    return done.returncode, done.stdout, done.stderr


def write_verify_files(src: Path, work: Path) -> None:
    """The verify inputs, from ``src``'s JSON output of each source command."""
    for name, (args, _) in VERIFY_SOURCES.items():
        code, out, err = run(src, args, work)
        if code != 0:
            raise SystemExit(f"error: {' '.join(args)} exited {code}: {err.decode()}")
        for kind in tampers(name):
            doc = json.loads(out)
            TAMPERS[kind](doc)
            (work / f"{name}-{kind}.json").write_text(compact(doc), encoding="utf-8")
        for kind, layout in LAYOUTS.items():
            (work / f"{name}-{kind}.json").write_text(layout(json.loads(out)), encoding="utf-8")
    for name, doc in {**SEARCH, **TINY}.items():
        (work / f"{name}.json").write_text(compact(doc), encoding="utf-8")


def differences(a: tuple, b: tuple) -> list[str]:
    parts = [f"exit {a[0]} != {b[0]}"] if a[0] != b[0] else []
    return parts + [stream for stream, x, y in zip(("stdout", "stderr"), a[1:], b[1:]) if x != y]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=SRC",
                        help="a source tree to run; give exactly two")
    parser.add_argument("--limit", type=int, help="run this many commands, spread evenly")
    args = parser.parse_args(argv)
    if len(args.tree) != 2 or not all("=" in t for t in args.tree):
        parser.error("give --tree NAME=SRC exactly twice")
    trees = [(name, Path(src).resolve()) for name, src in (t.split("=", 1) for t in args.tree)]
    commands = corpus()
    if args.limit is not None and 0 < args.limit < len(commands):
        step = (len(commands) - 1) / max(args.limit - 1, 1)
        commands = [commands[round(i * step)] for i in range(args.limit)]
    (first, src_a), (second, src_b) = trees
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if any(c[:1] == ("verify",) for c in commands):
            write_verify_files(src_a, work)
        for command in commands:
            found = differences(run(src_a, command, work), run(src_b, command, work))
            if found:
                differing += 1
                print(f"{' '.join(command)}: {', '.join(found)}")
    print(f"{len(commands)} commands, {differing} differ between {first} and {second}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
