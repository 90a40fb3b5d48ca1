"""Stage times and peak RSS of the staircase pipeline, one process per row.

For each width n, a fresh Python process imports rookpaths from a source
tree and times each stage once through the library API:

  walk          build_staircase_path(n)
  group         generate_group([row_shift(n, n)])
  build         build_orbit_decomposition on the walk's base
  verify        verify_decomposition of the built decomposition
  pipeline      staircase_decomposition(n), the library call generate makes:
                walk, group, build and the report
  json_out      decomposition_to_json
  parse         parse_decomposition of that text
  verify_again  verify_decomposition of the parsed decomposition

and reports its peak RSS.  A row's ``total`` sums every stage but
``pipeline``, which repeats walk, group and build.  Every row runs
--repeat times, the trees alternating, and the record keeps the medians.
The command line is timed too (--cli widths): ``python -m rookpaths
generate --n N`` into a file, then ``verify --input`` of that file, each
as its own process, with wall time, peak RSS and the sha256 of the
generated file, and so is
``python -m rookpaths split --n N`` (--split widths), with its exit code,
wall time, peak RSS and the sha256 of its stdout.  So is ``verify`` of
each hostile input (--hostile names, default all of HOSTILE), files at
the parser's caps in the writer's layout: K_135 box K_135 under the row
shift with a one-edge base and one block of all 2,442,150 edges, with
and without its report; K_400 with one block of every edge under 400
copies of the 400-cycle; K_1024 under all 16 elements of the group
generated by i -> i + 64 as its generators; K_61 under 16 disjoint
transpositions, a group of 65,536 elements, with a one-edge base and
block; and K_16 under a trivial
explicit group with base K_4 box K_4 and 52,083 distinct seeded
relabellings of it as blocks, each of which goes through the
isomorphism search.  Two more are tampered files in the writer's layout:
``generate --n 101``'s file with one seeded edge dropped from one
block, and with one pair of the last block made no grid edge.  Each
file is written by a process of its own, so
that no timed child's peak RSS includes the writer's.  Hostile rows
keep every run's verify_s next to the median.

Short commands cost less than interpreter start-up, so --first-call
times them inside the process instead: each of SMALL_COMMANDS runs in
that many fresh processes, which time their import of rookpaths.cli
(``import_ms``) and one ``main(argv)`` call (``first_ms``, what a user's
command pays after the import) and then AGAIN_CALLS more in the same
process (``again_ms``, their median: the cost of a command that follows
others in one process).

    python tools/stage_times.py --label after
    python tools/stage_times.py --label compare --tree before=../old/src --tree after=src

writes BENCH_<label>.json (to --out, default the repository root) with
the Python version, platform, os.cpu_count() and one table per tree.
Standard library only; the report flags and the K_16 fixtures come from
tools/cli_diff.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from cli_diff import FLAGS, ROOK, compact, relabelled, trivial_group_doc

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("walk", "group", "build", "verify", "pipeline", "json_out", "parse", "verify_again")
SMALL_COMMANDS = (
    ("generate", "--n", "5"),
    ("generate", "--n", "13"),
    ("generate", "--n", "9"),
    ("orbits", "--n", "7"),
    ("orbits", "--n", "5", "--m", "6"),
    ("orbits", "--n", "6", "--group", "diagonal_shift", "--edges"),
    ("split", "--n", "7", "--format", "edges"),
    ("split", "--n", "7", "--b", "2"),
    ("examples", "k9"),
    ("generate", "--n", "x"),
)
AGAIN_CALLS = 20


def _write_doc(path: Path, graph: str, group: str, base: str, blocks, report=True) -> None:
    """A compact JSON document; ``blocks`` yields each block's edges as pieces of edge text."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f'{{"graph":{graph},"group":{group},"base":{{"edges":[{base}]}},"blocks":[')
        for b, pieces in enumerate(blocks):
            fh.write('{"edges":[' if b == 0 else ',{"edges":[')
            for p, piece in enumerate(pieces):
                fh.write(piece if p == 0 else "," + piece)
            fh.write("]}")
        fh.write("]")
        if report:
            fh.write(',"report":{%s}' % ",".join(f'"{flag}":true' for flag in FLAGS))
        fh.write("}")


def grid_one_block(path: Path, n: int, report: bool) -> None:
    """K_n box K_n under the row shift: a one-edge base and one block holding every edge."""
    def rows():
        for i in range(n * n):
            r, c = divmod(i, n)
            ends = [(r, d) for d in range(c + 1, n)] + [(q, c) for q in range(r + 1, n)]
            if ends:
                yield ",".join(f"[[{r},{c}],[{a},{b}]]" for a, b in ends)

    graph, group = f'{{"kind":"grid","n":{n},"m":{n}}}', f'{{"kind":"row_shift","order":{n}}}'
    _write_doc(path, graph, group, "[[0,0],[0,1]]", [rows()], report)


def complete_one_block(path: Path, n: int, shifts, step: int = 1) -> None:
    """K_n under the rotations i -> i + s * step, s in ``shifts``: a one-edge base, one block."""
    def rows():
        for u in range(1, n):
            yield ",".join(f"[{u},{v}]" for v in range(u + 1, n + 1))

    order = n // math.gcd(n, step)
    maps = (
        '{"kind":"explicit","map":[%s]}'
        % ",".join(f"[{v},{(v - 1 + s * step) % n + 1}]" for v in range(1, n + 1))
        for s in shifts
    )
    group = f'{{"kind":"explicit","order":{order},"generators":[{",".join(maps)}]}}'
    _write_doc(path, f'{{"kind":"complete","n":{n}}}', group, "[1,2]", [rows()])


def complete_transpositions(path: Path, n: int, count: int) -> None:
    """K_n under the disjoint transpositions (2s+1 2s+2), s < ``count``, as explicit
    generators, so |G| = 2 ** count: a one-edge base, and one block holding that edge."""
    def image(v, s):
        return {2 * s + 1: 2 * s + 2, 2 * s + 2: 2 * s + 1}.get(v, v)

    maps = (
        '{"kind":"explicit","map":[%s]}' % ",".join(f"[{v},{image(v, s)}]" for v in range(1, n + 1))
        for s in range(count)
    )
    group = f'{{"kind":"explicit","order":{2 ** count},"generators":[{",".join(maps)}]}}'
    _write_doc(path, f'{{"kind":"complete","n":{n}}}', group, "[1,2]", [["[1,2]"]])


def complete_relabelled(path: Path, count: int) -> None:
    """cli_diff's K_16 search document at scale: base K_4 box K_4 under a trivial explicit
    group, and ``count`` distinct seeded relabellings of it as blocks, none of them the base."""
    head = trivial_group_doc(16, ROOK, [])
    rng = random.Random(1)
    # hashes, not edge sets, keep the writer small.  A collision only skips a relabelling,
    # so the blocks stay distinct.
    seen = {hash(tuple(ROOK))}

    def blocks():
        while len(seen) <= count:
            edges = tuple(relabelled(ROOK, rng.sample(range(1, 17), 16)))
            if hash(edges) not in seen:
                seen.add(hash(edges))
                yield [compact(edges)[1:-1]]

    graph, group = compact(head["graph"]), compact(head["group"])
    _write_doc(path, graph, group, compact(head["base"]["edges"])[1:-1], blocks())


def staircase_tampered(path: Path, n: int, defect: str, seed: int = 1) -> None:
    """``generate --n N``'s file, written by the tree under ROOT, with one seeded defect in the
    writer's layout: "dropped" takes one edge out of one block, "malformed" turns one pair in the
    second half of the last block into a pair of vertices that is no grid edge."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "rookpaths", "generate", "--n", str(n)]
    text = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    start = text.index('"blocks":[{"edges":[') + len('"blocks":[{"edges":[')
    end = text.index(']}],"report":')
    blocks = [block[2:-2].split("]],[[") for block in text[start:end].split(']},{"edges":[')]
    rng = random.Random(seed)
    if defect == "dropped":
        pairs = blocks[rng.randrange(len(blocks))]
        pairs.pop(rng.randrange(len(pairs)))
    else:
        pairs = blocks[-1]
        j = rng.randrange(len(pairs) // 2, len(pairs))
        r, c = map(int, pairs[j].split("],[")[0].split(","))
        pairs[j] = f"{r},{c}],[{(r + 1) % n},{(c + 1) % n}"
    body = ']},{"edges":['.join("[[" + "]],[[".join(pairs) + "]]" for pairs in blocks)
    path.write_text(text[:start] + body + text[end:], encoding="utf-8")


# verify inputs that fail or sit at the parser's caps: name -> writer of the file
HOSTILE = {
    "k135-one-block": lambda path: grid_one_block(path, 135, report=True),
    "k135-one-block-no-report": lambda path: grid_one_block(path, 135, report=False),
    "k400-repeated-generator": lambda path: complete_one_block(path, 400, [1] * 400),
    "k1024-all-elements": lambda path: complete_one_block(path, 1024, range(16), step=64),
    "k61-transpositions": lambda path: complete_transpositions(path, 61, 16),
    "k16-relabelled": lambda path: complete_relabelled(path, 52_083),
    "n101-dropped": lambda path: staircase_tampered(path, 101, "dropped"),
    "n101-malformed": lambda path: staircase_tampered(path, 101, "malformed"),
}


def walk_base(n: int, walk):
    """The walk as a base Subgraph, read back through the JSON walk-base format.

    The format is stable across source trees while Subgraph's
    constructors are not, so every tree builds its base the same way.
    """
    from rookpaths.decompose import VerificationReport
    from rookpaths.serialize import parse_decomposition

    doc = {
        "graph": {"kind": "grid", "n": n, "m": n},
        "group": {"kind": "row_shift", "order": n},
        "base": {"start": [0, 0], "steps": [list(p) for p in walk.step_pairs()]},
        "blocks": [{"edges": [[[0, 0], [0, 1]]]}],
        "report": dict.fromkeys(VerificationReport.FLAGS, True),
    }
    return parse_decomposition(json.dumps(doc))[2].base


def child(n: int) -> None:
    """Time every stage for width n in this process; print one JSON line."""
    from rookpaths.decompose import (
        build_orbit_decomposition,
        staircase_decomposition,
        verify_decomposition,
    )
    from rookpaths.grid import GridGraph
    from rookpaths.groups import generate_group, row_shift
    from rookpaths.serialize import decomposition_to_json, parse_decomposition
    from rookpaths.staircase import build_staircase_path

    times = {}

    def timed(stage, fn, *args):
        start = perf_counter()
        result = fn(*args)
        times[stage] = perf_counter() - start
        return result

    graph = GridGraph(n, n)
    walk = timed("walk", build_staircase_path, n)
    group = timed("group", generate_group, [row_shift(n, n)])
    dec = timed("build", build_orbit_decomposition, graph, group, walk_base(n, walk))
    report = timed("verify", verify_decomposition, graph, group, dec)
    piped, piped_report = timed("pipeline", staircase_decomposition, n)
    if piped_report != report or piped.blocks != dec.blocks:
        raise SystemExit(f"n={n}: staircase_decomposition differs from build and verify")
    del piped  # so that the later stages hold one decomposition
    text = timed("json_out", decomposition_to_json, graph, dec, report)
    parsed_graph, parsed_group, parsed = timed("parse", parse_decomposition, text)
    again = timed("verify_again", verify_decomposition, parsed_graph, parsed_group, parsed)
    if not (report.all_ok and again.all_ok):
        raise SystemExit(f"n={n}: verification failed")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"edges": graph.edge_count, "times": times, "peak_rss_mb": peak}))


def first_call_child(argv: list[str]) -> None:
    """Time the import of rookpaths.cli, main(argv) once right after it, then AGAIN_CALLS more;
    print one JSON line."""
    import contextlib
    import io

    start = perf_counter()
    from rookpaths.cli import main as cli_main

    imported = perf_counter() - start
    times = []
    for _ in range(1 + AGAIN_CALLS):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            code = cli_main(argv)
            times.append(perf_counter() - start)
    again = statistics.median(times[1:])
    print(json.dumps({"code": code, "import": imported, "first": times[0], "again": again}))


def run_first_call(src: Path, argv: tuple[str, ...]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, __file__, "--first-call-child", json.dumps(argv)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def median_first_call(argv: tuple[str, ...], runs: list[dict]) -> dict:
    return {
        "argv": " ".join(argv),
        "exit_code": runs[0]["code"],
        "import_ms": round(statistics.median(r["import"] for r in runs) * 1000, 3),
        "first_ms": round(statistics.median(r["first"] for r in runs) * 1000, 3),
        "again_ms": round(statistics.median(r["again"] for r in runs) * 1000, 3),
    }


def run_row(src: Path, n: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, __file__, "--child", str(n)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def run_command(src: Path, argv: list[str], stdout) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of ``python -m rookpaths ARGV``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = perf_counter()
    cmd = [sys.executable, "-m", "rookpaths", *argv]
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def run_cli(src: Path, n: int, workdir: Path) -> dict:
    path = workdir / f"n{n}.json"
    with path.open("wb") as fh:
        gen_code, gen_s, gen_rss = run_command(src, ["generate", "--n", str(n)], fh)
    ver_code, ver_s, ver_rss = run_command(src, ["verify", "--input", str(path)], subprocess.DEVNULL)
    return {
        "exit_codes": [gen_code, ver_code],
        "generate_s": gen_s,
        "generate_rss_mb": gen_rss,
        "verify_s": ver_s,
        "verify_rss_mb": ver_rss,
        "total_s": gen_s + ver_s,
        "output_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


def run_split(src: Path, n: int, workdir: Path) -> dict:
    path = workdir / f"split{n}.out"
    with path.open("wb") as fh:
        code, wall, rss = run_command(src, ["split", "--n", str(n)], fh)
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"exit_code": code, "split_s": wall, "split_rss_mb": rss, "output_sha256": sha}


def median_split(n: int, runs: list[dict]) -> dict:
    out = {"n": n, "exit_code": runs[0]["exit_code"], "output_sha256": runs[0]["output_sha256"]}
    if any(r["output_sha256"] != out["output_sha256"] for r in runs):
        raise SystemExit(f"n={n}: split output differs between runs")
    out["split_s"] = round(statistics.median(r["split_s"] for r in runs), 4)
    out["split_s_runs"] = [round(r["split_s"], 4) for r in runs]
    out["split_rss_mb"] = round(statistics.median(r["split_rss_mb"] for r in runs), 1)
    return out


def run_hostile(src: Path, path: Path) -> dict:
    code, wall, rss = run_command(src, ["verify", "--input", str(path)], subprocess.DEVNULL)
    return {"exit_code": code, "verify_s": wall, "verify_rss_mb": rss}


def median_hostile(name: str, path: Path, runs: list[dict]) -> dict:
    return {
        "name": name,
        "bytes": path.stat().st_size,
        "exit_code": runs[0]["exit_code"],
        "verify_s": round(statistics.median(r["verify_s"] for r in runs), 4),
        "verify_s_runs": [round(r["verify_s"], 4) for r in runs],
        "verify_rss_mb": round(statistics.median(r["verify_rss_mb"] for r in runs), 1),
    }


def describe(src: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def median_row(n: int, runs: list[dict]) -> dict:
    row = {"n": n, "edges": runs[0]["edges"]}
    for stage in STAGES:
        row[stage] = round(statistics.median(r["times"][stage] for r in runs), 6)
    totals = (sum(t for stage, t in r["times"].items() if stage != "pipeline") for r in runs)
    row["total"] = round(statistics.median(totals), 6)
    row["peak_rss_mb"] = round(statistics.median(r["peak_rss_mb"] for r in runs), 1)
    return row


def median_cli(n: int, runs: list[dict]) -> dict:
    out = {"n": n, "exit_codes": runs[0]["exit_codes"], "output_sha256": runs[0]["output_sha256"]}
    if any(r["output_sha256"] != out["output_sha256"] for r in runs):
        raise SystemExit(f"n={n}: generate output differs between runs")
    for key in ("generate_s", "generate_rss_mb", "verify_s", "verify_rss_mb", "total_s"):
        out[key] = round(statistics.median(r[key] for r in runs), 4)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="the record is written to BENCH_<label>.json")
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=SRC",
                        help="a source tree to measure (repeatable; default current=src)")
    parser.add_argument("--n", type=int, nargs="+", default=[23, 53, 101])
    parser.add_argument("--cli", type=int, nargs="*", default=[101],
                        help="widths for the generate+verify command-line timing")
    parser.add_argument("--split", type=int, nargs="*", default=[],
                        help="widths for the split command-line timing")
    parser.add_argument("--hostile", nargs="*", default=list(HOSTILE), choices=list(HOSTILE),
                        metavar="NAME", help="hostile verify inputs to time (default all)")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--first-call", type=int, default=20, metavar="PROCESSES",
                        help="fresh processes per short command (0 skips them)")
    parser.add_argument("--out", type=Path, default=ROOT)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--first-call-child", help=argparse.SUPPRESS)
    parser.add_argument("--write-hostile", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_hostile is not None:
        name, path = args.write_hostile
        HOSTILE[name](Path(path))
        return 0
    if args.child is not None:
        child(args.child)
        return 0
    if args.first_call_child is not None:
        first_call_child(json.loads(args.first_call_child))
        return 0
    if not args.label:
        parser.error("--label is required")
    trees = dict(t.split("=", 1) for t in args.tree) or {"current": str(ROOT / "src")}
    trees = {name: Path(src).resolve() for name, src in trees.items()}

    rows = {name: {n: [] for n in args.n} for name in trees}
    cli = {name: {n: [] for n in args.cli} for name in trees}
    split = {name: {n: [] for n in args.split} for name in trees}
    hostile = {name: {h: [] for h in args.hostile} for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {h: Path(tmp) / f"{h}.json" for h in args.hostile}
        for h, path in paths.items():
            # a child's ru_maxrss from os.wait4 is at least this process's peak, so write elsewhere
            cmd = [sys.executable, __file__, "--write-hostile", h, str(path)]
            subprocess.run(cmd, check=True)
        for rep in range(args.repeat):
            # alternate which tree runs first
            order = list(trees.items())[:: -1 if rep % 2 else 1]
            for n in args.n:
                for name, src in order:
                    rows[name][n].append(run_row(src, n))
                    print(f"[{rep + 1}/{args.repeat}] {name} n={n}", file=sys.stderr)
            for n in args.cli:
                for name, src in order:
                    cli[name][n].append(run_cli(src, n, Path(tmp)))
                    print(f"[{rep + 1}/{args.repeat}] {name} cli n={n}", file=sys.stderr)
            for n in args.split:
                for name, src in order:
                    split[name][n].append(run_split(src, n, Path(tmp)))
                    print(f"[{rep + 1}/{args.repeat}] {name} split n={n}", file=sys.stderr)
            for h, path in paths.items():
                for name, src in order:
                    hostile[name][h].append(run_hostile(src, path))
                    print(f"[{rep + 1}/{args.repeat}] {name} {h}", file=sys.stderr)
        hostile_rows = {
            name: [median_hostile(h, paths[h], runs) for h, runs in hostile[name].items()]
            for name in trees
        }
    small = {name: {argv: [] for argv in SMALL_COMMANDS} for name in trees}
    for run in range(args.first_call):
        order = list(trees.items())[:: -1 if run % 2 else 1]
        for argv in SMALL_COMMANDS:
            for name, src in order:
                small[name][argv].append(run_first_call(src, argv))
        print(f"[{run + 1}/{args.first_call}] first calls", file=sys.stderr)

    record = {
        "label": args.label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "repeat": args.repeat,
        "stages": list(STAGES),
        "units": {"times": "s", "rss": "MB (peak RSS of the process)", "first_call": "ms"},
        "trees": {
            name: {
                "describe": describe(src),
                "rows": [median_row(n, runs) for n, runs in rows[name].items()],
                "cli": [median_cli(n, runs) for n, runs in cli[name].items()],
                "split": [median_split(n, runs) for n, runs in split[name].items()],
                "hostile": hostile_rows[name],
                "first_call": [
                    median_first_call(argv, runs) for argv, runs in small[name].items() if runs
                ],
            }
            for name, src in trees.items()
        },
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
