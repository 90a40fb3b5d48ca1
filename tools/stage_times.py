"""Stage times and peak RSS of the staircase pipeline, one process per row.

For each width n, a fresh Python process imports rookpaths from a source
tree and times each stage once through the library API:

  walk          build_staircase_path(n)
  group         generate_group([row_shift(n, n)])
  build         build_orbit_decomposition on the walk's base
  verify        verify_decomposition of the built decomposition
  json_out      decomposition_to_json
  parse         parse_decomposition of that text
  verify_again  verify_decomposition of the parsed decomposition

and reports its peak RSS.  Every row runs --repeat times, the trees
alternating, and the record keeps the medians.  The command line is timed
too (--cli widths): ``python -m rookpaths generate --n N`` into a file,
then ``verify --input`` of that file, each as its own process, with wall
time, peak RSS and the sha256 of the generated file.

Short commands cost less than interpreter start-up, so --first-call
times them inside the process instead: each of SMALL_COMMANDS runs in
that many fresh processes, which import rookpaths.cli and time one
``main(argv)`` call (``first_ms``, what a user's command pays after the
import) and then AGAIN_CALLS more in the same process (``again_ms``, their
median: the cost of a command that follows others in one process).

    python tools/stage_times.py --label after
    python tools/stage_times.py --label compare --tree before=../old/src --tree after=src

writes BENCH_<label>.json (to --out, default the repository root) with
the Python version, platform, os.cpu_count() and one table per tree.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("walk", "group", "build", "verify", "json_out", "parse", "verify_again")
SMALL_COMMANDS = (
    ("generate", "--n", "5"),
    ("generate", "--n", "13"),
    ("generate", "--n", "9"),
    ("orbits", "--n", "7"),
    ("split", "--n", "7", "--format", "edges"),
    ("examples", "k9"),
)
AGAIN_CALLS = 20


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
    from rookpaths.decompose import build_orbit_decomposition, verify_decomposition
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
    text = timed("json_out", decomposition_to_json, graph, dec, report)
    parsed_graph, parsed_group, parsed = timed("parse", parse_decomposition, text)
    again = timed("verify_again", verify_decomposition, parsed_graph, parsed_group, parsed)
    if not (report.all_ok and again.all_ok):
        raise SystemExit(f"n={n}: verification failed")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"edges": graph.edge_count, "times": times, "peak_rss_mb": peak}))


def first_call_child(argv: list[str]) -> None:
    """Time main(argv) once right after the import, then AGAIN_CALLS more; print one JSON line."""
    import contextlib
    import io

    from rookpaths.cli import main as cli_main

    times = []
    for _ in range(1 + AGAIN_CALLS):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            code = cli_main(argv)
            times.append(perf_counter() - start)
    print(json.dumps({"code": code, "first": times[0], "again": statistics.median(times[1:])}))


def run_first_call(src: Path, argv: tuple[str, ...]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, __file__, "--first-call-child", json.dumps(argv)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def median_first_call(argv: tuple[str, ...], runs: list[dict]) -> dict:
    return {
        "argv": " ".join(argv),
        "exit_code": runs[0]["code"],
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
    row["total"] = round(statistics.median(sum(r["times"].values()) for r in runs), 6)
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
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--first-call", type=int, default=20, metavar="PROCESSES",
                        help="fresh processes per short command (0 skips them)")
    parser.add_argument("--out", type=Path, default=ROOT)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--first-call-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
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
    with tempfile.TemporaryDirectory() as tmp:
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
