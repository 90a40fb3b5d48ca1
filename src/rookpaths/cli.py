"""Command line surface: construct, verify, and export decompositions.

Exit codes distinguish the nature of a failure:
  0  everything verified
  1  usage or input parsing problem
  2  a mathematical check failed; a witness is printed

Payloads go to stdout and are byte-identical across runs with the same
arguments; human-oriented summaries and errors go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from array import array
from itertools import chain
from pathlib import Path

from .decompose import (
    IsomorphismCapExceeded,
    NotOddPrime,
    PreconditionFailed,
    Subgraph,
    _certified_build,
    _premises,
    _staircase_walk,
    _transport,
    diagonal_fixture_n4,
    haggkvist_split,
    k9_fixture,
    staircase_decomposition,
)
from .grid import DimensionError, GridGraph
from .groups import (
    EdgeAction,
    diagonal_shift,
    edge_orbits,
    fixed_edge_witness,
    generate_group,
    orbit_census,
    row_shift,
)
from .serialize import (
    MAX_EDGES,
    SchemaError,
    blocks_to_text,
    decomposition_to_json,
    dot_for_blocks,
    dumps,
    dumps_with_edges,
    orbit_lines,
    report_to_json_dict,
    verify_text,
)
from .staircase import ConstructionInvalid, is_path

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2


def _emit(fmt: str, subgraphs, json_text) -> None:
    """Write ``subgraphs`` as DOT or edge text, or for json the text ``json_text()``."""
    if fmt == "json":
        print(json_text())
    else:
        sys.stdout.write((dot_for_blocks if fmt == "dot" else blocks_to_text)(subgraphs))


def _verified(report) -> bool:
    """True when every flag holds; otherwise names the failed flags on stderr."""
    if report.all_ok:
        return True
    print("verification failed: " + ", ".join(report.failed()), file=sys.stderr)
    return False


def _staircase(n: int, force: bool, build):
    """Shared generate/split front end: ``build(n, force)``, or an exit code for a width over
    the cap, one that is no odd prime, or a walk that fails its construction check."""
    if n * n * (n - 1) > MAX_EDGES:
        message = f"width {n} gives {n * n * (n - 1)} edges, over verify's cap of {MAX_EDGES}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return build(n, force)
    except NotOddPrime:
        if n >= 3 and n % 2 == 1:
            print(
                f"error: {n} is not an odd prime; --force runs the construction checks anyway",
                file=sys.stderr,
            )
        else:
            print(f"error: width must be an odd prime >= 3, got {n}", file=sys.stderr)
        return EXIT_USAGE
    except ConstructionInvalid as err:
        print(f"construction failed [{err.check}]: {err}", file=sys.stderr)
        return EXIT_MATH


def cmd_generate(args) -> int:
    result = _staircase(args.n, args.force, staircase_decomposition)
    if isinstance(result, int):
        return result
    dec, report = result
    _emit(args.format, dec.blocks, lambda: decomposition_to_json(dec.base.action.graph, dec, report))
    if not _verified(report):
        return EXIT_MATH
    print(f"n={args.n}: {len(dec.blocks)} blocks verified", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read {args.input}: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = verify_text(text)[3]
    except SchemaError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionFailed as err:
        print(err, file=sys.stderr)
        return EXIT_MATH
    except IsomorphismCapExceeded as err:
        print(f"error: $.blocks[{err.block_index}]: {err}", file=sys.stderr)
        return EXIT_USAGE
    print(dumps(report_to_json_dict(report)))
    return EXIT_OK if _verified(report) else EXIT_MATH


def cmd_orbits(args) -> int:
    n = args.n
    m = args.m if args.m is not None else n
    try:
        graph = GridGraph(n, m)
    except DimensionError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if graph.edge_count > MAX_EDGES:
        message = f"{graph} has {graph.edge_count} edges, over the cap of {MAX_EDGES}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    if args.group == "diagonal_shift":
        if n != m:
            print(f"error: diagonal_shift needs a square grid, got {n} x {m}", file=sys.stderr)
            return EXIT_USAGE
        perm = diagonal_shift(n)
    else:
        perm = row_shift(n, m)
    group = generate_group([perm])
    orbits = edge_orbits(graph, group)
    sizes, kinds = set(), dict.fromkeys("HVO", 0)  # orbit sizes; orbit count per id kind
    for orbit in orbits:
        sizes.add(len(orbit.keys))
        kinds[orbit.id[0]] += 1
    lines = [f"graph: {graph}", f"group: {args.group}, order {group.order}"]
    lines += [f"orbits: {len(orbits)}", "sizes: " + ",".join(map(str, sorted(sizes)))]
    lines += orbit_lines(orbits, args.edges)
    print("\n".join(lines))
    status = EXIT_OK
    if args.group == "row_shift" and n % 2 == 1:
        census = orbit_census(n, m)
        horizontal, vertical = kinds["H"], kinds["V"]
        if (horizontal, vertical) == census[:2] and sizes == {census.orbit_size}:
            print(
                f"census: horizontal={census.horizontal_orbits}"
                f" vertical={census.vertical_orbits} size={census.orbit_size} OK"
            )
        else:
            print(
                f"census: MISMATCH expected horizontal={census.horizontal_orbits}"
                f" vertical={census.vertical_orbits} size={census.orbit_size},"
                f" enumerated horizontal={horizontal} vertical={vertical}"
                f" sizes={','.join(map(str, sorted(sizes)))}"
            )
            status = EXIT_MATH
    # orbit-stabilizer: a non-identity element fixes an edge just when the edge's orbit is short
    fixed = fixed_edge_witness(graph, group) if sizes != {group.order} else None
    if fixed is not None:
        print(
            f"warning: not semiregular on edges: a non-identity element fixes {fixed[1]}",
            file=sys.stderr,
        )
        status = EXIT_MATH
    return status


def cmd_examples(args) -> int:
    fixture = {"k9": k9_fixture, "diag4": diagonal_fixture_n4}.get(args.name)
    dec, report = staircase_decomposition(3) if fixture is None else _certified_build(*fixture())
    _emit(args.format, dec.blocks, lambda: decomposition_to_json(dec.base.action.graph, dec, report))
    covered = sum(b.edge_count for b in dec.blocks)
    print(
        f"{args.name}: blocks={len(dec.blocks)} edges={covered} verified={report.all_ok}",
        file=sys.stderr,
    )
    return EXIT_OK if report.all_ok else EXIT_MATH


def cmd_split(args) -> int:
    walk = _staircase(args.n, args.force, _staircase_walk)
    if isinstance(walk, int):
        return walk
    b = args.b if args.b is not None else args.n - 1
    try:
        cut = haggkvist_split(walk, b)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    graph = GridGraph(args.n, args.n)
    group = generate_group([row_shift(args.n, args.n)])
    action = EdgeAction(graph)
    keys = action.walk_keys(walk)
    _, tables, base_keys = _premises(graph, group, Subgraph(action, keys))
    # the cut is checked on the base alone: a stretch of a path is a path, so cut j is a
    # b-edge path when the base walk is a path and cut j holds, sorted, stretch j's b keys
    paths_ok = is_path(walk) and len(cut) * b == len(keys) and all(
        s.keys == array("q", sorted(keys[j * b : j * b + b])) for j, s in enumerate(cut)
    )
    cut_keys = list(chain.from_iterable(s.keys for s in cut))
    partition_ok = array("q", sorted(cut_keys)) == base_keys
    # the premises make every table a bijective automorphism, which takes a b-edge path to one;
    # a cut with the base's keys is certified exactly when the base's images partition E, and
    # then its images, each sliced in cut order into b-key stretches, are b-edge paths that
    # partition E; tables[0], the identity, gives the cut itself

    def stretches(image):
        starts = range(0, len(image), b)
        return [Subgraph._ascending(action, array("q", sorted(image[i : i + b]))) for i in starts]

    images, certified = _transport(action, tables, cut_keys, stretches)
    if partition_ok and not certified:
        print("refinement failed: the base's images do not partition the edges", file=sys.stderr)
        return EXIT_MATH
    segments = list(chain.from_iterable(images))
    summary = {
        "graph": {"kind": "grid", "n": args.n, "m": args.n},
        "edges_per_segment": b,
        "segment_count": len(segments),
        "is_partition": partition_ok,
        "segments_are_paths": paths_ok,
        "segments": segments,
    }
    _emit(args.format, segments, lambda: dumps_with_edges(summary, "segments"))
    if not (partition_ok and paths_ok):
        print("refinement failed verification", file=sys.stderr)
        return EXIT_MATH
    print(
        f"n={args.n}: {len(segments)} segments of {b} edges verified",
        file=sys.stderr,
    )
    return EXIT_OK


FORMAT = ("--format", {"choices": ["json", "dot", "edges"], "default": "json"})
FORCE = ("--force", {"action": "store_true", "help": "run odd non-prime widths through the checks"})
N = ("--n", {"type": int, "required": True})
# name: (handler, help line, arguments in the order help lists them); the one positional,
# examples' "name", is the only argument not written "--"
SUBCOMMANDS = {
    "generate": (cmd_generate, "build and verify a staircase decomposition", [
        ("--n", {"type": int, "required": True, "help": "grid width; odd prime unless --force"}),
        FORMAT, FORCE]),
    "verify": (cmd_verify, "re-verify a serialized decomposition from scratch", [
        ("--input", {"required": True, "help": "path to a decomposition JSON file"})]),
    "orbits": (cmd_orbits, "list edge orbits of a cyclic shift action", [
        N, ("--m", {"type": int, "help": "defaults to n"}),
        ("--group", {"choices": ["row_shift", "diagonal_shift"], "default": "row_shift"}),
        ("--edges", {"action": "store_true", "help": "also list the member edges"})]),
    "examples": (cmd_examples, "build and verify a named example", [
        ("name", {"choices": ["k9", "fig3", "diag4"]}), FORMAT]),
    "split": (cmd_split, "refine staircase blocks into short path segments", [
        N, ("--b", {"type": int, "help": "edges per segment; defaults to n-1"}), FORCE, FORMAT]),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with every subcommand's; parse_command builds it only off the plain form."""
    parser = argparse.ArgumentParser(
        prog="rookpaths",
        description="Group-transitive path decompositions of K_n box K_m, verified.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, arguments) in SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            subparser.add_argument(flag, **options)
        subparser.set_defaults(func=func)
    return parser


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the full parser gives a plain ``argv``, read from SUBCOMMANDS; else None.

    Plain: a subcommand's name, then its options, each written whole and
    at most once, a store_true option alone and any other followed by a
    value that does not start with "-", and examples' name anywhere.  A
    value goes through the option's type and choices as argparse sends
    it; any failure, a missing required option or a leftover token
    gives None.
    """
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    func, _, arguments = SUBCOMMANDS[argv[0]]
    table = dict(arguments)
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = token if token.startswith("-") else "name"
        options = table.get(flag)
        if options is None or flag in given:
            return None
        if options.get("action") == "store_true":
            given[flag] = True
            continue
        value = token if flag == "name" else next(tokens, "-")  # no value fails as "-" does
        if value.startswith("-"):
            return None
        try:
            given[flag] = options.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in options and given[flag] not in options["choices"]:
            return None
    values = {"command": argv[0]}
    for flag, options in arguments:
        if flag not in given and options.get("required", flag == "name"):
            return None
        default = False if options.get("action") == "store_true" else None
        values[flag.lstrip("-")] = given.get(flag, options.get("default", default))
    return argparse.Namespace(**values, func=func)


def parse_command(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``; a plain argv is read from the table with no parser.

    The full parser hands everything after the subcommand name to that
    subcommand's parser, so for a plain argv (``_read_plain``) the table
    alone gives its namespace.  Help, usage errors and every other argv
    build the full parser, so their text and exit codes are argparse's.
    """
    args = _read_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Parse ``argv`` and run its command; the exit code.  A plain argv builds no parser, and
    no parser outlives the call."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_command(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
