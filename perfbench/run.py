"""rookpaths benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload staircase-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ./src
and nowhere else.  Each operation is an in-process call to
``rookpaths.cli.main(argv)`` with stdout and stderr captured, the way a
user or CI job runs one command and waits for it; the next one starts
when it returns.  Every outcome is checked by check.py.  Operations run
in whole rounds (see workloads.py) until --seconds have passed.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics (spans.py) with --trace 1.  Every timing is scaled to
the reference host speed (speed.py).  The line before it is a record of
the run: seed, mix, known-defect probe outcomes, host, and the raw wall
times behind the scaled ones.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from check import check  # noqa: E402
from spans import LAYER_UNITS, Tracer  # noqa: E402
from speed import MARGIN, HostSpeed  # noqa: E402
from workloads import CliSmall, StaircaseLarge, VerifyFiles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("staircase-large", "verify-files", "cli-small")
SETUP_REPEATS = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "edges_per_s": "edges/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "heavy_op_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """A fresh import of rookpaths from ./src; returns its cli module."""
    for name in [k for k in sys.modules if k == "rookpaths" or k.startswith("rookpaths.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("rookpaths.cli")
    if Path(cli.__file__).resolve().parent != SRC / "rookpaths":
        raise RuntimeError(f"imported rookpaths from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, argv):
    """(exit code, stdout, stderr, exception name or None, (start, end)) of one command."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a raising command is a failed operation; the run goes on
            raised = type(exc).__name__
        end = perf_counter()
    return code, out.getvalue(), err.getvalue(), raised, (start, end)


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text(encoding="utf-8"))["commands"]


def make_workload(name: str, cli, seed: int, workdir: Path):
    rng = random.Random(f"{name}:{seed}")
    digests = load_digests()
    if name == "staircase-large":
        return StaircaseLarge(digests, rng)
    if name == "cli-small":
        return CliSmall(digests, rng)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return VerifyFiles(lambda argv: run_op(cli, argv), digests, rng, workdir)


def measure(workload, cli, seconds: float, tracer=None):
    """Run whole rounds until ``seconds`` have passed; returns (timed results, probe results).

    A result is (op, (start, end), reason the check failed or None).
    """
    timed, probes = [], []
    start = perf_counter()
    while not timed or perf_counter() - start < seconds:
        for op in workload.next_round():
            if tracer is not None:
                tracer.op += 1
            code, out, err, raised, span = run_op(cli, op.argv)
            reason = check(op.expect, code, out, err, raised)
            (probes if op.probe else timed).append((op, span, reason))
    return timed, probes


def end_to_end(timed, setups, seconds) -> dict:
    """The end-to-end metrics, with ``seconds(start, end)`` the time of an interval."""
    times = [seconds(*span) for _, span, _ in timed]
    heavy = [t for (op, _, _), t in zip(timed, times) if op.heavy]
    edges = sum(op.edges for op, _, reason in timed if reason is None)
    return {
        "setup_s": statistics.median(seconds(*span) for span in setups),
        "edges_per_s": edges / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "heavy_op_s": statistics.median(heavy),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rookpaths" / "__init__.py").is_file():
        print(f"error: no rookpaths sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    host = HostSpeed()
    host.start()
    try:
        # set-up runs SETUP_REPEATS times; the first one counts from process start
        setups = []
        for i in range(SETUP_REPEATS):
            begin = STARTED if i == 0 else perf_counter()
            cli = import_program()
            workload = make_workload(args.workload, cli, args.seed, workdir)
            setups.append((begin, perf_counter()))

        gc.collect()
        gc.freeze()
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        timed, probes = measure(workload, cli, args.seconds, tracer)
        # samples after the last op, so that its speed has a margin on both sides
        settle = perf_counter()
        while perf_counter() - settle < 2 * MARGIN:
            pass
    finally:
        host.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(op, reason) for op, _, reason in timed if reason is not None]
    for op, reason in failures[:10]:
        print(f"FAILED {' '.join(op.argv)}: {reason}", file=sys.stderr)
    probe_failures = Counter(reason for _, _, reason in probes if reason is not None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(timed),
        "mix": dict(sorted(Counter(op.cls for op, _, _ in timed).items())),
        "known_defect_probes": {
            "classes": sorted({op.cls for op, _, _ in probes}),
            "attempted": len(probes),
            "failed": sum(probe_failures.values()),
            "reasons": dict(probe_failures),
        },
        "setup_runs_s": [end - begin for begin, end in setups],
        "host_speed": {
            "samples": len(host.costs),
            "run_factor": host.run_factor(),
            "raw": end_to_end(timed, setups, lambda t0, t1: t1 - t0),
        },
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    if tracer is not None:
        tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        values = tracer.layer_metrics(host.busy, host.run_factor())
        values["grid.edges"] = sum(op.edges for op, _, _ in timed + probes)
        values["trace.edges_per_s"] = end_to_end(timed, setups, host.scaled)["edges_per_s"]
        values["trace.ops"] = len(timed)
        units = LAYER_UNITS
    else:
        values = end_to_end(timed, setups, host.scaled)
        units = END_TO_END_UNITS
    print(json.dumps(record, sort_keys=False))
    result = {
        "correct": not failures,
        "attempted": len(timed),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
