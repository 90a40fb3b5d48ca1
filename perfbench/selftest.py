"""Self-test of the benchmark itself; takes a few seconds.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It runs one round of each workload at
a tiny size and requires every operation to pass its check, then shows
that the checker fails an operation whose stdout has one corrupted byte
or whose exit code is wrong, that host-speed scaling leaves the sampler's
own time out and divides by the host factor, and that run.py refuses to
run (non-zero exit, no result line) in a directory without the
program's sources.
"""

import random
import shutil
import subprocess
import sys

import run
from check import Expect, check, sha256
from speed import REFERENCE_S, HostSpeed
from workloads import VERIFY_SOURCES, CliSmall, StaircaseLarge, VerifyFiles, cli_small_commands

TINY_CLI = {
    "examples k9 --format json",
    "examples diag4 --format dot",
    "orbits --n 3 --m 3",
    "orbits --n 2 --m 3",
    "orbits --n 4 --group diagonal_shift --edges",
    "split --n 5 --b 3",
    "split --n 5 --b 4",
    "generate --n 3 --format edges",
    "generate --n 9",
    "generate --n 9 --force",
}


def flip(text: str, lo: int, hi: int, rng: random.Random) -> str:
    i = rng.randrange(lo, hi)
    return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1 :]


def check_round(name: str, ops, cli, rng: random.Random) -> None:
    for op in ops:
        code, out, err, raised, _ = run.run_op(cli, op.argv)
        reason = check(op.expect, code, out, err, raised)
        if op.probe:
            print(f"{name}: known-defect probe {op.cls}: {reason or 'passed'}")
            continue
        if reason is not None:
            raise AssertionError(f"{name}: {' '.join(op.argv)} failed its check: {reason}")
        if check(op.expect, code + 1, out, err, None) is None:
            raise AssertionError(f"{name}: a wrong exit code passed for {' '.join(op.argv)}")
        # a report is pinned in its flags and witness keys, the rest of its witnesses only in part
        pinned = out.find('"witnesses"') if op.expect.kind == "report" else -1
        if out and check(op.expect, code, flip(out, 0, pinned if pinned > 0 else len(out), rng), err, None) is None:
            raise AssertionError(f"{name}: a corrupted stdout byte passed for {' '.join(op.argv)}")
        if op.expect.kind == "staircase":
            # the structural check alone, with the digest made to match the corrupted text
            bad = flip(out, out.index('"blocks"'), out.index('"report"'), rng)
            alone = Expect("staircase", 0, digest=sha256(bad), n=op.expect.n)
            if check(alone, code, bad, err, None) is None:
                raise AssertionError(f"{name}: the structure check passed a corrupted block")
    print(f"{name}: {len(ops)} ops passed; corrupted byte and wrong exit code are caught")


def check_host_speed() -> None:
    """Synthetic samples every 10 ms: at the reference speed, then at half of it."""
    for slowness in (1, 2):
        host = HostSpeed()
        cost = slowness * REFERENCE_S
        for i in range(10):
            host.record(i * 0.01, i * 0.01 + cost)
        # [0, 0.05] holds five whole samples; the one starting at 0.05 adds nothing
        if abs(host.busy(0.0, 0.05) - 5 * cost) > 1e-12:
            raise AssertionError(f"busy(0, 0.05) is {host.busy(0.0, 0.05)}, not {5 * cost}")
        # a clipped sample at each end: half of the first and 0.2 ms of the fourth
        clipped = host.busy(cost / 2, 0.03 + 0.0002)
        if abs(clipped - (cost / 2 + 2 * cost + 0.0002)) > 1e-12:
            raise AssertionError(f"clipped busy time is {clipped}")
        scaled = host.scaled(0.0, 0.05)
        if abs(scaled - (0.05 - 5 * cost) / slowness) > 1e-12:
            raise AssertionError(f"scaled time at {slowness}x is {scaled}")
    print("host speed: sampler time left out, times divided by the host factor")


def check_refuses_without_sources() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "cli-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("run.py produced a result without the program's sources")
    print(f"without sources: exit {proc.returncode}, no result line")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.import_program()
    digests = run.load_digests()
    rng = random.Random(0)
    check_round("staircase-large", StaircaseLarge(digests, rng, widths=(5, 7)).next_round(), cli, rng)
    commands = [c for c in cli_small_commands() if " ".join(c[0]) in TINY_CLI]
    check_round("cli-small", CliSmall(digests, rng, commands).next_round(), cli, rng)
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        sources = tuple(s for s in VERIFY_SOURCES if s.name in ("n5", "k9", "diag4"))
        verify = VerifyFiles(lambda argv: run.run_op(cli, argv), digests, rng, workdir, sources)
        check_round("verify-files", verify.next_round(), cli, rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_host_speed()
    check_refuses_without_sources()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
