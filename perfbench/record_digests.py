"""Record the stdout sha256 of every fixed benchmark command into digests.json.

    python3 perfbench/record_digests.py

Run from the root of a checkout.  The recorded digests pin the
promise that every command's stdout stays byte-identical: the benchmark
fails any operation whose stdout differs from them.  Re-record only when a change means to
alter a command's output.  Each command must also exit with the code
the README contract gives it, or nothing is written.
"""

import json
import platform
import sys

import run
from check import sha256
from workloads import VERIFY_SOURCES, cli_small_commands, command


def fixed_commands():
    """(argv, expected exit code) of every command whose stdout is pinned."""
    cmds = [(("generate", "--n", str(n)), 0) for n in (5, 7, 11, 13, 17, 19, 23)]
    cmds += [(src.argv, 0) for src in VERIFY_SOURCES if src.argv not in dict(cmds)]
    cmds += [(argv, code) for argv, code, _ in cli_small_commands()]
    return cmds


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.import_program()
    digests = {}
    for argv, expected in fixed_commands():
        code, out, _, raised, _ = run.run_op(cli, argv)
        if raised is not None or code != expected:
            print(f"error: {command(argv)!r} gave exit {code} ({raised}), expected {expected}", file=sys.stderr)
            return 1
        digests[command(argv)] = sha256(out)
    payload = {"python": platform.python_version(), "commands": digests}
    (run.HERE / "digests.json").write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
