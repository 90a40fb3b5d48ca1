"""Byte-identical stdout: every command pinned in perfbench/digests.json.

The digests were recorded from the CLI's stdout; a change that alters
any of these outputs must re-record them on purpose (see
perfbench/record_digests.py).  This test only reads the file.
"""

import hashlib
import json
from pathlib import Path

from rookpaths.cli import main

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def test_stdout_matches_recorded_digests(capsys):
    commands = json.loads(DIGESTS.read_text(encoding="utf-8"))["commands"]
    assert commands
    changed = []
    for command, digest in commands.items():
        main(command.split())
        out = capsys.readouterr().out
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != digest:
            changed.append(command)
    assert changed == []
