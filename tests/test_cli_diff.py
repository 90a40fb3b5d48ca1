"""tools/cli_diff.py finds no difference between a tree and itself, and finds a changed stream."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_diff.py"


def cli_diff(*trees, limit=6):
    cmd = [sys.executable, str(TOOL), "--limit", str(limit)]
    for tree in trees:
        cmd += ["--tree", tree]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def test_cli_diff_tree_against_itself():
    done = cli_diff(f"a={ROOT / 'src'}", f"b={ROOT / 'src'}")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "6 commands, 0 differ between a and b\n"


def test_cli_diff_lists_each_differing_command(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "rookpaths" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    marker = "    return args.func(args)\n"
    assert text.count(marker) == 1
    cli.write_text(text.replace(marker, '    print("extra", file=sys.stderr)\n' + marker))
    done = cli_diff(f"same={ROOT / 'src'}", f"changed={changed}", limit=3)
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert len(lines) == 4 and all(line.endswith(": stderr") for line in lines[:3])
    assert lines[3] == "3 commands, 3 differ between same and changed"


def test_corpus_covers_the_listed_split_and_orbit_commands(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    from cli_diff import corpus

    commands = set(corpus())
    for b in (None, 1, 2, 3, 4, 6, 7, 14, 21):  # cli-small's widths at n=7
        size = () if b is None else ("--b", str(b))
        for fmt in ("json", "dot", "edges"):
            assert ("split", "--n", "7", *size, "--format", fmt) in commands
        assert ("split", "--n", "7", *size) in commands
    rectangles = [(n, m) for n in range(2, 6) for m in range(2, 6) if n != m]
    assert len(rectangles) == 12
    for n, m in rectangles:
        assert ("orbits", "--n", str(n), "--m", str(m), "--edges") in commands
