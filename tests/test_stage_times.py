"""tools/stage_times.py runs end to end on a small width and one hostile input."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from rookpaths.serialize import parse_decomposition

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "stage_times.py"
STAGES = ["walk", "group", "build", "verify", "json_out", "parse", "verify_again"]


def test_stage_times_smoke(tmp_path):
    cmd = [sys.executable, str(TOOL), "--label", "smoke", "--n", "5", "--cli", "5", "--split", "5",
           "--repeat", "1", "--first-call", "1", "--hostile", "k400-repeated-generator",
           "--out", str(tmp_path)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text(encoding="utf-8"))
    assert {"python", "platform", "cpu_count"} <= set(record)
    assert record["stages"] == STAGES
    (tree,) = record["trees"].values()
    (row,) = tree["rows"]
    assert (row["n"], row["edges"]) == (5, 100)
    assert all(row[stage] > 0 for stage in STAGES) and row["peak_rss_mb"] > 0
    (cli,) = tree["cli"]
    assert cli["exit_codes"] == [0, 0] and len(cli["output_sha256"]) == 64
    (split,) = tree["split"]
    assert (split["n"], split["exit_code"], len(split["output_sha256"])) == (5, 0, 64)
    assert split["split_s"] > 0 and split["split_rss_mb"] > 0
    first = {row["argv"]: row for row in tree["first_call"]}
    assert first["generate --n 5"]["exit_code"] == 0 and len(first) == 10
    assert all(row["first_ms"] > 0 and row["again_ms"] > 0 for row in first.values())
    (hostile,) = tree["hostile"]
    assert (hostile["name"], hostile["exit_code"]) == ("k400-repeated-generator", 2)
    assert hostile["bytes"] > 2_000_000 and hostile["verify_s"] > 0
    assert hostile["verify_s_runs"] == [hostile["verify_s"]]


def test_relabelled_blocks_reach_the_search(tmp_path, monkeypatch):
    # the k16-relabelled writer at 40 blocks: distinct relabellings of the base, none of them the base
    monkeypatch.syspath_prepend(str(TOOL.parent))
    tool = importlib.import_module("stage_times")
    path = tmp_path / "k16.json"
    tool.complete_relabelled(path, 40)
    doc = json.loads(path.read_text(encoding="utf-8"))
    blocks = {tuple(map(tuple, block["edges"])) for block in doc["blocks"]}
    assert len(doc["blocks"]) == len(blocks) == 40
    assert tuple(map(tuple, doc["base"]["edges"])) not in blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "rookpaths", "verify", "--input", str(path)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    flags = json.loads(done.stdout)
    assert done.returncode == 2
    assert flags["blocks_isomorphic_to_base"] and not flags["group_transitive"]


def test_transpositions_writer_at_small_scale(tmp_path, monkeypatch):
    # the k61-transpositions writer on K_9 with 3 transpositions: |G| = 8, and the one edge is fixed
    monkeypatch.syspath_prepend(str(TOOL.parent))
    tool = importlib.import_module("stage_times")
    path = tmp_path / "k9.json"
    tool.complete_transpositions(path, 9, 3)
    group = parse_decomposition(path.read_text(encoding="utf-8"))[1]
    assert group.order == 8
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "rookpaths", "verify", "--input", str(path)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    flags = json.loads(done.stdout)
    assert done.returncode == 2
    assert not flags["semiregular"] and flags["witnesses"]["stabilizer_trivial"] == {"stabilizer_order": 8}
