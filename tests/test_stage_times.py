"""tools/stage_times.py runs end to end on a small width and one hostile input."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_times.py"
STAGES = ["walk", "group", "build", "verify", "json_out", "parse", "verify_again"]


def test_stage_times_smoke(tmp_path):
    cmd = [sys.executable, str(TOOL), "--label", "smoke", "--n", "5", "--cli", "5",
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
    first = {row["argv"]: row for row in tree["first_call"]}
    assert first["generate --n 5"]["exit_code"] == 0 and len(first) == 6
    assert all(row["first_ms"] > 0 and row["again_ms"] > 0 for row in first.values())
    (hostile,) = tree["hostile"]
    assert (hostile["name"], hostile["exit_code"]) == ("k400-repeated-generator", 2)
    assert hostile["bytes"] > 2_000_000 and hostile["verify_s"] > 0
