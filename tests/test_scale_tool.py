"""A 1k-row smoke run of ``tools/scale.py``: each command runs on each of
the three input orders, exits 0 and writes the same bytes for each."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "scale.py"


def compiled(src: Path) -> dict[Path, int]:
    return {path: path.stat().st_mtime_ns for path in src.rglob("*.pyc")}


def test_scale_tool_runs_each_command_on_each_input_order(tmp_path):
    # The tool byte-compiles the tree it times: a copy, so that the checkout
    # keeps whatever bytecode it had.
    src = tmp_path / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    before = compiled(REPO / "src")
    out = tmp_path / "scale.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--rows", "1000", "--rounds", "1", "--out", str(out),
         "--src", f"copy={src}"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert compiled(REPO / "src") == before
    report = json.loads(out.read_text())
    assert report["problems"] == []
    runs = report["runs"]
    assert sorted((run["order"], run["command"]) for run in runs) == sorted(
        (order, command) for order in ("grouped", "time", "quoted")
        for command in ("report", "variability", "peak-hours"))
    assert all(run["rows"] == 1000 and run["exit_code"] == 0 and run["wall_rel"] > 0
               and run["peak_rss_mb"] > 0 and run["same_as_first_run"] for run in runs)
    assert len(report["summary"]) == 9
