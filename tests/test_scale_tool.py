"""A 1k-row smoke run of ``tools/scale.py``: each command runs on each of
the three input orders, exits 0 and writes the same bytes for each."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "scale.py"


def test_scale_tool_runs_each_command_on_each_input_order(tmp_path):
    out = tmp_path / "scale.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--rows", "1000", "--rounds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["problems"] == []
    runs = report["runs"]
    assert sorted((run["order"], run["command"]) for run in runs) == sorted(
        (order, command) for order in ("grouped", "time", "quoted")
        for command in ("report", "variability", "peak-hours"))
    assert all(run["rows"] == 1000 and run["exit_code"] == 0 and run["wall_rel"] > 0
               and run["peak_rss_mb"] > 0 and run["same_as_first_run"] for run in runs)
    assert len(report["summary"]) == 9
