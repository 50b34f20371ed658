"""Golden-output cases: CLI invocations whose exact bytes are locked.

Each case runs ``cli.main`` in-process and records its exit code, every
artifact it writes and, for cases without an output directory, its stdout
and stderr.  ``tests/test_golden.py`` compares a fresh run against the
files under ``tests/golden/<case>/``.

Regenerate the snapshots (only when an output change is intended) with

    PYTHONPATH=src python tests/golden_cases.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

STUDY = ["--cycles", str(FIXTURES / "study_cycles.csv"),
         "--approaches", str(FIXTURES / "study_approaches.csv")]
WEEK = ["--cycles", str(FIXTURES / "synthetic_week_cycles.csv"),
        "--approaches", str(FIXTURES / "synthetic_week_approaches.csv")]
# The week's two approaches as two intersections, for the pooled inflow test.
WEEK_SPLIT = ["--cycles", str(FIXTURES / "synthetic_week_cycles.csv"),
              "--approaches", str(FIXTURES / "split_week_approaches.csv")]
VEHICLES = ["--config", str(FIXTURES / "vehicles_config.json")]
# Three intersections of three approaches, six cycles each, with varying counts:
# every approach sample takes part in two pairwise tests and every pooled
# sample in two inflow tests, so a summary reused in the wrong test shows.
SPREAD = ["--cycles", str(FIXTURES / "spread_cycles.csv"),
          "--approaches", str(FIXTURES / "spread_approaches.csv")]

# name -> (argv without --out, writes artifacts)
CASES = {
    "report_study": (["report", *STUDY], True),
    "report_study_vehicles": (["report", *STUDY, *VEHICLES], True),
    "report_week": (["report", *WEEK], True),
    "report_week_weekday": (["report", *WEEK, "--day", "weekday"], True),
    "variability_week": (["variability", *WEEK], True),
    "variability_week_split": (["variability", *WEEK_SPLIT], True),
    "variability_spread": (["variability", *SPREAD], True),
    "validate_dirty": (["validate", "--cycles", str(FIXTURES / "dirty_cycles.csv"),
                        "--approaches", str(FIXTURES / "study_approaches.csv")], False),
    "validate_dirty_no_approaches": (
        ["validate", "--cycles", str(FIXTURES / "dirty_cycles.csv")], False),
}


def run_case(name: str) -> dict[str, bytes]:
    """Run one case and return its recorded outputs by file name."""
    from intersection_analyzer.cli import main

    argv, writes = CASES[name]
    stdout, stderr = io.StringIO(), io.StringIO()
    out_dir = Path(tempfile.mkdtemp())
    try:
        if writes:
            argv = [*argv, "--out", str(out_dir)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        outputs = {"exit_code.txt": f"{code}\n".encode()}
        if writes:
            outputs.update({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        else:
            outputs["stdout.txt"] = stdout.getvalue().encode()
            outputs["stderr.txt"] = stderr.getvalue().encode()
        return outputs
    finally:
        shutil.rmtree(out_dir)


def read_golden(name: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}


def write_golden() -> None:
    for name in CASES:
        target = GOLDEN / name
        if target.exists():
            shutil.rmtree(target)
        target.mkdir(parents=True)
        for filename, content in run_case(name).items():
            (target / filename).write_bytes(content)


if __name__ == "__main__":
    write_golden()
