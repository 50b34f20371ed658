"""Golden-output cases: CLI invocations whose exact bytes are locked.

Each case runs ``cli.main`` in-process and records its exit code, every
artifact it writes and, where the case asks for them, its stdout and
stderr, with the temporary output directory shown as ``<out>``.
``tests/test_golden.py`` compares a fresh run against the files under
``tests/golden/<case>/``.

Regenerate the snapshots (only when an output change is intended) with

    PYTHONPATH=src python tests/golden_cases.py

and compare fresh runs with them, without pytest, with

    PYTHONPATH=src python tests/golden_cases.py --check

which names each file that differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import sys
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

OUT_PLACEHOLDER = "<out>"

# name -> (argv without --out, writes artifacts, records stdout and stderr)
CASES = {
    "report_study": (["report", *STUDY], True, False),
    "report_study_vehicles": (["report", *STUDY, *VEHICLES], True, False),
    "report_week": (["report", *WEEK], True, False),
    "report_week_weekday": (["report", *WEEK, "--day", "weekday"], True, False),
    "variability_week": (["variability", *WEEK], True, False),
    "variability_week_split": (["variability", *WEEK_SPLIT], True, False),
    "variability_spread": (["variability", *SPREAD], True, False),
    "validate_dirty": (["validate", "--cycles", str(FIXTURES / "dirty_cycles.csv"),
                        "--approaches", str(FIXTURES / "study_approaches.csv")], False, True),
    "validate_dirty_no_approaches": (
        ["validate", "--cycles", str(FIXTURES / "dirty_cycles.csv")], False, True),
    # An approach id quoted across two lines, then one row of each bad kind:
    # every error names the line its row starts on.
    "validate_multiline": (
        ["validate", "--cycles", str(FIXTURES / "multiline_cycles.csv")], False, True),
    "flow_study": (["flow", *STUDY], True, True),
    "green_study": (["green", *STUDY], True, True),
    "delay_study": (["delay", *STUDY], True, True),
    "emissions_study": (["emissions", *STUDY], True, True),
    "emissions_study_major": (["emissions", *STUDY, "--policy", "major"], True, True),
    "peak_hours_week_weekday": (["peak-hours", *WEEK, "--day", "weekday"], True, True),
    # A window that is not whole seconds: window indices come from float floor division.
    "peak_hours_week_fractional_window": (
        ["peak-hours", *WEEK, "--window", "1234.5", "--span", "3"], True, True),
    "los_values": (["los", "--delay", "56", "--delay", "36",
                    "--vc", "0.73", "--vc", "0.84"], False, True),
    "report_study_text": (["report", *STUDY, "--format", "text"], True, True),
    # A relative path keeps the message the same on every machine.
    "report_missing_cycles": (["report", "--cycles", "missing_cycles.csv",
                               "--approaches", str(FIXTURES / "study_approaches.csv")],
                              False, True),
    "peak_hours_window_zero": (["peak-hours", "--cycles",
                                str(FIXTURES / "synthetic_week_cycles.csv"),
                                "--window", "0"], False, True),
}


def run_case(name: str) -> dict[str, bytes]:
    """Run one case and return its recorded outputs by file name."""
    from intersection_analyzer.cli import main

    argv, writes, streams = CASES[name]
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
        if streams:
            for filename, stream in (("stdout.txt", stdout), ("stderr.txt", stderr)):
                text = stream.getvalue().replace(str(out_dir), OUT_PLACEHOLDER)
                outputs[filename] = text.encode()
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


def check() -> int:
    """Run every case, print each file that differs from its snapshot, and
    return 1 if any does, else 0."""
    differing = 0
    for name in CASES:
        expected, actual = read_golden(name), run_case(name)
        for filename in sorted(expected.keys() | actual.keys()):
            if expected.get(filename) != actual.get(filename):
                print(f"{name}/{filename} differs")
                differing += 1
    print(f"{len(CASES)} cases, {differing} differing file(s)")
    return 1 if differing else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden snapshots.")
    parser.add_argument("--check", action="store_true",
                        help="compare fresh runs with the snapshots instead")
    sys.exit(check() if parser.parse_args().check else write_golden())
