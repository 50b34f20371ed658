"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 model-domain error (e.g. the
saturated regime), 4 I/O failure.  On failure a machine-readable JSON
error record goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from . import report as rpt
from .config import load_config
from .delay import DelayPolicy
from .errors import AnalyzerError, InputError, IoFailure
from .ingest import RowCount, ingest_approaches, ingest_cycles, scan_cycles
from .model import ApproachConfig, CycleTable, DayFilter, _frozen
from .pipeline import VC_STANDARD, analyze_records
from .stats import (
    check_window, five_number, pairwise_z_matrix, summarize, window_cycle_lengths,
    peak_window, z_test,
)

DEFAULT_OUT = "analysis_out"


def _check(args: argparse.Namespace) -> None:
    """Reject bad flag values and missing input files before any parsing."""
    if hasattr(args, "window"):
        check_window(args.window, "--window")
    if hasattr(args, "span") and args.span < 1:
        raise InputError(f"--span must be >= 1, got {args.span}")
    for label in ("cycles", "approaches", "config"):
        path = getattr(args, label, None)
        if path is not None and not path.is_file():
            raise InputError(f"{label} file not found: {path}")


def _print_error(subcommand: str | None, err: AnalyzerError) -> None:
    record = {
        "subcommand": subcommand,
        "error": type(err).__name__,
        "message": str(err),
        "row": err.row,
        "exit_code": err.exit_code,
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


@contextlib.contextmanager
def _read_text(path: str | Path) -> Iterator[TextIO]:
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports put first.
        handle = open(path, encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as err:
            raise InputError(f"{path} is not UTF-8 text: {err}") from None


def _load_approaches(args) -> dict[str, ApproachConfig] | None:
    if args.approaches is None:
        return None
    with _read_text(args.approaches) as handle:
        return ingest_approaches(handle)


def _load_records(args, approaches) -> CycleTable:
    with _read_text(args.cycles) as handle:
        return ingest_cycles(handle, approaches)


def _emit(out: Path | None, artifacts: Iterable[tuple[str, Callable[[], str]]]) -> int:
    """Build and stage each artifact in turn, then commit them all.

    Each text is written to a temp file and dropped before the next is
    built; if a build or a write fails, no output changes.
    """
    with rpt.ArtifactWriter(out or DEFAULT_OUT) as writer:
        for name, build in artifacts:
            writer.stage(name, build())
        for path in writer.commit():
            print(f"wrote {path}")
    return 0


# --- subcommand handlers -----------------------------------------------------

def cmd_validate(args) -> int:
    approaches = _load_approaches(args)
    with _read_text(args.cycles) as handle:
        valid, errors = scan_cycles(handle, approaches, RowCount())
    for err in errors:
        print(f"{type(err).__name__}: {err}")
    if errors:
        print(f"{len(valid)} valid record(s), {len(errors)} problem(s)")
        _print_error("validate", errors[0])
        return errors[0].exit_code
    print(f"OK: {len(valid)} record(s)")
    return 0


def cmd_peak_hours(args) -> int:
    table = _load_records(args, _load_approaches(args))
    windows = window_cycle_lengths(table, args.window, DayFilter(args.day))
    start, end = peak_window(windows, args.span)
    print(f"peak window: {rpt.hhmm(start)}-{rpt.hhmm(end)}")
    if args.out:
        return _emit(args.out, [("windowed.csv", lambda: rpt.windowed_csv(windows))])
    return 0


def cmd_variability(args) -> int:
    approaches = _load_approaches(args)
    table = _load_records(args, approaches)

    # Each approach's row totals as floats, in file order: one pass files
    # each row's total into its approach's list (list.append returns None,
    # so any() runs to the end).
    ids, numbers = table.approach_column()
    lists: list[list[float]] = [[] for _ in ids]
    any(map(list.append, map(lists.__getitem__, numbers), map(float, table.row_totals())))
    samples = dict(zip(ids, lists))

    by_intersection: dict[str, dict[str, list[float]]] = {}
    for approach_id, values in samples.items():
        intersection_id = approaches[approach_id].intersection_id
        by_intersection.setdefault(intersection_id, {})[approach_id] = values

    matrices = {
        intersection_id: pairwise_z_matrix(approach_samples)
        for intersection_id, approach_samples in sorted(by_intersection.items())
        if len(approach_samples) >= 2
    }
    summaries = {
        approach_id: five_number(values)
        for approach_id, values in sorted(samples.items())
    }
    # pooled per-intersection groups back the box plot and the inflow comparison
    pooled = {
        intersection_id: list(itertools.chain.from_iterable(approach_samples.values()))
        for intersection_id, approach_samples in sorted(by_intersection.items())
    }
    for intersection_id, values in pooled.items():
        summaries[intersection_id] = five_number(values)

    artifacts = [("pvalues.csv", lambda: rpt.pvalues_csv(matrices)),
                 ("boxplot.csv", lambda: rpt.boxplot_csv(summaries))]

    intersection_ids = sorted(by_intersection)
    if len(intersection_ids) >= 2:
        # each pooled sample takes part in one test per other intersection
        inflow = {intersection_id: summarize(values) for intersection_id, values in pooled.items()}
        rows = []
        for i, first in enumerate(intersection_ids):
            for second in intersection_ids[i + 1:]:
                outcome = z_test(inflow[first], inflow[second])
                rows.append((first, second,
                             f"{outcome.z_statistic:.6g}", f"{outcome.p_value:.6g}"))
        artifacts.append(("inflow_comparison.csv", lambda: rpt.inflow_comparison_csv(rows)))
    return _emit(args.out, artifacts)


def cmd_los(args) -> int:
    if not args.delay and not args.vc:
        raise InputError("nothing to classify: pass --delay and/or --vc values")
    for value in (args.delay or []) + (args.vc or []):
        if not math.isfinite(value):
            raise InputError(f"classified values must be finite, got {value:g}")
        if value < 0:
            raise InputError(f"classified values must be >= 0, got {value:g}")
    config = load_config(args.config)
    vc_table = config.los_tables.get(VC_STANDARD)
    delay_tables = {
        name: table for name, table in sorted(config.los_tables.items())
        if name != VC_STANDARD
    }
    for value in args.delay or []:
        grades = " ".join(
            f"{name}={table.classify(value).grade}"
            for name, table in delay_tables.items())
        print(f"delay {value:g} s: {grades}")
    for value in args.vc or []:
        if vc_table is None:
            raise InputError("no vc_ratio band table configured")
        print(f"vc {value:g}: vc_ratio={vc_table.classify(value).grade}")
    return 0


# artifact -> its text, from one analysis and the configured active hours per day
ARTIFACTS: dict[str, Callable] = {
    "flow.csv": lambda result, hours: rpt.flow_csv(result),
    "saturation.csv": lambda result, hours: rpt.saturation_csv(result),
    "composition.csv": lambda result, hours: rpt.composition_csv(result),
    "green.csv": lambda result, hours: rpt.green_csv(result),
    "green_series.csv": lambda result, hours: rpt.green_series_csv(result),
    "delay_los.csv": lambda result, hours: rpt.delay_csv(result),
    "intersections.csv": lambda result, hours: rpt.intersections_csv(result),
    "emissions.csv": lambda result, hours: rpt.emissions_csv(result),
    "emissions_summary.csv": lambda result, hours: rpt.emissions_summary_csv(result, hours),
    "summary.txt": lambda result, hours: rpt.summary_text(result, hours),
}
# Windowed averages, staged when every record carries a timestamp.
WINDOWED = "windowed.csv"


def cmd_analysis(args) -> int:
    """Run the pipeline once and stage the artifacts the subcommand lists."""
    config = load_config(args.config)
    approaches = _load_approaches(args)
    table = _load_records(args, approaches)
    policy = DelayPolicy(getattr(args, "policy", FLAGS["policy"]["default"]))
    result = analyze_records(table, approaches, config, emission_policy=policy)
    # Free the approach table before the artifact texts are built: with
    # thousands of approaches it is most of a megabyte of peak RSS.
    del approaches
    hours = config.city.active_hours_per_day
    names = SUBCOMMANDS[args.command].artifacts
    artifacts = [(name, functools.partial(ARTIFACTS[name], result, hours))
                 for name in names if name != WINDOWED]
    if WINDOWED in names and table and not table.untimed():
        artifacts.append((WINDOWED, lambda: rpt.windowed_csv(
            window_cycle_lengths(table, args.window, DayFilter(args.day)))))
    status = _emit(args.out, artifacts)
    if getattr(args, "format", FLAGS["format"]["default"]) == "text":
        # Read back, so that no artifact's text outlives its staging.
        with open(Path(args.out or DEFAULT_OUT, "summary.txt"), encoding="utf-8",
                  newline="") as summary:
            print(summary.read(), end="")
    return status


# --- subcommand table ---------------------------------------------------------

# flag -> add_argument keywords
FLAGS: dict[str, dict] = {
    "cycles": dict(type=Path, required=True, help="cycle records CSV"),
    "approaches": dict(type=Path, required=True, help="approach configuration CSV"),
    "config": dict(type=Path, default=None, help="JSON config overriding defaults"),
    "out": dict(type=Path, default=None, help=f"output directory (default: {DEFAULT_OUT})"),
    "policy": dict(choices=["all", "major"], default="all",
                   help="delay aggregation policy for emissions"),
    "format": dict(choices=["csv", "text"], default="csv"),
    "window": dict(type=float, default=1800.0, help="aggregation window in seconds"),
    "span": dict(type=int, default=4, help="consecutive windows forming the peak"),
    "day": dict(choices=[d.value for d in DayFilter], default="all",
                help="calendar-day filter for windowing"),
    "delay": dict(type=float, action="append", help="delay in seconds (repeatable)"),
    "vc": dict(type=float, action="append", help="volume-to-capacity ratio (repeatable)"),
}

ANALYSIS_FLAGS = ("cycles", "approaches", "config", "out")


@_frozen
class Subcommand:
    help: str
    flags: tuple[str, ...]
    handler: Callable[[argparse.Namespace], int] = cmd_analysis
    artifacts: tuple[str, ...] = ()  # what cmd_analysis stages
    optional: tuple[str, ...] = ()  # flags in `flags` whose `required` is dropped


SUBCOMMANDS = {
    "validate": Subcommand("check a cycles CSV, reporting every bad row",
                           ("cycles", "approaches"), cmd_validate,
                           optional=("approaches",)),
    "peak-hours": Subcommand("find the heaviest run of windows",
                             ("cycles", "approaches", "out", "window", "span", "day"),
                             cmd_peak_hours, optional=("approaches",)),
    "variability": Subcommand("pairwise z-tests and box-plot summaries",
                              ("cycles", "approaches", "out"), cmd_variability),
    "flow": Subcommand("volumes, V/C ratios and saturation flow", ANALYSIS_FLAGS,
                       artifacts=("flow.csv", "saturation.csv")),
    "green": Subcommand("green splits and green-time utilization", ANALYSIS_FLAGS,
                        artifacts=("green.csv", "green_series.csv")),
    "delay": Subcommand("control delay and level of service", ANALYSIS_FLAGS,
                        artifacts=("delay_los.csv", "intersections.csv")),
    "los": Subcommand("classify delay or V/C values directly",
                      ("config", "delay", "vc"), cmd_los),
    "emissions": Subcommand("idle fuel use and CO2", (*ANALYSIS_FLAGS, "policy"),
                            artifacts=("emissions.csv", "emissions_summary.csv")),
    "report": Subcommand("everything: all CSV families plus a text summary",
                         (*ANALYSIS_FLAGS, "policy", "format", "window", "day"),
                         artifacts=(*ARTIFACTS, WINDOWED)),
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an ``InputError``, after the usage line."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="analyze",
        description="Signalized-intersection analysis: volumes, V/C, "
                    "saturation flow, delay, level of service, green use "
                    "and idle emissions from per-cycle CSV records.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        for flag in spec.flags:
            options = dict(FLAGS[flag], required=False) if flag in spec.optional else FLAGS[flag]
            p.add_argument(f"--{flag}", **options)
        p.set_defaults(handler=spec.handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A usage error comes before ``args``: name the subcommand from argv.
    command = next((word for word in argv if word in SUBCOMMANDS), None)
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        _check(args)
        return args.handler(args)
    except AnalyzerError as err:
        failure = err
    except OSError as err:
        failure = IoFailure(str(err))
    _print_error(command, failure)
    return failure.exit_code


if __name__ == "__main__":
    sys.exit(main())
