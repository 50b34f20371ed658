"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 model-domain error (e.g. the
saturated regime), 4 I/O failure.  On failure a machine-readable JSON
error record goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

from . import report as rpt
from .config import AnalysisConfig, load_config
from .delay import DelayPolicy
from .errors import AnalyzerError, EmptyInput, InputError, IoFailure
from .ingest import ingest_approaches, ingest_cycles, scan_cycles
from .model import ApproachConfig, DayFilter, SignalCycleRecord
from .pipeline import AnalysisResult, analyze_records
from .stats import (
    five_number, pairwise_z_matrix, summarize, window_cycle_lengths, peak_window, z_test,
)

DEFAULT_OUT = "analysis_out"


@dataclass(frozen=True)
class RunManifest:
    """One resolved invocation: inputs, config, destination and flags.

    Referenced input paths are checked up front, before any parsing or
    computation happens.
    """

    subcommand: str
    cycles: Path | None = None
    approaches: Path | None = None
    config: Path | None = None
    out: Path | None = None
    format: str = "csv"
    policy: str = "all"
    window: float = 1800.0
    span: int = 4
    day: str = "all"

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunManifest":
        def path_of(name):
            value = getattr(args, name, None)
            return None if value is None else Path(value)

        return cls(
            subcommand=args.command,
            cycles=path_of("cycles"),
            approaches=path_of("approaches"),
            config=path_of("config"),
            out=path_of("out"),
            format=getattr(args, "format", "csv"),
            policy=getattr(args, "policy", "all"),
            window=getattr(args, "window", 1800.0),
            span=getattr(args, "span", 4),
            day=getattr(args, "day", "all"),
        )

    def validate(self) -> None:
        if self.window <= 0:
            raise InputError(f"--window must be > 0, got {self.window:g}")
        if self.span < 1:
            raise InputError(f"--span must be >= 1, got {self.span}")
        for label, path in (("cycles", self.cycles),
                            ("approaches", self.approaches),
                            ("config", self.config)):
            if path is not None and not path.is_file():
                raise InputError(f"{label} file not found: {path}")


def _print_error(subcommand: str, err: AnalyzerError) -> None:
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


def _load_approaches(path: str | Path) -> dict[str, ApproachConfig]:
    with _read_text(path) as handle:
        return ingest_approaches(handle)


def _load_cycles(path: str | Path, approaches: Mapping[str, ApproachConfig] | None):
    with _read_text(path) as handle:
        if approaches is None:
            records, errors = scan_cycles(handle, None)
            if errors:
                raise errors[0]
            return records
        return ingest_cycles(handle, approaches)


def _analyze(manifest: RunManifest) -> tuple[AnalysisConfig, list[SignalCycleRecord], AnalysisResult]:
    config = load_config(manifest.config)
    approaches = _load_approaches(manifest.approaches)
    records = _load_cycles(manifest.cycles, approaches)
    policy = DelayPolicy(manifest.policy)
    result = analyze_records(records, approaches, config, emission_policy=policy)
    return config, records, result


def _commit(writer: rpt.ArtifactWriter) -> int:
    for path in writer.commit():
        print(f"wrote {path}")
    return 0


# --- subcommand handlers -----------------------------------------------------

def cmd_validate(manifest: RunManifest, args) -> int:
    approaches = _load_approaches(manifest.approaches) if manifest.approaches else None
    with _read_text(manifest.cycles) as handle:
        records, errors = scan_cycles(handle, approaches)
    for err in errors:
        print(f"{type(err).__name__}: {err}")
    if errors:
        print(f"{len(records)} valid record(s), {len(errors)} problem(s)")
        _print_error("validate", errors[0])
        return errors[0].exit_code
    print(f"OK: {len(records)} record(s)")
    return 0


def cmd_peak_hours(manifest: RunManifest, args) -> int:
    approaches = _load_approaches(manifest.approaches) if manifest.approaches else None
    records = _load_cycles(manifest.cycles, approaches)
    windows = window_cycle_lengths(records, manifest.window, DayFilter(manifest.day))
    start, end = peak_window(windows, manifest.span)
    print(f"peak window: {rpt.hhmm(start)}-{rpt.hhmm(end)}")
    if manifest.out:
        writer = rpt.ArtifactWriter(manifest.out)
        writer.stage("windowed.csv", rpt.windowed_csv(windows))
        return _commit(writer)
    return 0


def cmd_variability(manifest: RunManifest, args) -> int:
    approaches = _load_approaches(manifest.approaches)
    records = _load_cycles(manifest.cycles, approaches)

    samples: dict[str, list[float]] = {}
    for record in records:
        samples.setdefault(record.approach_id, []).append(float(record.counts.total()))

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
        intersection_id: [v for vs in approach_samples.values() for v in vs]
        for intersection_id, approach_samples in sorted(by_intersection.items())
    }
    for intersection_id, values in pooled.items():
        summaries[intersection_id] = five_number(values)

    writer = rpt.ArtifactWriter(manifest.out or DEFAULT_OUT)
    writer.stage("pvalues.csv", rpt.pvalues_csv(matrices))
    writer.stage("boxplot.csv", rpt.boxplot_csv(summaries))

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
        writer.stage("inflow_comparison.csv", rpt.inflow_comparison_csv(rows))
    return _commit(writer)


def cmd_flow(manifest: RunManifest, args) -> int:
    _, _, result = _analyze(manifest)
    writer = rpt.ArtifactWriter(manifest.out or DEFAULT_OUT)
    writer.stage("flow.csv", rpt.flow_csv(result))
    writer.stage("saturation.csv", rpt.saturation_csv(result))
    return _commit(writer)


def cmd_green(manifest: RunManifest, args) -> int:
    _, _, result = _analyze(manifest)
    writer = rpt.ArtifactWriter(manifest.out or DEFAULT_OUT)
    writer.stage("green.csv", rpt.green_csv(result))
    writer.stage("green_series.csv", rpt.green_series_csv(result))
    return _commit(writer)


def cmd_delay(manifest: RunManifest, args) -> int:
    _, _, result = _analyze(manifest)
    writer = rpt.ArtifactWriter(manifest.out or DEFAULT_OUT)
    writer.stage("delay_los.csv", rpt.delay_csv(result))
    writer.stage("intersections.csv", rpt.intersections_csv(result))
    return _commit(writer)


def cmd_los(manifest: RunManifest, args) -> int:
    if not args.delay and not args.vc:
        raise EmptyInput("nothing to classify: pass --delay and/or --vc values")
    for value in (args.delay or []) + (args.vc or []):
        if value < 0:
            raise InputError(f"classified values must be >= 0, got {value:g}")
    config = load_config(manifest.config)
    vc_table = config.los_tables.get("vc_ratio")
    delay_tables = {
        name: table for name, table in sorted(config.los_tables.items())
        if name != "vc_ratio"
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


def cmd_emissions(manifest: RunManifest, args) -> int:
    config, _, result = _analyze(manifest)
    writer = rpt.ArtifactWriter(manifest.out or DEFAULT_OUT)
    writer.stage("emissions.csv", rpt.emissions_csv(result))
    writer.stage("emissions_summary.csv", rpt.emissions_summary_csv(
        result, config.city.active_hours_per_day))
    return _commit(writer)


def cmd_report(manifest: RunManifest, args) -> int:
    config, records, result = _analyze(manifest)
    writer = rpt.ArtifactWriter(manifest.out or DEFAULT_OUT)
    writer.stage("flow.csv", rpt.flow_csv(result))
    writer.stage("saturation.csv", rpt.saturation_csv(result))
    writer.stage("composition.csv", rpt.composition_csv(result))
    writer.stage("green.csv", rpt.green_csv(result))
    writer.stage("green_series.csv", rpt.green_series_csv(result))
    writer.stage("delay_los.csv", rpt.delay_csv(result))
    writer.stage("intersections.csv", rpt.intersections_csv(result))
    writer.stage("emissions.csv", rpt.emissions_csv(result))
    writer.stage("emissions_summary.csv", rpt.emissions_summary_csv(
        result, config.city.active_hours_per_day))
    summary = rpt.summary_text(result, config.city.active_hours_per_day)
    writer.stage("summary.txt", summary)

    if records and all(r.timestamp is not None for r in records):
        windows = window_cycle_lengths(records, manifest.window, DayFilter(manifest.day))
        writer.stage("windowed.csv", rpt.windowed_csv(windows))

    status = _commit(writer)
    if manifest.format == "text":
        print(summary, end="")
    return status


# --- parser ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analyze",
        description="Signalized-intersection analysis: volumes, V/C, "
                    "saturation flow, delay, level of service, green use "
                    "and idle emissions from per-cycle CSV records.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, approaches_required=True, out=True):
        p.add_argument("--cycles", required=True, help="cycle records CSV")
        p.add_argument("--approaches", required=approaches_required,
                       help="approach configuration CSV")
        p.add_argument("--config", default=None, help="JSON config overriding defaults")
        if out:
            p.add_argument("--out", default=None,
                           help=f"output directory (default: {DEFAULT_OUT})")
        p.add_argument("--policy", choices=["all", "major"], default="all",
                       help="delay aggregation policy for emissions")
        p.add_argument("--format", choices=["csv", "text"], default="csv")
        p.add_argument("--window", type=float, default=1800.0,
                       help="aggregation window in seconds")
        p.add_argument("--span", type=int, default=4,
                       help="consecutive windows forming the peak")
        p.add_argument("--day", choices=[d.value for d in DayFilter],
                       default="all", help="calendar-day filter for windowing")

    p = sub.add_parser("validate", help="check a cycles CSV, reporting every bad row")
    common(p, approaches_required=False, out=False)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("peak-hours", help="find the heaviest run of windows")
    common(p, approaches_required=False)
    p.set_defaults(handler=cmd_peak_hours)

    p = sub.add_parser("variability", help="pairwise z-tests and box-plot summaries")
    common(p)
    p.set_defaults(handler=cmd_variability)

    p = sub.add_parser("flow", help="volumes, V/C ratios and saturation flow")
    common(p)
    p.set_defaults(handler=cmd_flow)

    p = sub.add_parser("green", help="green splits and green-time utilization")
    common(p)
    p.set_defaults(handler=cmd_green)

    p = sub.add_parser("delay", help="control delay and level of service")
    common(p)
    p.set_defaults(handler=cmd_delay)

    p = sub.add_parser("los", help="classify delay or V/C values directly")
    p.add_argument("--config", default=None)
    p.add_argument("--delay", type=float, action="append",
                   help="delay in seconds (repeatable)")
    p.add_argument("--vc", type=float, action="append",
                   help="volume-to-capacity ratio (repeatable)")
    p.set_defaults(handler=cmd_los)

    p = sub.add_parser("emissions", help="idle fuel use and CO2")
    common(p)
    p.set_defaults(handler=cmd_emissions)

    p = sub.add_parser("report", help="everything: all CSV families plus a text summary")
    common(p)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        manifest = RunManifest.from_args(args)
        manifest.validate()
        return args.handler(manifest, args)
    except AnalyzerError as err:
        _print_error(args.command, err)
        return err.exit_code
    except OSError as err:
        failure = IoFailure(str(err))
        _print_error(args.command, failure)
        return failure.exit_code


if __name__ == "__main__":
    sys.exit(main())
