"""Deterministic artifact emission.

Every CSV starts with a `# schema:` comment line carrying the schema
version, then a header row.  Volumes and saturation flows are rounded
half-up to integers, ratios to two decimals, matching the reporting
conventions of the source tables; computation upstream is full precision.

Writing is two-phase (stage everything, write temp files, rename) so a
failing run never leaves partially updated outputs behind.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import tempfile
from decimal import ROUND_HALF_UP, Context, Decimal
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from typing import TYPE_CHECKING

from .errors import IoFailure
from .model import VEHICLE_CLASSES
from .stats import FiveNumberSummary, WindowedAverage

if TYPE_CHECKING:
    from .pipeline import AnalysisResult, ApproachReport

SCHEMA_VERSION = 1


# A finite double has at most 309 integer digits, so 400 digits hold it
# quantized at up to 91 places; the default context's 28 raise
# InvalidOperation from about 1e28 up.  Nothing reads the flags it collects.
_CONTEXT = Context(prec=400)


@functools.cache
def _quantum(places: int) -> Decimal:
    return Decimal(1).scaleb(-places)


def _rounded(value: float, places: int) -> Decimal:
    return Decimal(repr(value)).quantize(
        _quantum(places), rounding=ROUND_HALF_UP, context=_CONTEXT)


@functools.cache
def _fast_specs(places: int) -> tuple[float, str, str]:
    """Magnitude below which ``fmt`` may round in C, and the two specs it uses.

    Below ``2**52 / 10**(places + 1)`` doubles lie closer together than
    ``10**-(places + 1)``.  No rounding midpoint at ``places`` then lies
    strictly between ``repr(v)`` and the exact value of ``v``.  If ``repr(v)``
    has more than ``places + 1`` decimals, such a midpoint would read back as
    ``v`` with no more digits and closer to it, and ``repr`` would have
    printed it; if not, the two lie at least ``10**-(places + 1)`` apart,
    further than ``v`` is from ``repr(v)``.  So C's round-to-nearest on the
    exact value agrees with half-up on ``repr`` except at a tie, where one
    of them is the midpoint.
    """
    return 2.0**52 / 10**(places + 1), f".{places}f", f".{places + 1}f"


def fmt(value: float, places: int) -> str:
    """``value`` rounded half-up at ``places`` >= 0, on its shortest ``repr``."""
    value = float(value)
    limit, spec, finer = _fast_specs(places)
    if -limit < value < limit:
        digits = format(value, finer)
        if digits[-1] != "5" or float(digits) != value:
            return format(value, spec)
    # A tie, a large value or a non-finite one.  Formatting the Decimal itself
    # prints no binary digits past the rounding point, which a float of 1e13
    # or more would.
    return f"{_rounded(value, places):.{places}f}"


def round_half_up(value: float, places: int = 0) -> float:
    return float(fmt(value, places))


def fmt_int(value: float) -> str:
    return str(int(round_half_up(value, 0)))


def fmt_opt(value: float | None, places: int) -> str:
    return "" if value is None else fmt(value, places)


def fmt_opt_int(value: float | None) -> str:
    return "" if value is None else fmt_int(value)


def fmt_g(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


def hhmm(seconds_since_midnight: float) -> str:
    total = int(round(seconds_since_midnight))
    return f"{total // 3600:02d}:{total % 3600 // 60:02d}"


def _csv_doc(name: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buffer = io.StringIO()
    buffer.write(f"# schema: intersection-analyzer/{name} v{SCHEMA_VERSION}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


class ArtifactWriter:
    """Stages named artifacts, then commits them atomically."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self._staged: dict[str, str] = {}

    def stage(self, name: str, content: str) -> None:
        self._staged[name] = content

    def commit(self) -> list[Path]:
        temps: list[tuple[str, Path]] = []
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            for name in sorted(self._staged):
                fd, tmp = tempfile.mkstemp(
                    dir=self.out_dir, prefix=f".{name}.", suffix=".tmp")
                with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                    handle.write(self._staged[name])
                temps.append((tmp, self.out_dir / name))
            for tmp, final in temps:
                os.replace(tmp, final)
            return [final for _, final in temps]
        except OSError as err:
            for tmp, _ in temps:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise IoFailure(f"failed writing artifacts to {self.out_dir}: {err}") from err


# --- CSV families ------------------------------------------------------------

def flow_csv(result: AnalysisResult) -> str:
    rows = [
        (r.approach_id, r.intersection_id, str(r.lane_count), r.directionality,
         fmt_int(r.flow.capacity), fmt_int(r.flow.hourly_volume),
         fmt(r.flow.vc_ratio, 2))
        for r in result.approaches
    ]
    return _csv_doc("flow", (
        "approach_id", "intersection_id", "lanes", "directionality",
        "capacity_pcu_hr", "volume_pcu_hr", "vc_ratio"), rows)


def saturation_csv(result: AnalysisResult) -> str:
    rows = [
        (r.approach_id, r.intersection_id, fmt_g(r.width),
         fmt_g(r.mean_effective_green), fmt_g(r.mean_exited_pcu),
         fmt_opt_int(r.flow.sf_discharge), fmt_int(r.flow.sf_width),
         fmt_opt_int(r.flow.sf_difference))
        for r in result.approaches
    ]
    return _csv_doc("saturation", (
        "approach_id", "intersection_id", "width_m", "effective_green_s",
        "exited_pcu", "sf_discharge_pcu_hr", "sf_width_pcu_hr",
        "sf_difference_pcu_hr"), rows)


def composition_csv(result: AnalysisResult) -> str:
    classes = [(cls, cls.value) for cls in VEHICLE_CLASSES]
    rows = [
        (r.approach_id, name, fmt(r.composition.get(cls, 0.0), 4))
        for r in result.approaches
        for cls, name in classes
    ]
    return _csv_doc("composition", ("approach_id", "vehicle_class", "share"), rows)


def green_csv(result: AnalysisResult) -> str:
    rows = [
        (r.approach_id, r.intersection_id, fmt_g(r.mean_green),
         fmt(r.green.green_share, 4), fmt_g(r.green.pcu_per_cycle),
         fmt_opt(r.green.green_to_pcu_ratio, 2), fmt_opt(r.green.wastage, 3))
        for r in result.approaches
    ]
    return _csv_doc("green", (
        "approach_id", "intersection_id", "mean_green_s", "green_share",
        "pcu_per_cycle", "green_s_per_pcu", "wastage"), rows)


def green_series_csv(result: AnalysisResult) -> str:
    """Plot-ready (approach, green, pcu) series for allocated-green charts."""
    rows = [
        (r.approach_id, fmt_g(r.mean_green), fmt_g(r.green.pcu_per_cycle))
        for r in result.approaches
    ]
    return _csv_doc("green-series", ("approach_id", "mean_green_s", "pcu_per_cycle"), rows)


def delay_csv(result: AnalysisResult) -> str:
    standards = sorted({name for r in result.approaches for name in r.los})
    header = [
        "approach_id", "intersection_id", "cycle_s", "green_s", "vc_ratio",
        "platoon_ratio", "delay_s", "clamped",
    ] + [f"los_{name}" for name in standards]
    rows = []
    for r in result.approaches:
        row = [
            r.approach_id, r.intersection_id, fmt_g(r.mean_cycle_length),
            fmt_g(r.mean_green), fmt(r.flow.vc_ratio, 2), fmt(r.platoon_ratio, 4),
            fmt(r.delay_s, 2), "1" if r.delay_clamped else "0",
        ]
        row += [r.los[name].grade if name in r.los else "" for name in standards]
        rows.append(row)
    return _csv_doc("delay-los", header, rows)


def intersections_csv(result: AnalysisResult) -> str:
    standards = sorted({
        name for i in result.intersections for name in i.los_all})
    header = ["intersection_id", "policy", "approaches_used", "mean_delay_s"]
    header += [f"los_{name}" for name in standards]
    rows = []
    for report in result.intersections:
        all_row = [report.intersection_id, "all",
                   str(len(report.approach_ids)), fmt(report.mean_delay_all, 2)]
        all_row += [report.los_all[name].grade for name in standards]
        rows.append(all_row)
        if report.mean_delay_major is not None:
            major_row = [report.intersection_id, "major",
                         str(len(report.major_approach_ids)),
                         fmt(report.mean_delay_major, 2)]
            major_row += [report.los_major[name].grade for name in standards]
            rows.append(major_row)
    return _csv_doc("intersection-delay", header, rows)


def emissions_csv(result: AnalysisResult) -> str:
    from .emissions import FuelType

    rows = []
    for report in result.intersections:
        e = report.emissions
        rows.append((
            report.intersection_id,
            fmt(report.emission_delay_s, 2),
            fmt(e.fuel_per_hour[FuelType.CNG], 2),
            fmt(e.fuel_per_hour[FuelType.DIESEL], 2),
            fmt(e.fuel_per_hour[FuelType.PETROL], 2),
            fmt(e.co2_per_hour[FuelType.CNG], 2),
            fmt(e.co2_per_hour[FuelType.DIESEL], 2),
            fmt(e.co2_per_hour[FuelType.PETROL], 2),
            fmt(e.total_co2_per_hour, 2),
        ))
    return _csv_doc("emissions", (
        "intersection_id", "mean_delay_s", "cng_kg_hr", "diesel_l_hr",
        "petrol_l_hr", "co2_cng_kg_hr", "co2_diesel_kg_hr", "co2_petrol_kg_hr",
        "co2_total_kg_hr"), rows)


def emissions_summary_csv(result: AnalysisResult, active_hours: float) -> str:
    total = result.study_total_co2_kg_per_hour
    rows = [
        ("study_intersections", fmt(total, 2),
         fmt(total * active_hours / 1000.0, 2), fmt_g(active_hours), "sum_of_reports"),
        ("city", fmt(result.city.city_kg_per_hour, 2),
         fmt(result.city.tons_per_day, 2), fmt_g(active_hours),
         "extrapolated_estimate" if result.city.extrapolated else "configured_rate"),
    ]
    return _csv_doc("emissions-summary", (
        "scope", "co2_kg_per_hour", "co2_tons_per_day", "active_hours_per_day",
        "basis"), rows)


def windowed_csv(averages: Sequence[WindowedAverage]) -> str:
    rows = [
        (hhmm(w.window_start), fmt_g(w.window_length),
         fmt_g(w.mean_cycle_length), str(w.sample_count))
        for w in averages
    ]
    return _csv_doc("windowed-cycle-lengths", (
        "window_start", "window_length_s", "mean_cycle_length_s", "sample_count"), rows)


def inflow_comparison_csv(rows: Sequence[Sequence[str]]) -> str:
    return _csv_doc("inflow-comparison", (
        "intersection_a", "intersection_b", "z_statistic", "p_value"), rows)


def pvalues_csv(matrices: Mapping[str, Mapping[tuple[str, str], float]]) -> str:
    rows = []
    for intersection_id in sorted(matrices):
        matrix = matrices[intersection_id]
        for (a, b) in sorted(matrix):
            rows.append((intersection_id, a, b, f"{matrix[(a, b)]:.6g}"))
    return _csv_doc("pairwise-pvalues", (
        "intersection_id", "approach_a", "approach_b", "p_value"), rows)


def boxplot_csv(summaries: Mapping[str, FiveNumberSummary]) -> str:
    rows = [
        (group, fmt_g(s.minimum), fmt_g(s.q1), fmt_g(s.median),
         fmt_g(s.q3), fmt_g(s.maximum))
        for group, s in sorted(summaries.items())
    ]
    return _csv_doc("five-number", ("group", "min", "q1", "median", "q3", "max"), rows)


def summary_text(result: AnalysisResult, active_hours: float) -> str:
    lines: list[str] = ["Signalized intersection analysis", ""]
    by_intersection: dict[str, list[ApproachReport]] = {}
    for r in result.approaches:
        by_intersection.setdefault(r.intersection_id, []).append(r)
    for report in result.intersections:
        lines.append(f"Intersection {report.intersection_id} "
                     f"({len(report.approach_ids)} approaches)")
        for r in by_intersection.get(report.intersection_id, ()):
            grades = " ".join(
                f"{name}={r.los[name].grade}" for name in sorted(r.los))
            lines.append(
                f"  {r.approach_id}: volume {fmt_int(r.flow.hourly_volume)} PCU/h, "
                f"V/C {fmt(r.flow.vc_ratio, 2)}, delay {fmt(r.delay_s, 2)} s, "
                f"green share {fmt(r.green.green_share * 100, 2)}%"
                + (f", wastage {fmt(r.green.wastage * 100, 1)}%"
                   if r.green.wastage is not None else "")
                + f" [{grades}]")
        lines.append(
            f"  mean delay (all approaches): {fmt(report.mean_delay_all, 2)} s "
            + " ".join(f"{name}={report.los_all[name].grade}"
                       for name in sorted(report.los_all)))
        if report.mean_delay_major is not None:
            lines.append(
                f"  mean delay (major only):    {fmt(report.mean_delay_major, 2)} s "
                + " ".join(f"{name}={report.los_major[name].grade}"
                           for name in sorted(report.los_major)))
        lines.append(
            f"  idle emissions: {fmt(report.emissions.total_co2_per_hour, 2)} kg CO2/h "
            f"(at mean delay {fmt(report.emission_delay_s, 2)} s)")
        for note in report.notes:
            lines.append(f"  note: {note}")
        lines.append("")
    lines.append(
        f"Study total: {fmt(result.study_total_co2_kg_per_hour, 2)} kg CO2/h")
    basis = "extrapolated estimate" if result.city.extrapolated else "configured rate"
    lines.append(
        f"Citywide ({basis}): {fmt(result.city.city_kg_per_hour, 2)} kg CO2/h, "
        f"{fmt(result.city.tons_per_day, 2)} t/day over {fmt_g(active_hours)} h")
    return "\n".join(lines) + "\n"
