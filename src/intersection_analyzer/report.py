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
import math
import os
import tempfile
from decimal import ROUND_HALF_UP, Context, Decimal
from itertools import chain, compress, count, cycle, repeat
from operator import add, lt, mul, not_, or_, sub
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import IoFailure
from .model import VEHICLE_CLASSES
from .stats import FiveNumberSummary, WindowedAverage

if TYPE_CHECKING:
    from .pipeline import AnalysisResult

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


def fmt_g(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


def fmt_column(values: Sequence[float], places: int) -> list[str]:
    """``fmt`` of each value; NaN, an absent value, prints empty.

    Each value is formatted in C at ``places`` and at one place more.  Only
    the values ``fmt`` would not round in C (a tie, a large value or a
    non-finite one) go through ``fmt`` itself.
    """
    limit, spec, finer = _fast_specs(places)
    texts = list(map(format, values, repeat(spec)))
    finer_texts = list(map(format, values, repeat(finer)))
    redo = map(str.endswith, finer_texts, repeat("5"))
    if texts and not (-limit < min(values) and max(values) < limit and "nan" not in texts):
        redo = map(or_, redo, map(not_, map(lt, map(abs, values), repeat(limit))))
    for i in compress(count(), redo):
        value = values[i]
        if float(finer_texts[i]) == value or not -limit < value < limit:
            texts[i] = "" if math.isnan(value) else fmt(value, places)
    return texts


def fmt_int_column(values: Sequence[float]) -> list[str]:
    """``fmt_int`` of each value; NaN prints empty."""
    texts = fmt_column(values, 0)
    # Below fmt's C limit the digits are already an integer's; -0 and the
    # larger values are read back as ``fmt_int`` reads them.
    limit = _fast_specs(0)[0]
    redo = map(str.__eq__, texts, repeat("-0"))
    if texts and not (-limit < min(values) and max(values) < limit):
        redo = map(or_, redo, map(not_, map(lt, map(abs, values), repeat(limit))))
    for i in compress(count(), redo):
        texts[i] = texts[i] and str(int(float(texts[i])))
    return texts


def fmt_g_column(values: Sequence[float]) -> list[str]:
    """``fmt_g`` of each value; NaN prints empty."""
    texts = list(map(format, values, repeat(".6g")))
    for i in compress(count(), map(math.isnan, values)):
        texts[i] = ""
    return texts


def hhmm(seconds_since_midnight: float) -> str:
    total = int(round(seconds_since_midnight))
    return f"{total // 3600:02d}:{total % 3600 // 60:02d}"


def _csv_doc(name: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buffer = io.StringIO()
    buffer.write(f"# schema: intersection-analyzer/{name} v{SCHEMA_VERSION}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
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
#
# The builders read the result's columns (NaN marks an absent value, which
# prints empty), format each field once for the whole column and zip the
# formatted columns into rows.

def flow_csv(result: AnalysisResult) -> str:
    a = result.by_approach
    rows = zip(a.approach_id, a.intersection_id, map(str, a.lane_count), a.directionality,
               fmt_int_column(a.capacity), fmt_int_column(a.hourly_volume), a.vc_text)
    return _csv_doc("flow", (
        "approach_id", "intersection_id", "lanes", "directionality",
        "capacity_pcu_hr", "volume_pcu_hr", "vc_ratio"), rows)


def saturation_csv(result: AnalysisResult) -> str:
    a = result.by_approach
    difference = list(map(sub, a.sf_discharge, a.sf_width))
    rows = zip(a.approach_id, a.intersection_id, fmt_g_column(a.width),
               fmt_g_column(a.mean_effective_green), fmt_g_column(a.mean_exited_pcu),
               fmt_int_column(a.sf_discharge), fmt_int_column(a.sf_width),
               fmt_int_column(difference))
    return _csv_doc("saturation", (
        "approach_id", "intersection_id", "width_m", "effective_green_s",
        "exited_pcu", "sf_discharge_pcu_hr", "sf_width_pcu_hr",
        "sf_difference_pcu_hr"), rows)


def composition_csv(result: AnalysisResult) -> str:
    a = result.by_approach
    shares = zip(*(fmt_column(a.composition[cls], 4) for cls in VEHICLE_CLASSES))
    rows = zip(chain.from_iterable(map(repeat, a.approach_id, repeat(len(VEHICLE_CLASSES)))),
               cycle([cls.value for cls in VEHICLE_CLASSES]), chain.from_iterable(shares))
    return _csv_doc("composition", ("approach_id", "vehicle_class", "share"), rows)


def green_csv(result: AnalysisResult) -> str:
    a = result.by_approach
    rows = zip(a.approach_id, a.intersection_id, fmt_g_column(a.mean_green),
               fmt_column(a.green_share, 4), fmt_g_column(a.pcu_per_cycle),
               fmt_column(a.green_to_pcu_ratio, 2), fmt_column(a.wastage, 3))
    return _csv_doc("green", (
        "approach_id", "intersection_id", "mean_green_s", "green_share",
        "pcu_per_cycle", "green_s_per_pcu", "wastage"), rows)


def green_series_csv(result: AnalysisResult) -> str:
    """Plot-ready (approach, green, pcu) series for allocated-green charts."""
    a = result.by_approach
    rows = zip(a.approach_id, fmt_g_column(a.mean_green), fmt_g_column(a.pcu_per_cycle))
    return _csv_doc("green-series", ("approach_id", "mean_green_s", "pcu_per_cycle"), rows)


def delay_csv(result: AnalysisResult) -> str:
    a = result.by_approach
    standards = sorted(a.los)
    header = [
        "approach_id", "intersection_id", "cycle_s", "green_s", "vc_ratio",
        "platoon_ratio", "delay_s", "clamped",
    ] + [f"los_{name}" for name in standards]
    rows = zip(a.approach_id, a.intersection_id, fmt_g_column(a.mean_cycle_length),
               fmt_g_column(a.mean_green), a.vc_text, fmt_column(a.platoon_ratio, 4),
               fmt_column(a.delay_s, 2), map("01".__getitem__, a.delay_clamped),
               *(a.los[name] for name in standards))
    return _csv_doc("delay-los", header, rows)


def intersections_csv(result: AnalysisResult) -> str:
    i, is_major = result.by_intersection, result.by_approach.is_major
    standards = sorted(i.los_all)
    header = ["intersection_id", "policy", "approaches_used", "mean_delay_s"]
    header += [f"los_{name}" for name in standards]
    all_rows = zip(i.intersection_id, repeat("all"),
                   [str(span.stop - span.start) for span in i.span],
                   fmt_column(i.mean_delay_all, 2), *(i.los_all[name] for name in standards))
    major_rows = zip(i.intersection_id, repeat("major"),
                     [str(sum(is_major[span])) for span in i.span],
                     fmt_column(i.mean_delay_major, 2),
                     *(i.los_major[name] for name in standards))
    rows = []
    for all_row, major_row in zip(all_rows, major_rows):
        rows.append(all_row)
        if major_row[3]:
            rows.append(major_row)
    return _csv_doc("intersection-delay", header, rows)


def emissions_csv(result: AnalysisResult) -> str:
    from .emissions import FuelType

    i = result.by_intersection
    fuels = (FuelType.CNG, FuelType.DIESEL, FuelType.PETROL)
    rows = zip(i.intersection_id, fmt_column(i.emission_delay_s, 2),
               *(fmt_column(i.fuel_per_hour[fuel], 2) for fuel in fuels),
               *(fmt_column(i.co2_per_hour[fuel], 2) for fuel in fuels),
               fmt_column(i.total_co2_per_hour, 2))
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


def _grade_lists(grades: Mapping[str, Sequence[str]], size: int) -> list[str]:
    """Each entry's ``name=grade`` pairs in name order, joined by spaces."""
    pairs = [list(map(add, repeat(f"{name}="), grades[name])) for name in sorted(grades)]
    return list(map(" ".join, zip(*pairs))) if pairs else [""] * size


def summary_text(result: AnalysisResult, active_hours: float) -> str:
    a, i = result.by_approach, result.by_intersection
    wastage = fmt_column(list(map(mul, a.wastage, repeat(100))), 1)
    approach_lines = list(map(
        "  {}: volume {} PCU/h, V/C {}, delay {} s, green share {}%{} [{}]".format,
        a.approach_id, fmt_int_column(a.hourly_volume), a.vc_text, fmt_column(a.delay_s, 2),
        fmt_column(list(map(mul, a.green_share, repeat(100))), 2),
        [text and f", wastage {text}%" for text in wastage],
        _grade_lists(a.los, len(a.approach_id))))
    del wastage
    mean_all = fmt_column(i.mean_delay_all, 2)
    mean_major = fmt_column(i.mean_delay_major, 2)
    grades_all = _grade_lists(i.los_all, len(mean_all))
    grades_major = _grade_lists(i.los_major, len(mean_all))
    total = fmt_column(i.total_co2_per_hour, 2)
    emission_delay = fmt_column(i.emission_delay_s, 2)

    lines: list[str] = ["Signalized intersection analysis", ""]
    for k, (intersection_id, span) in enumerate(zip(i.intersection_id, i.span)):
        lines.append(f"Intersection {intersection_id} ({span.stop - span.start} approaches)")
        lines.extend(approach_lines[span])
        lines.append(f"  mean delay (all approaches): {mean_all[k]} s {grades_all[k]}")
        if mean_major[k]:
            lines.append(f"  mean delay (major only):    {mean_major[k]} s {grades_major[k]}")
        lines.append(
            f"  idle emissions: {total[k]} kg CO2/h (at mean delay {emission_delay[k]} s)")
        lines.extend(map(add, repeat("  note: "), i.notes[k]))
        lines.append("")
    lines.append(
        f"Study total: {fmt(result.study_total_co2_kg_per_hour, 2)} kg CO2/h")
    basis = "extrapolated estimate" if result.city.extrapolated else "configured rate"
    lines.append(
        f"Citywide ({basis}): {fmt(result.city.city_kg_per_hour, 2)} kg CO2/h, "
        f"{fmt(result.city.tons_per_day, 2)} t/day over {fmt_g(active_hours)} h")
    return "\n".join(lines) + "\n"
