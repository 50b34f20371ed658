"""Deterministic artifact emission.

Every CSV starts with a `# schema:` comment line carrying the schema
version, then a header row.  Volumes and saturation flows are rounded
half-up to integers, ratios to two decimals, matching the reporting
conventions of the source tables; computation upstream is full precision.

Writing is two-phase (write each artifact to a temp file as it is staged,
then rename them all) so a failing run never leaves partially updated
outputs behind.
"""

from __future__ import annotations

import functools
import math
import os
from itertools import chain, compress, count, cycle, islice, repeat
from operator import add, lt, mul, not_, sub
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import IoFailure
from .model import VEHICLE_CLASSES
from .stats import FiveNumberSummary, WindowedAverage

if TYPE_CHECKING:
    from decimal import Decimal

    from .pipeline import AnalysisResult

SCHEMA_VERSION = 1


def _rounded(value: float, places: int) -> Decimal:
    from decimal import ROUND_HALF_UP, Context, Decimal  # imported late: few values need it
    number = Decimal(repr(value))
    if not number.is_finite():  # NaN or an infinity, which quantize rejects
        return number
    # A finite double has at most 309 integer digits, so 400 digits hold it
    # quantized at up to 91 places; the default context's 28 raise
    # InvalidOperation from about 1e28 up.  Nothing reads the flags it collects.
    return number.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP,
                           context=Context(prec=400))


# ``abs(math.remainder(v * 10**(places + 1), 10))`` above this marks a
# possible tie; ``_fast_specs`` shows that no tie falls at or below it.
_TIE_FLOOR = 5 - 2.0**-16


@functools.cache
def _fast_specs(places: int) -> tuple[float, float, str, str]:
    """The magnitude below which ``fmt_column`` rounds in C and finds ties by
    arithmetic, the scale ``10**(places + 1)``, and the two specs it uses.

    Below ``2**52 / 10**(places + 1)`` doubles lie closer together than
    ``10**-(places + 1)``.  No rounding midpoint at ``places`` then lies
    strictly between ``repr(v)`` and the exact value of ``v``.  If ``repr(v)``
    has more than ``places + 1`` decimals, such a midpoint would read back as
    ``v`` with no more digits and closer to it, and ``repr`` would have
    printed it; if not, the two lie at least ``10**-(places + 1)`` apart,
    further than ``v`` is from ``repr(v)``.  So C's round-to-nearest on the
    exact value agrees with half-up on ``repr`` except at a tie, where one
    of them is the midpoint.

    A tie is a ``v`` whose ``repr`` is ``k * 10**-(places + 1)`` for an odd
    multiple ``k`` of 5.  ``v`` is the double nearest that decimal, so the
    two differ by at most half a step, no more than ``|v| * 2**-53``.  A
    double below the returned bound, the double nearest
    ``2**32 / 10**(places + 1)``, is below that number itself.  With the
    scale exact (``places`` below 22), the exact ``v * 10**(places + 1)``
    then lies below ``2**32`` and within ``2**-21`` of ``k``, and rounding
    it moves it by at most ``2**-22``.  So the product lies within ``2**-20``
    of ``k``, and ``math.remainder(product, 10)``, which is exact, has a
    magnitude above ``5 - 2**-20``, and above ``_TIE_FLOOR``.  No tie is
    missed; a value the test flags that is not a tie fails the exact check.
    """
    return (2.0**32 / 10**(places + 1), 10.0**(places + 1),
            f".{places}f", f".{places + 1}f")


def _away_from_zero(value: float) -> float:
    """The double next to ``value``, further from zero.

    Below ``_fast_specs``' bound a double lies within half a step of the
    decimal tie it reads as, and a step is less than ``10**-(places + 1)``.
    The next double out then lies strictly between the tie and the next
    rounding midpoint, so C rounds it as half-up rounds the tie.
    """
    return math.nextafter(value, math.copysign(math.inf, value))


def fmt(value: float, places: int) -> str:
    """``value`` rounded half-up at ``places`` >= 0, on its shortest ``repr``."""
    value = float(value)
    # fmt_column prints NaN, and only NaN, empty.
    return fmt_column((value,), places)[0] or f"{_rounded(value, places):.{places}f}"


def round_half_up(value: float, places: int = 0) -> float:
    return float(fmt(value, places))


def fmt_int(value: float) -> str:
    return str(int(round_half_up(value, 0)))


def fmt_g(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


def _column_texts(values: Sequence[float], places: int) -> tuple[list[str], bool]:
    """``fmt_column(values, places)``, and True only if every value but NaN
    lies below ``_fast_specs``' bound."""
    bound, scale, spec, finer = _fast_specs(places)
    texts = list(map(format, values, repeat(spec)))
    # min and max pass over NaN unless it comes first, which only sends the
    # column the long way.
    in_range = not texts or (-bound < min(values) and max(values) < bound)
    if in_range:
        scaled = map(mul, values, repeat(scale))
    else:
        inside = list(map(lt, map(abs, values), repeat(bound)))  # False for NaN too
        for i in compress(count(), map(not_, inside)):
            value = values[i]
            if not math.isnan(value):
                # Formatting the Decimal itself prints no binary digits past
                # the rounding point, which a float of 1e13 or more would.
                texts[i] = f"{_rounded(value, places):.{places}f}"
        # A value outside scales to 0, or to NaN if infinite; neither is flagged.
        scaled = map(mul, values, map(mul, inside, repeat(scale)))
    flagged = map(lt, repeat(_TIE_FLOOR), map(abs, map(math.remainder, scaled, repeat(10.0))))
    for i in compress(count(), flagged):
        value = values[i]
        digits = format(value, finer)
        if digits[-1] == "5" and float(digits) == value:
            texts[i] = format(_away_from_zero(value), spec)
    if "nan" in texts:
        for i in compress(count(), map(math.isnan, values)):
            texts[i] = ""
    return texts, in_range


def fmt_column(values: Sequence[float], places: int) -> list[str]:
    """``fmt`` of each value; NaN, an absent value, prints empty.

    Each value is formatted in C at ``places``.  Only a value that
    ``_fast_specs``' arithmetic test flags as a possible tie is formatted at
    one place more, and a tie is formatted as the double next to it, further
    from zero.  A value at or past the bound, or an infinity, is rounded as
    a ``Decimal``.
    """
    return _column_texts(values, places)[0]


def fmt_int_column(values: Sequence[float]) -> list[str]:
    """``fmt_int`` of each value; NaN prints empty."""
    texts, in_range = _column_texts(values, 0)
    if in_range and "-0" not in texts:
        return texts  # below the bound the digits are already an integer's
    # -0 and the larger values are read back as ``fmt_int`` reads them.
    return [text and str(int(float(text))) for text in texts]


def fmt_g_column(values: Sequence[float]) -> list[str]:
    """``fmt_g`` of each value; NaN prints empty."""
    texts = list(map(format, values, repeat(".6g")))
    if "nan" in texts:
        for i in compress(count(), map(math.isnan, values)):
            texts[i] = ""
    return texts


def hhmm(seconds_since_midnight: float) -> str:
    total = int(round(seconds_since_midnight))
    return f"{total // 3600:02d}:{total % 3600 // 60:02d}"


# The characters for which a field is quoted.  Python 3.13's ``csv.writer``
# quotes a carriage return and earlier ones do not; it is always quoted, so
# every artifact reads back the same cells and has the same bytes everywhere.
_QUOTED_CHARS = (",", '"', "\n", "\r")
# Those that never stand between cells or rows.
_CELL_ONLY_CHARS = ('"', "\r")

# Rows joined into one piece of text at a time: a document's row strings
# never all exist at once.
_CHUNK_ROWS = 1024
# Characters of an artifact encoded and written at a time.
_WRITE_CHARS = 1 << 16
# Intersections of the text summary built at a time.
_CHUNK_INTERSECTIONS = 256


def _csv_field(cell: str) -> str:
    if any(map(cell.__contains__, _QUOTED_CHARS)):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_lines(rows: Sequence[Sequence[str]], fields: int) -> str:
    """``rows`` of ``fields`` cells each, as ``csv.writer`` writes them
    (a carriage return quoted) without the last line break.

    The rows are joined as they are; only if the text then holds a quote
    character, a carriage return, or more commas or line breaks than
    the rows' own separators, is each cell quoted as it needs.
    """
    text = "\n".join(map(",".join, rows))
    if (text.count(",") != len(rows) * (fields - 1) or text.count("\n") != len(rows) - 1
            or any(map(text.__contains__, _CELL_ONLY_CHARS))):
        text = "\n".join([",".join(map(_csv_field, row)) for row in rows])
    return text


def _csv_doc(name: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """The schema line, then the header and each row of two or more cells,
    in the bytes ``csv.writer(..., lineterminator="\n")`` writes on Python
    3.13."""
    fields, rows = len(header), iter(rows)
    parts = [f"# schema: intersection-analyzer/{name} v{SCHEMA_VERSION}\n",
             _csv_lines([header], fields), "\n"]
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        parts += (_csv_lines(chunk, fields), "\n")
    return "".join(parts)


class ArtifactWriter:
    """Writes each staged artifact to a temp file in ``out_dir`` at once,
    then renames every one into place on ``commit``.

    Used as a context manager it removes, on exit, the temp files of a run
    that did not commit, and ``out_dir`` if staging made it, so a run that
    fails part way leaves the outputs of the last good run as they were.
    """

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self._temps: dict[str, str] = {}  # artifact name -> its temp file
        self._made_dir = False

    def __enter__(self) -> ArtifactWriter:
        return self

    def __exit__(self, *exc_info) -> None:
        self.discard()

    def _failure(self, err: OSError) -> IoFailure:
        self.discard()
        return IoFailure(f"failed writing artifacts to {self.out_dir}: {err}")

    def stage(self, name: str, content: str) -> None:
        import tempfile  # here, not at import: with random it costs more than the package

        try:
            if not self.out_dir.is_dir():
                self.out_dir.mkdir(parents=True)
                self._made_dir = True
            fd, self._temps[name] = tempfile.mkstemp(
                dir=self.out_dir, prefix=f".{name}.", suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                # A slice at a time: writing the whole text would encode a
                # second, byte copy of it.
                for start in range(0, len(content), _WRITE_CHARS):
                    handle.write(content[start:start + _WRITE_CHARS])
        except OSError as err:
            raise self._failure(err) from err

    def commit(self) -> list[Path]:
        written = []
        try:
            for name in sorted(self._temps):
                final = self.out_dir / name
                os.replace(self._temps[name], final)
                del self._temps[name]
                written.append(final)
        except OSError as err:
            raise self._failure(err) from err
        self._made_dir = False
        return written

    def discard(self) -> None:
        """Remove every temp file not yet renamed into place, and
        ``out_dir`` if staging made it and it is empty."""
        for tmp in self._temps.values():
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self._temps.clear()
        if self._made_dir:
            try:
                self.out_dir.rmdir()
            except OSError:
                pass
            self._made_dir = False


# --- CSV families ------------------------------------------------------------
#
# The builders read the result's columns (NaN marks an absent value, which
# prints empty), format each field once for the whole column and zip the
# formatted columns into rows.  A column that more than one artifact prints
# is formatted once per result, by ``_shared``.


def _shared(result: AnalysisResult, format_column, values: Sequence[float],
            *args) -> list[str]:
    """``format_column(values, *args)``, kept in ``result.formatted``.

    ``values`` is one of the result's columns, so its ``id`` stays its own
    for as long as the result lives.
    """
    key = (format_column, id(values), args)
    texts = result.formatted.get(key)
    if texts is None:
        texts = result.formatted[key] = format_column(values, *args)
    return texts


def flow_csv(result: AnalysisResult) -> str:
    a = result.by_approach
    rows = zip(a.approach_id, a.intersection_id, map(str, a.lane_count), a.directionality,
               fmt_int_column(a.capacity), _shared(result, fmt_int_column, a.hourly_volume),
               a.vc_text)
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
    rows = zip(a.approach_id, a.intersection_id, _shared(result, fmt_g_column, a.mean_green),
               fmt_column(a.green_share, 4), _shared(result, fmt_g_column, a.pcu_per_cycle),
               fmt_column(a.green_to_pcu_ratio, 2), fmt_column(a.wastage, 3))
    return _csv_doc("green", (
        "approach_id", "intersection_id", "mean_green_s", "green_share",
        "pcu_per_cycle", "green_s_per_pcu", "wastage"), rows)


def green_series_csv(result: AnalysisResult) -> str:
    """Plot-ready (approach, green, pcu) series for allocated-green charts."""
    a = result.by_approach
    rows = zip(a.approach_id, _shared(result, fmt_g_column, a.mean_green),
               _shared(result, fmt_g_column, a.pcu_per_cycle))
    return _csv_doc("green-series", ("approach_id", "mean_green_s", "pcu_per_cycle"), rows)


def delay_csv(result: AnalysisResult) -> str:
    a = result.by_approach
    standards = sorted(a.los)
    header = [
        "approach_id", "intersection_id", "cycle_s", "green_s", "vc_ratio",
        "platoon_ratio", "delay_s", "clamped",
    ] + [f"los_{name}" for name in standards]
    rows = zip(a.approach_id, a.intersection_id, fmt_g_column(a.mean_cycle_length),
               _shared(result, fmt_g_column, a.mean_green), a.vc_text,
               fmt_column(a.platoon_ratio, 4), _shared(result, fmt_column, a.delay_s, 2),
               map("01".__getitem__, a.delay_clamped),
               *(a.los[name] for name in standards))
    return _csv_doc("delay-los", header, rows)


def intersections_csv(result: AnalysisResult) -> str:
    i, is_major = result.by_intersection, result.by_approach.is_major
    standards = sorted(i.los_all)
    header = ["intersection_id", "policy", "approaches_used", "mean_delay_s"]
    header += [f"los_{name}" for name in standards]
    all_rows = zip(i.intersection_id, repeat("all"),
                   [str(span.stop - span.start) for span in i.span],
                   _shared(result, fmt_column, i.mean_delay_all, 2),
                   *(i.los_all[name] for name in standards))
    major_rows = zip(i.intersection_id, repeat("major"),
                     [str(sum(is_major[span])) for span in i.span],
                     _shared(result, fmt_column, i.mean_delay_major, 2),
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
    rows = zip(i.intersection_id, _shared(result, fmt_column, i.emission_delay_s, 2),
               *(fmt_column(i.fuel_per_hour[fuel], 2) for fuel in fuels),
               *(fmt_column(i.co2_per_hour[fuel], 2) for fuel in fuels),
               _shared(result, fmt_column, i.total_co2_per_hour, 2))
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


def _approach_lines(result: AnalysisResult, rows: slice) -> list[str]:
    """The summary's line for each approach in ``rows``."""
    a = result.by_approach
    approach_ids = a.approach_id[rows]
    wastage = fmt_column(list(map(mul, a.wastage[rows], repeat(100))), 1)
    return list(map(
        "  {}: volume {} PCU/h, V/C {}, delay {} s, green share {}%{} [{}]".format,
        approach_ids, _shared(result, fmt_int_column, a.hourly_volume)[rows], a.vc_text[rows],
        _shared(result, fmt_column, a.delay_s, 2)[rows],
        fmt_column(list(map(mul, a.green_share[rows], repeat(100))), 2),
        [text and f", wastage {text}%" for text in wastage],
        _grade_lists({name: grades[rows] for name, grades in a.los.items()},
                     len(approach_ids))))


def summary_text(result: AnalysisResult, active_hours: float) -> str:
    i = result.by_intersection
    mean_all = _shared(result, fmt_column, i.mean_delay_all, 2)
    mean_major = _shared(result, fmt_column, i.mean_delay_major, 2)
    grades_all = _grade_lists(i.los_all, len(mean_all))
    grades_major = _grade_lists(i.los_major, len(mean_all))
    total = _shared(result, fmt_column, i.total_co2_per_hour, 2)
    emission_delay = _shared(result, fmt_column, i.emission_delay_s, 2)

    # The text of _CHUNK_INTERSECTIONS intersections at a time, so that the
    # approach columns are formatted and joined a slice at a time.
    parts = []
    lines: list[str] = ["Signalized intersection analysis", ""]
    for first in range(0, len(i.span), _CHUNK_INTERSECTIONS):
        spans = i.span[first:first + _CHUNK_INTERSECTIONS]
        offset = spans[0].start
        approach_lines = _approach_lines(result, slice(offset, spans[-1].stop))
        for k, span in enumerate(spans, first):
            lines.append(f"Intersection {i.intersection_id[k]} "
                         f"({span.stop - span.start} approaches)")
            lines.extend(approach_lines[span.start - offset:span.stop - offset])
            lines.append(f"  mean delay (all approaches): {mean_all[k]} s {grades_all[k]}")
            if mean_major[k]:
                lines.append(
                    f"  mean delay (major only):    {mean_major[k]} s {grades_major[k]}")
            lines.append(
                f"  idle emissions: {total[k]} kg CO2/h (at mean delay {emission_delay[k]} s)")
            lines.extend(map(add, repeat("  note: "), i.notes[k]))
            lines.append("")
        parts.append("\n".join(lines))
        lines = []
    lines.append(
        f"Study total: {fmt(result.study_total_co2_kg_per_hour, 2)} kg CO2/h")
    basis = "extrapolated estimate" if result.city.extrapolated else "configured rate"
    lines.append(
        f"Citywide ({basis}): {fmt(result.city.city_kg_per_hour, 2)} kg CO2/h, "
        f"{fmt(result.city.tons_per_day, 2)} t/day over {fmt_g(active_hours)} h")
    lines.append("")  # the last line's break
    parts.append("\n".join(lines))
    return "\n".join(parts)
