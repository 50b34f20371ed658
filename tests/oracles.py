"""Reference implementations kept as test oracles.

These are the straightforward per-row cycle and approach parsers (with a
per-row timing check of their own), the datetime-based time-of-day
windowing, the approach-by-approach analysis with its report records, the
all-``Decimal`` half-up rounding and the ``csv.writer`` document writer
that the optimized code in ``ingest``, ``stats``, ``pipeline`` and
``report`` replaced.  The differential tests require the optimized code to
agree with them exactly: table columns equal to the parsed records' fields
(``columns``), result columns equal to the report fields (``as_reports``),
the same errors in the same order, bit-identical window averages and
identical formatted strings.  The rounding functions quantize under the
current ``decimal`` context, whose default 28 digits overflow from about
1e28 up; the tests widen it.  ``cycles_to_csv`` writes records back in the
cycle CSV schema for the round-trip tests, and ``cycle_table`` builds a
``CycleTable`` from records.  The parsers number a row by the line its
record starts on: one past the reader's ``line_num`` after the record
before it.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import statistics
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import ROUND_HALF_UP, Decimal
from itertools import compress, filterfalse
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, TextIO

from intersection_analyzer import pipeline
from intersection_analyzer.config import COUNTS_VEHICLES, AnalysisConfig
from intersection_analyzer.delay import (
    DelayInputs,
    DelayPolicy,
    control_delay,
    intersection_delay,
)
from intersection_analyzer.emissions import (
    CityEstimate,
    EmissionReport,
    FuelType,
    co2_from_fuel,
    idle_fuel,
    scale_emissions,
)
from intersection_analyzer.errors import (
    AnalyzerError,
    InputError,
    InvariantViolation,
    SchemaViolation,
    UnknownApproach,
)
from intersection_analyzer.flow import (
    hourly_volume,
    saturation_flow_discharge,
    saturation_flow_width,
    vc_ratio,
)
from intersection_analyzer.ingest import (
    APPROACH_COLUMNS,
    CYCLE_COLUMNS,
    CYCLE_COUNT_COLUMNS,
    CYCLE_OPTIONAL,
    CYCLE_REQUIRED,
)
from intersection_analyzer.los import LosBandTable, LosResult
from intersection_analyzer.model import (
    COUNT_MAX,
    VEHICLE_CLASSES,
    ApproachConfig,
    CycleTable,
    DayFilter,
    Directionality,
    VehicleClass,
)
from intersection_analyzer.pcu import composition_shares
from intersection_analyzer.report import SCHEMA_VERSION, fmt_g
from intersection_analyzer.stats import DAY_END_S, DAY_START_S, WindowedAverage

VC_STANDARD = "vc_ratio"

_CLASS_BY_COLUMN = {cls.value: cls for cls in VehicleClass}


@dataclass(frozen=True)
class CycleRecord:
    """One parsed cycle row.  ``counts`` holds all five classes in
    ``VEHICLE_CLASSES`` order; None marks an absent optional value."""

    approach_id: str
    cycle_length: float
    red_time: float
    green_time: float
    counts: Mapping[VehicleClass, int]
    effective_green: float | None = None
    exited_pcu: float | None = None
    timestamp: float | None = None


def _nan_for_none(value: float | None) -> float:
    return math.nan if value is None else value


def _none_for_nan(value: float) -> float | None:
    return None if math.isnan(value) else value


def cycle_table(records: Iterable[CycleRecord]) -> CycleTable:
    """``records`` as a ``CycleTable``, one ``CycleTable.append`` each."""
    table = CycleTable()
    for r in records:
        table.append(r.approach_id, r.cycle_length, r.red_time, r.green_time,
                     [r.counts.get(cls, 0) for cls in VEHICLE_CLASSES],
                     *map(_nan_for_none, (r.effective_green, r.exited_pcu, r.timestamp)))
    return table


def columns(rows: CycleTable | Sequence[CycleRecord]) -> dict[str, list]:
    """The columns of a table, or those a table holding ``rows`` of records
    has, as lists with each row's approach id spelled out and None for NaN;
    a table keeps no red time."""
    if isinstance(rows, CycleTable):
        return _table_columns(rows)
    return _record_columns(rows)


def _table_columns(table: CycleTable) -> dict[str, list]:
    ids, numbers = table.approach_column()
    return {
        "approach_ids": list(ids),
        "approach_id": [ids[n] for n in numbers],
        "cycle_length": list(table.cycle_length),
        "green_time": list(table.green_time),
        "counts": list(table.counts),
        "effective_green": list(map(_none_for_nan, table.effective_green)),
        "exited_pcu": list(map(_none_for_nan, table.exited_pcu)),
        "timestamp": list(map(_none_for_nan, table.timestamp)),
    }


def _record_columns(records: Sequence[CycleRecord]) -> dict[str, list]:
    return {
        "approach_ids": list(dict.fromkeys(r.approach_id for r in records)),
        "approach_id": [r.approach_id for r in records],
        "cycle_length": [r.cycle_length for r in records],
        "green_time": [r.green_time for r in records],
        "counts": [r.counts.get(cls, 0) for r in records for cls in VEHICLE_CLASSES],
        "effective_green": [r.effective_green for r in records],
        "exited_pcu": [r.exited_pcu for r in records],
        "timestamp": [r.timestamp for r in records],
    }


def _header(row: Sequence[str], allowed: Sequence[str], required: Sequence[str]) -> list[str]:
    names = [cell.strip() for cell in row]
    unknown = [n for n in names if n not in allowed]
    if unknown:
        raise SchemaViolation(f"unknown column(s): {', '.join(unknown)}", row=1)
    seen: set[str] = set()
    for n in names:
        if n in seen:
            raise SchemaViolation(f"duplicate column {n!r}", row=1)
        seen.add(n)
    missing = [n for n in required if n not in seen]
    if missing:
        raise SchemaViolation(f"missing required column(s): {', '.join(missing)}", row=1)
    return names


def _float_cell(value: str, column: str, row: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise SchemaViolation(f"column {column!r}: not a number: {value!r}", row=row) from None
    if not math.isfinite(number):
        raise SchemaViolation(f"column {column!r}: non-finite value {value!r}", row=row)
    return number


def _int_cell(value: str, column: str, row: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise SchemaViolation(f"column {column!r}: not an integer: {value!r}", row=row) from None
    if n < 0:
        raise SchemaViolation(f"column {column!r}: negative count {n}", row=row)
    if n > COUNT_MAX:
        raise SchemaViolation(f"column {column!r}: count exceeds {COUNT_MAX}: {n}", row=row)
    return n


def _unsplittable(err: csv.Error, line: int) -> SchemaViolation:
    """A row the csv module cannot split, such as one with a field over its
    size limit or a bare carriage return inside an unquoted field."""
    return SchemaViolation(f"unreadable CSV row: {err}", row=line)


def ingest_approaches(source: TextIO | Iterable[str]) -> dict[str, ApproachConfig]:
    reader = csv.reader(source)
    try:
        first = next(reader)
    except StopIteration:
        raise SchemaViolation("approach file is empty", row=1) from None
    except csv.Error as err:
        raise _unsplittable(err, 1) from None
    names = _header(first, APPROACH_COLUMNS, APPROACH_COLUMNS)

    configs: dict[str, ApproachConfig] = {}
    start = reader.line_num + 1  # the line the next record starts on
    try:
        for row in reader:
            line, start = start, reader.line_num + 1
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(names):
                raise SchemaViolation(f"expected {len(names)} fields, got {len(row)}", row=line)
            cells = {name: cell.strip() for name, cell in zip(names, row)}
            approach_id = cells["approach_id"]
            if not approach_id:
                raise SchemaViolation("empty approach_id", row=line)
            if not cells["intersection_id"]:
                raise SchemaViolation("empty intersection_id", row=line)
            if approach_id in configs:
                raise SchemaViolation(f"duplicate approach {approach_id!r}", row=line)
            try:
                directionality = Directionality(cells["directionality"])
            except ValueError:
                raise SchemaViolation(
                    f"directionality must be 'oneway' or 'twoway', got {cells['directionality']!r}",
                    row=line) from None
            try:
                lanes = int(cells["lanes"])
            except ValueError:
                raise SchemaViolation(
                    f"lanes: not an integer: {cells['lanes']!r}", row=line) from None
            width = _float_cell(cells["width_m"], "width_m", line)
            flags = {}
            for column in ("free_left", "is_major"):
                if cells[column] not in ("0", "1"):
                    raise SchemaViolation(f"column {column!r} must be 0 or 1", row=line)
                flags[column] = cells[column] == "1"
            try:
                configs[approach_id] = ApproachConfig(
                    approach_id=approach_id,
                    intersection_id=cells["intersection_id"],
                    lane_count=lanes,
                    directionality=directionality,
                    width=width,
                    free_left=flags["free_left"],
                    is_major=flags["is_major"],
                )
            except AnalyzerError as err:
                err.row = line
                raise
    except csv.Error as err:
        raise _unsplittable(err, start) from None
    return configs


def scan_cycles(
    source: Iterable[str],
    configs: Mapping[str, ApproachConfig] | None = None,
) -> tuple[list[CycleRecord], list[InputError]]:
    reader = csv.reader(source)
    records: list[CycleRecord] = []
    errors: list[InputError] = []

    try:
        first = next(reader)
    except StopIteration:
        return [], []
    try:
        names = _header(first, CYCLE_COLUMNS, CYCLE_REQUIRED)
    except SchemaViolation as err:
        return [], [err]

    start = reader.line_num + 1  # the line the next record starts on
    for row in reader:
        line, start = start, reader.line_num + 1
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            records.append(_parse_cycle_row(names, row, line, configs))
        except InputError as err:
            if err.row is None:
                err.row = line
            errors.append(err)
    return records, errors


def _parse_cycle_row(
    names: Sequence[str],
    row: Sequence[str],
    line: int,
    configs: Mapping[str, ApproachConfig] | None,
) -> CycleRecord:
    if len(row) != len(names):
        raise SchemaViolation(
            f"expected {len(names)} fields, got {len(row)}", row=line)
    cells = {name: cell.strip() for name, cell in zip(names, row)}

    approach_id = cells.get("approach_id", "")
    if not approach_id:
        raise SchemaViolation("empty approach_id", row=line)
    if configs is not None and approach_id not in configs:
        raise UnknownApproach(f"approach {approach_id!r} has no configuration", row=line)

    cycle = _float_cell(cells["cycle_length_s"], "cycle_length_s", line)
    red = _float_cell(cells["red_s"], "red_s", line)
    green = _float_cell(cells["green_s"], "green_s", line)

    counts: dict[VehicleClass, int] = {}
    for column, cls in _CLASS_BY_COLUMN.items():
        raw = cells.get(column, "")
        counts[cls] = _int_cell(raw, column, line) if raw else 0

    def optional_float(column: str) -> float | None:
        raw = cells.get(column, "")
        return _float_cell(raw, column, line) if raw else None

    effective_green = optional_float("effective_green_s")
    exited_pcu = optional_float("exited_pcu")
    timestamp = optional_float("timestamp")

    try:
        _check_cycle(cycle, red, green, effective_green, exited_pcu)
    except InputError as err:
        err.row = line
        raise
    return CycleRecord(approach_id, cycle, red, green, counts, effective_green, exited_pcu,
                       timestamp)


def _check_cycle(
    cycle_length: float,
    red_time: float,
    green_time: float,
    effective_green: float | None,
    exited_pcu: float | None,
) -> None:
    """Raise ``InvariantViolation`` unless one cycle's timing is consistent:
    the row-at-a-time checks that ``model.timing_faults`` makes on columns."""
    if cycle_length <= 0:
        raise InvariantViolation(f"cycle_length must be > 0, got {cycle_length}")
    if red_time < 0 or green_time < 0:
        raise InvariantViolation("red_time and green_time must be >= 0")
    if red_time + green_time > cycle_length + 1e-9:
        raise InvariantViolation(
            f"red + green = {red_time + green_time} exceeds cycle length {cycle_length}")
    if effective_green is not None:
        if effective_green < 0:
            raise InvariantViolation("effective_green must be >= 0")
        if effective_green > green_time + 1e-9:
            raise InvariantViolation(
                f"effective_green = {effective_green} exceeds green_time = {green_time}")
    if exited_pcu is not None and exited_pcu < 0:
        raise InvariantViolation("exited_pcu must be >= 0")


def weekday(timestamp: float) -> int:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).weekday()


def seconds_since_midnight(timestamp: float) -> float:
    dt = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return dt.hour * 3600 + dt.minute * 60 + dt.second + dt.microsecond / 1e6


def _matches_day(timestamp: float, day_filter: DayFilter) -> bool:
    if day_filter is DayFilter.ALL:
        return True
    day = weekday(timestamp)
    if day_filter is DayFilter.WEEKDAY:
        return day < 5
    if day_filter is DayFilter.SATURDAY:
        return day == 5
    return day == 6


def window_cycle_lengths(
    records: Sequence[CycleRecord],
    window: float = 1800.0,
    day_filter: DayFilter = DayFilter.ALL,
) -> list[WindowedAverage]:
    """The windowing loop as it was, minus the argument checks, with each
    window's cycle lengths added by ``math.fsum``."""
    if not records:
        return []
    kept = [r for r in records if _matches_day(r.timestamp, day_filter)]
    if not kept:
        return []

    starts: list[float] = []
    start = float(DAY_START_S)
    while start < DAY_END_S:
        starts.append(start)
        start += window

    lengths: list[list[float]] = [[] for _ in starts]
    for record in kept:
        tod = seconds_since_midnight(record.timestamp)
        if tod < DAY_START_S:
            continue
        index = int((tod - DAY_START_S) // window)
        if index >= len(starts):
            continue
        lengths[index].append(record.cycle_length)
    sums = [math.fsum(values) for values in lengths]
    counts = [len(values) for values in lengths]

    return [
        WindowedAverage(
            window_start=starts[i],
            window_length=window,
            mean_cycle_length=(sums[i] / counts[i]) if counts[i] else None,
            sample_count=counts[i],
        )
        for i in range(len(starts))
    ]


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def cycles_to_csv(records: Iterable[CycleRecord]) -> str:
    """Serialize records to the cycle CSV schema; re-ingesting yields equal records."""
    records = list(records)
    with_optional = {
        "effective_green_s": any(r.effective_green is not None for r in records),
        "exited_pcu": any(r.exited_pcu is not None for r in records),
        "timestamp": any(r.timestamp is not None for r in records),
    }
    columns = list(CYCLE_REQUIRED + CYCLE_COUNT_COLUMNS)
    columns += [name for name in CYCLE_OPTIONAL if with_optional[name]]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for r in records:
        cells: list[str] = [
            r.approach_id,
            _format_number(r.cycle_length),
            _format_number(r.red_time),
            _format_number(r.green_time),
        ]
        cells += [str(r.counts[cls]) for cls in VehicleClass]
        optional_values = {
            "effective_green_s": r.effective_green,
            "exited_pcu": r.exited_pcu,
            "timestamp": r.timestamp,
        }
        for name in CYCLE_OPTIONAL:
            if with_optional[name]:
                value = optional_values[name]
                cells.append("" if value is None else _format_number(value))
        writer.writerow(cells)
    return buffer.getvalue()


@functools.cache
def _quantum(places: int) -> Decimal:
    return Decimal(1).scaleb(-places)


def _rounded(value: float, places: int) -> Decimal:
    return Decimal(repr(float(value))).quantize(_quantum(places), rounding=ROUND_HALF_UP)


def round_half_up(value: float, places: int = 0) -> float:
    return float(_rounded(value, places))


def fmt_int(value: float) -> str:
    return str(int(round_half_up(value, 0)))


def fmt(value: float, places: int) -> str:
    # Formatting the Decimal itself prints no binary digits past the rounding
    # point, which a float of 1e13 or more would.
    return f"{_rounded(value, places):.{places}f}"


# --- The approach-by-approach analysis and its artifacts ---------------------
#
# ``analyze_records`` (with its result types and helpers) and the artifact
# builders as they were before the analysis worked a column at a time,
# verbatim but for five things: band tables grade through ``classify``
# below, the banding loop ``LosBandTable.classify`` used to run; figures
# round through this module's all-``Decimal`` ``fmt``, ``fmt_int`` and
# ``round_half_up``; every float total is a ``math.fsum``; vehicles-mode
# PCU is linear, each class total times its factor; and every import is at
# the top of the module.


def classify(table: LosBandTable, value: float) -> LosResult:
    if not value >= 0:
        raise InputError(f"classified value must be >= 0, got {value}")
    for upper, grade in table.bands:
        if upper is None:
            return LosResult(grade, table.standard)
        if (value <= upper) if table.upper_inclusive else (value < upper):
            return LosResult(grade, table.standard)
    raise AssertionError("unreachable: final band is open-ended")


def replace(record, **changes):
    """A copy of a frozen record with ``changes`` to its fields, built anew
    through its class (so its checks run again), as ``dataclasses.replace``
    does for a dataclass."""
    fields = {name: getattr(record, name) for name in record.__match_args__}
    return type(record)(**(fields | changes))


def green_shares(mean_greens: Mapping[str, float]) -> dict[str, float]:
    """Each approach's share of the intersection's summed mean greens."""
    if not mean_greens:
        raise InputError("no approaches with records")
    ordered = {approach_id: mean_greens[approach_id] for approach_id in sorted(mean_greens)}
    total = math.fsum(ordered.values())
    if total <= 0:
        raise InputError("total green time across the intersection is zero")
    return {approach_id: mean / total for approach_id, mean in ordered.items()}


@dataclass(frozen=True)
class FlowReport:
    """Volume, capacity and saturation-flow figures for one approach."""

    approach_id: str
    hourly_volume: float
    capacity: float
    vc_ratio: float
    sf_width: float
    sf_discharge: float | None = None

    @property
    def sf_difference(self) -> float | None:
        """Discharge-model minus width-model saturation flow."""
        return None if self.sf_discharge is None else self.sf_discharge - self.sf_width


@dataclass(frozen=True)
class GreenReport:
    """Green-time allocation and utilization figures for one approach."""

    approach_id: str
    pcu_per_cycle: float
    green_share: float | None = None
    green_to_pcu_ratio: float | None = None
    wastage: float | None = None


@dataclass(frozen=True)
class ApproachReport:
    """Computed bundle for one approach."""

    approach_id: str
    intersection_id: str
    lane_count: int
    directionality: str
    width: float
    mean_cycle_length: float
    mean_green: float
    mean_effective_green: float | None
    mean_exited_pcu: float | None
    composition: Mapping[VehicleClass, float]
    flow: FlowReport
    green: GreenReport
    platoon_ratio: float
    delay_s: float
    delay_clamped: bool
    los: Mapping[str, LosResult]


@dataclass(frozen=True)
class IntersectionReport:
    intersection_id: str
    approach_ids: tuple[str, ...]
    major_approach_ids: tuple[str, ...]
    mean_delay_all: float
    mean_delay_major: float | None
    los_all: Mapping[str, LosResult]
    los_major: Mapping[str, LosResult] | None
    emissions: EmissionReport
    emission_delay_s: float
    notes: tuple[str, ...]


@dataclass(frozen=True)
class AnalysisResult:
    approaches: tuple[ApproachReport, ...]
    intersections: tuple[IntersectionReport, ...]
    study_total_co2_kg_per_hour: float
    city: CityEstimate


def _approach_entry(result: pipeline.AnalysisResult, k: int) -> ApproachReport:
    """Entry ``k`` of ``result.by_approach`` as an oracle report."""
    a, standards = result.by_approach, result.los_standards
    return ApproachReport(
        a.approach_id[k], a.intersection_id[k], a.lane_count[k], a.directionality[k],
        a.width[k], a.mean_cycle_length[k], a.mean_green[k],
        _none_for_nan(a.mean_effective_green[k]), _none_for_nan(a.mean_exited_pcu[k]),
        {cls: shares[k] for cls, shares in a.composition.items()},
        FlowReport(a.approach_id[k], a.hourly_volume[k], a.capacity[k], a.vc_ratio[k],
                   a.sf_width[k], _none_for_nan(a.sf_discharge[k])),
        GreenReport(a.approach_id[k], a.pcu_per_cycle[k], a.green_share[k],
                    _none_for_nan(a.green_to_pcu_ratio[k]), _none_for_nan(a.wastage[k])),
        a.platoon_ratio[k], a.delay_s[k], a.delay_clamped[k],
        {name: LosResult(grades[k], standards[name]) for name, grades in a.los.items()},
    )


def _intersection_entry(result: pipeline.AnalysisResult, j: int) -> IntersectionReport:
    """Entry ``j`` of ``result.by_intersection`` as an oracle report."""
    i, a, standards = result.by_intersection, result.by_approach, result.los_standards
    span, major = i.span[j], _none_for_nan(i.mean_delay_major[j])
    return IntersectionReport(
        i.intersection_id[j], tuple(a.approach_id[span]),
        tuple(compress(a.approach_id[span], a.is_major[span])),
        i.mean_delay_all[j], major,
        {name: LosResult(grades[j], standards[name]) for name, grades in i.los_all.items()},
        None if major is None else {
            name: LosResult(grades[j], standards[name]) for name, grades in i.los_major.items()},
        EmissionReport(
            fuel_per_hour=MappingProxyType({f: c[j] for f, c in i.fuel_per_hour.items()}),
            co2_per_hour=MappingProxyType({f: c[j] for f, c in i.co2_per_hour.items()}),
            total_co2_per_hour=i.total_co2_per_hour[j]),
        i.emission_delay_s[j], i.notes[j],
    )


def as_reports(result: pipeline.AnalysisResult) -> AnalysisResult:
    """A package ``AnalysisResult``'s columns as the oracle's reports, each
    field read from its column entry, NaN as None."""
    return AnalysisResult(
        tuple(_approach_entry(result, k) for k in range(len(result.by_approach.approach_id))),
        tuple(_intersection_entry(result, j)
              for j in range(len(result.by_intersection.intersection_id))),
        result.study_total_co2_kg_per_hour, result.city)


@dataclass(frozen=True)
class _ApproachFold:
    """What one pass over an approach's rows collects, in file order.

    ``totals`` sums each class over all rows and ``record_totals`` holds
    each row's vehicle total.  Both are exact integer sums.
    """

    cycles: Sequence[float]
    greens: Sequence[float]
    effective_greens: list[float]
    exited: list[float]
    totals: dict[VehicleClass, int]
    record_totals: list[int]

    def hourly_class_counts(self) -> dict[VehicleClass, float]:
        cycle_time = math.fsum(self.cycles)
        return {cls: n * 3600.0 / cycle_time for cls, n in self.totals.items()}


def _taker(rows: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """A function returning the given rows of a column, in order."""
    if len(rows) == 1:
        row = rows[0]
        return lambda column: (column[row],)
    return itemgetter(*rows)


def _fold_approach(
    table: CycleTable,
    class_columns: Sequence[Sequence[int]],
    rows: Sequence[int],
) -> _ApproachFold:
    take = _taker(rows)
    class_counts = [take(column) for column in class_columns]
    return _ApproachFold(
        cycles=take(table.cycle_length),
        greens=take(table.green_time),
        effective_greens=list(filterfalse(math.isnan, take(table.effective_green))),
        exited=list(filterfalse(math.isnan, take(table.exited_pcu))),
        totals=dict(zip(VEHICLE_CLASSES, map(sum, class_counts))),
        record_totals=list(map(sum, zip(*class_counts))),
    )


def _row_numbers_by_approach(table: CycleTable) -> dict[str, list[int]]:
    """Each approach id with its row numbers in file order, approaches in the
    order they first appear: one row at a time."""
    ids, numbers = table.approach_column()
    rows: dict[str, list[int]] = {}
    for row, number in enumerate(numbers):
        rows.setdefault(ids[number], []).append(row)
    return rows


def _fmean_or_none(values: Sequence[float]) -> float | None:
    return statistics.fmean(values) if values else None


def analyze_records(
    cycle_table: CycleTable,
    approaches: Mapping[str, ApproachConfig],
    config: AnalysisConfig,
    emission_policy: DelayPolicy = DelayPolicy.ALL_APPROACHES,
) -> AnalysisResult:
    """Run the full pipeline over a validated cycle table."""
    if not len(cycle_table):
        raise InputError("no cycle records to analyze")

    by_approach = _row_numbers_by_approach(cycle_table)
    for approach_id in by_approach:
        if approach_id not in approaches:
            raise UnknownApproach(f"approach {approach_id!r} has no configuration")
    class_columns = list(cycle_table.class_columns())

    by_intersection: dict[str, list[str]] = {}
    for approach_id in sorted(by_approach):
        intersection_id = approaches[approach_id].intersection_id
        by_intersection.setdefault(intersection_id, []).append(approach_id)

    approach_reports: list[ApproachReport] = []
    intersection_reports: list[IntersectionReport] = []

    for intersection_id in sorted(by_intersection):
        approach_ids = by_intersection[intersection_id]
        folds = {
            a: _fold_approach(cycle_table, class_columns, by_approach[a])
            for a in approach_ids
        }

        # Each class's PCU factor, in VEHICLE_CLASSES order, from the
        # intersection's composition: an approach's PCU is the exact sum of
        # its class totals times these factors.
        factors: tuple[float, ...] = ()
        if config.counts_unit == COUNTS_VEHICLES:
            shares = composition_shares(f.totals for f in folds.values())
            factors = tuple(
                config.pcu_factors.factor_for(cls, shares[cls]) for cls in VEHICLE_CLASSES)

        mean_greens = {a: statistics.fmean(f.greens) for a, f in folds.items()}
        shares_by_approach = green_shares(mean_greens)

        local_reports: list[ApproachReport] = []
        for approach_id in approach_ids:
            geometry = approaches[approach_id]
            fold = folds[approach_id]
            mean_cycle = statistics.fmean(fold.cycles)
            mean_green = mean_greens[approach_id]
            mean_ge = _fmean_or_none(fold.effective_greens)
            mean_n = _fmean_or_none(fold.exited)

            if sum(fold.record_totals) > 0:
                composition = composition_shares([fold.totals])
            else:
                composition = {cls: 0.0 for cls in VEHICLE_CLASSES}

            if config.counts_unit == COUNTS_VEHICLES:
                class_totals = (fold.totals[cls] for cls in VEHICLE_CLASSES)
                pcu_per_cycle = math.fsum(map(mul, class_totals, factors)) / len(fold.cycles)
            else:
                pcu_per_cycle = statistics.fmean(fold.record_totals)
            volume = hourly_volume(pcu_per_cycle, mean_cycle)
            capacity = config.capacity_table.capacity_for(geometry)
            x = vc_ratio(volume, geometry, config.capacity_table)

            sf_width = saturation_flow_width(geometry.width)
            sf_discharge = None
            if mean_ge is not None and mean_n is not None and mean_ge > 0:
                sf_discharge = saturation_flow_discharge(mean_n, mean_ge)

            ratio = mean_green / pcu_per_cycle if pcu_per_cycle > 0 else None
            wastage = None
            if mean_ge is not None and mean_green > 0:
                wastage = (mean_green - mean_ge) / mean_green

            r_p = config.platoon_ratios.get(approach_id, config.default_platoon_ratio)
            estimate = control_delay(
                DelayInputs(mean_cycle, mean_green, x, platoon_ratio=r_p))

            # Grade at report precision so the emitted 2-decimal V/C and its
            # grade can never disagree.
            los: dict[str, LosResult] = {}
            for name, table in config.los_tables.items():
                value = round_half_up(x, 2) if name == VC_STANDARD else estimate.seconds
                los[name] = classify(table, value)

            local_reports.append(ApproachReport(
                approach_id=approach_id,
                intersection_id=intersection_id,
                lane_count=geometry.lane_count,
                directionality=geometry.directionality.value,
                width=geometry.width,
                mean_cycle_length=mean_cycle,
                mean_green=mean_green,
                mean_effective_green=mean_ge,
                mean_exited_pcu=mean_n,
                composition=composition,
                flow=FlowReport(
                    approach_id=approach_id,
                    hourly_volume=volume,
                    capacity=capacity,
                    vc_ratio=x,
                    sf_width=sf_width,
                    sf_discharge=sf_discharge,
                ),
                green=GreenReport(
                    approach_id=approach_id,
                    pcu_per_cycle=pcu_per_cycle,
                    green_share=shares_by_approach[approach_id],
                    green_to_pcu_ratio=ratio,
                    wastage=wastage,
                ),
                platoon_ratio=r_p,
                delay_s=estimate.seconds,
                delay_clamped=estimate.clamped,
                los=los,
            ))

        approach_reports.extend(local_reports)
        intersection_reports.append(_intersection_report(
            intersection_id, local_reports, folds, approaches, config,
            emission_policy))

    totals = [r.emissions.total_co2_per_hour for r in intersection_reports]
    city = scale_emissions(
        totals,
        config.city.intersection_count,
        config.city.active_hours_per_day,
        config.city.co2_kg_per_hour,
    )
    return AnalysisResult(
        approaches=tuple(approach_reports),
        intersections=tuple(intersection_reports),
        study_total_co2_kg_per_hour=math.fsum(totals),
        city=city,
    )


def _intersection_report(
    intersection_id: str,
    local_reports: Sequence[ApproachReport],
    folds: Mapping[str, _ApproachFold],
    approaches: Mapping[str, ApproachConfig],
    config: AnalysisConfig,
    emission_policy: DelayPolicy,
) -> IntersectionReport:
    delays = {r.approach_id: r.delay_s for r in local_reports}
    major_ids = tuple(
        r.approach_id for r in local_reports if approaches[r.approach_id].is_major)
    mean_all = intersection_delay(delays, DelayPolicy.ALL_APPROACHES, approaches)
    mean_major = None
    if major_ids:
        mean_major = intersection_delay(delays, DelayPolicy.MAJOR_ONLY, approaches)

    delay_tables = {
        name: table for name, table in config.los_tables.items()
        if name != VC_STANDARD
    }
    los_all = {name: classify(table, mean_all) for name, table in delay_tables.items()}
    los_major = None
    if mean_major is not None:
        los_major = {name: classify(table, mean_major) for name, table in delay_tables.items()}

    notes = list(_intersection_notes(local_reports, mean_all, mean_major))

    if emission_policy is DelayPolicy.MAJOR_ONLY and mean_major is None:
        raise InputError(
            f"intersection {intersection_id!r} has no major approaches for "
            f"the requested emission delay policy")
    emission_delay = mean_major if emission_policy is DelayPolicy.MAJOR_ONLY else mean_all

    hourly = [folds[approach_id].hourly_class_counts() for approach_id in sorted(folds)]
    hourly_counts = {cls: math.fsum(counts[cls] for counts in hourly) for cls in VEHICLE_CLASSES}

    fuel = idle_fuel(hourly_counts, emission_delay, config.idle_rates)
    emissions = co2_from_fuel(fuel, config.emission_factors)

    return IntersectionReport(
        intersection_id=intersection_id,
        approach_ids=tuple(r.approach_id for r in local_reports),
        major_approach_ids=major_ids,
        mean_delay_all=mean_all,
        mean_delay_major=mean_major,
        los_all=los_all,
        los_major=los_major,
        emissions=emissions,
        emission_delay_s=emission_delay,
        notes=tuple(notes),
    )


def _intersection_notes(
    local_reports: Sequence[ApproachReport],
    mean_all: float,
    mean_major: float | None,
) -> list[str]:
    notes: list[str] = []
    vc_grades = {
        r.approach_id: r.los[VC_STANDARD].grade
        for r in local_reports if VC_STANDARD in r.los
    }
    if vc_grades:
        listing = ", ".join(f"{a}={g}" for a, g in sorted(vc_grades.items()))
        notes.append(
            f"per-approach V/C grades: {listing}; no intersection-level V/C "
            f"grade is computed (no aggregation rule is defined)")
        if len(set(vc_grades.values())) > 1:
            grades = sorted(set(vc_grades.values()))
            notes.append(
                f"V/C grades differ across approaches ({grades[0]} to {grades[-1]}); "
                f"any single intersection-level V/C grade would be a judgement call")
    if mean_major is not None and abs(mean_major - mean_all) > 0.005:
        notes.append(
            f"mean delay depends on the aggregation policy: "
            f"all-approach {mean_all:.2f} s vs major-only {mean_major:.2f} s")
    return notes


def fmt_opt(value: float | None, places: int) -> str:
    return "" if value is None else fmt(value, places)


def fmt_opt_int(value: float | None) -> str:
    return "" if value is None else fmt_int(value)


def fmt_g(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


def _csv_doc(name: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Rows as ``csv.writer`` writes them, each ended by a line feed.  A row
    is written with a CR LF terminator, which makes every Python quote a
    cell that holds a carriage return, and the terminator is then swapped."""
    lines = [f"# schema: intersection-analyzer/{name} v{SCHEMA_VERSION}\n"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    for row in [header, *rows]:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")
    return "".join(lines)


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
