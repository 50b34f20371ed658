"""Reference implementations kept as test oracles.

These are the straightforward per-row cycle parser, the datetime-based
time-of-day windowing and the all-``Decimal`` half-up rounding that the
optimized code in ``ingest``, ``stats`` and ``report`` replaced.  The
differential tests require the optimized code to agree with them exactly:
equal records, the same errors in the same order, bit-identical window
averages and identical formatted strings.  The rounding functions quantize
under the current ``decimal`` context, whose default 28 digits overflow from
about 1e28 up; the tests widen it.  ``cycles_to_csv`` writes records back in the
cycle CSV schema for the round-trip tests.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from datetime import datetime, timezone
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Mapping, Sequence

from intersection_analyzer.errors import InputError, SchemaViolation, UnknownApproach
from intersection_analyzer.ingest import (
    CYCLE_COLUMNS,
    CYCLE_COUNT_COLUMNS,
    CYCLE_OPTIONAL,
    CYCLE_REQUIRED,
)
from intersection_analyzer.model import (
    ApproachConfig,
    ClassifiedCount,
    DayFilter,
    SignalCycleRecord,
    VehicleClass,
)
from intersection_analyzer.stats import DAY_END_S, DAY_START_S, WindowedAverage

_CLASS_BY_COLUMN = {cls.value: cls for cls in VehicleClass}


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
    return n


def scan_cycles(
    source: Iterable[str],
    configs: Mapping[str, ApproachConfig] | None = None,
) -> tuple[list[SignalCycleRecord], list[InputError]]:
    reader = csv.reader(source)
    records: list[SignalCycleRecord] = []
    errors: list[InputError] = []

    try:
        first = next(reader)
    except StopIteration:
        return [], []
    try:
        names = _header(first, CYCLE_COLUMNS, CYCLE_REQUIRED)
    except SchemaViolation as err:
        return [], [err]

    for line, row in enumerate(reader, start=2):
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
) -> SignalCycleRecord:
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
        classified = ClassifiedCount(approach_id, counts, timestamp)
        return SignalCycleRecord(
            approach_id=approach_id,
            cycle_length=cycle,
            red_time=red,
            green_time=green,
            counts=classified,
            effective_green=effective_green,
            exited_pcu=exited_pcu,
        )
    except InputError as err:
        err.row = line
        raise


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
    records: Sequence[SignalCycleRecord],
    window: float = 1800.0,
    day_filter: DayFilter = DayFilter.ALL,
) -> list[WindowedAverage]:
    """The windowing loop as it was, minus the argument checks."""
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

    sums = [0.0] * len(starts)
    counts = [0] * len(starts)
    for record in kept:
        tod = seconds_since_midnight(record.timestamp)
        if tod < DAY_START_S:
            continue
        index = int((tod - DAY_START_S) // window)
        if index >= len(starts):
            continue
        sums[index] += record.cycle_length
        counts[index] += 1

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


def cycles_to_csv(records: Iterable[SignalCycleRecord]) -> str:
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
        cells += [str(r.counts.counts[cls]) for cls in VehicleClass]
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
