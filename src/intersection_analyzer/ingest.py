"""CSV ingestion and validation of cycle and approach records.

Row numbers in errors are file line numbers (header = line 1).  Missing
count columns read as zero; a negative count is a schema violation, not an
invariant violation, so it is caught before a row is stored.
"""

from __future__ import annotations

import csv
import math
import re
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

from .errors import AnalyzerError, InputError, SchemaViolation, UnknownApproach
from .model import (
    COUNT_MAX,
    VEHICLE_CLASSES,
    ApproachConfig,
    CycleTable,
    Directionality,
    VehicleClass,
)

CYCLE_REQUIRED = ("approach_id", "cycle_length_s", "red_s", "green_s")
CYCLE_COUNT_COLUMNS = tuple(cls.value for cls in VehicleClass)
CYCLE_OPTIONAL = ("effective_green_s", "exited_pcu", "timestamp")
CYCLE_COLUMNS = CYCLE_REQUIRED + CYCLE_COUNT_COLUMNS + CYCLE_OPTIONAL

# A line that csv's default dialect ends inside a quoted field: whole fields,
# then an opening quote that no single quote closes ("" is a literal quote).
_ENDS_QUOTED = re.compile(
    r'(?:(?:"[^"]*(?:""[^"]*)*"(?!")[^,]*|[^",][^,]*)?,)*"[^"]*(?:""[^"]*)*')

APPROACH_COLUMNS = (
    "approach_id", "intersection_id", "lanes", "directionality",
    "width_m", "free_left", "is_major",
)


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


def _unsplittable(err: csv.Error, line: int) -> SchemaViolation:
    """A row the csv module cannot split, such as one with a field over its
    size limit or a bare carriage return inside an unquoted field."""
    return SchemaViolation(f"unreadable CSV row: {err}", row=line)


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


def scan_cycles(
    source: TextIO | Iterable[str],
    configs: Mapping[str, ApproachConfig] | None = None,
) -> tuple[CycleTable, list[InputError]]:
    """Parse a cycle CSV stream, collecting every row-level problem.

    Returns the rows that parsed cleanly, as one ``CycleTable``, and the
    full list of errors.  With ``configs`` given, approach ids must
    resolve; without, that check is skipped.
    """
    quoted = False  # whether the lines fed to the reader end inside a quoted field

    def feed() -> Iterator[str]:
        nonlocal quoted
        for text in source:
            if '"' in text or quoted:
                quoted = bool(_ENDS_QUOTED.fullmatch('"' + text if quoted else text))
            yield text

    lines = feed()
    reader = csv.reader(lines)
    table = CycleTable()
    errors: list[InputError] = []

    try:
        first = next(reader)
    except StopIteration:
        return table, []
    except csv.Error as err:
        return table, [_unsplittable(err, 1)]
    try:
        names = _header(first, CYCLE_COLUMNS, CYCLE_REQUIRED)
    except SchemaViolation as err:
        return table, [err]

    parse = _cycle_row_parser(names, configs, table)
    line = 1
    skipped = 0
    while True:
        # The reader goes on with the next row after a csv.Error; resuming the
        # loop here keeps the per-row path free of any wrapper.
        try:
            for line, row in enumerate(reader, start=line + 1):
                # A row with a non-blank first cell is never blank.
                if not row or (not row[0].strip() and all(not cell.strip() for cell in row)):
                    continue
                try:
                    parse(row, line)
                except InputError as err:
                    if err.row is None:
                        err.row = line
                    errors.append(err)
            return table, errors
        except csv.Error as err:
            line += 1
            errors.append(_unsplittable(err, line))
            # Skip the rest of a quoted field the error left open: no line
            # inside it becomes a row, and later rows keep their line numbers.
            while quoted and next(lines, None) is not None:
                skipped += 1
            line = reader.line_num + skipped


def _cycle_row_parser(
    names: Sequence[str],
    configs: Mapping[str, ApproachConfig] | None,
    table: CycleTable,
) -> Callable[[Sequence[str], int], None]:
    """Resolve a validated cycle header into one row parser that appends
    each row passing every check to ``table``.

    Cells are checked in a fixed order, so a row with several problems
    always reports the same one: field count, approach id, cycle, red and
    green, the counts in ``VEHICLE_CLASSES`` order, the optional columns in
    ``CYCLE_OPTIONAL`` order, then the record invariants (``check_cycle``,
    run by ``CycleTable.append`` before it adds anything).

    ``float`` and ``int`` ignore surrounding whitespace exactly as
    ``str.strip`` does, so a cell is converted unstripped; only a cell that
    fails is stripped and handed to ``_float_cell``/``_int_cell``, which
    raise the error.
    """
    width = len(names)
    index = {name: i for i, name in enumerate(names)}
    id_at = index["approach_id"]
    timing_cells = tuple((name, index[name]) for name in CYCLE_REQUIRED[1:])
    count_cells = tuple(
        (slot, cls.value, index[cls.value])
        for slot, cls in enumerate(VEHICLE_CLASSES) if cls.value in index)
    optional_cells = tuple(
        (slot, name, index[name]) for slot, name in enumerate(CYCLE_OPTIONAL) if name in index)
    append = table.append
    classes = len(VEHICLE_CLASSES)
    isfinite = math.isfinite
    nan = math.nan

    def parse(row: Sequence[str], line: int) -> None:
        if len(row) != width:
            raise SchemaViolation(f"expected {width} fields, got {len(row)}", row=line)
        approach_id = row[id_at].strip()
        if not approach_id:
            raise SchemaViolation("empty approach_id", row=line)
        if configs is not None and approach_id not in configs:
            raise UnknownApproach(f"approach {approach_id!r} has no configuration", row=line)

        timing = []
        for column, at in timing_cells:
            raw = row[at]
            try:
                value = float(raw)
            except ValueError:
                value = nan
            if not isfinite(value):
                value = _float_cell(raw.strip(), column, line)
            timing.append(value)
        cycle, red, green = timing

        counts = [0] * classes
        for slot, column, at in count_cells:
            raw = row[at]
            try:
                n = int(raw)
            except ValueError:
                raw = raw.strip()
                if not raw:
                    continue
                n = -1
            if not 0 <= n <= COUNT_MAX:
                n = _int_cell(raw.strip(), column, line)
            counts[slot] = n

        optional = [nan] * len(CYCLE_OPTIONAL)
        for slot, column, at in optional_cells:
            raw = row[at]
            try:
                value = float(raw)
            except ValueError:
                raw = raw.strip()
                if not raw:
                    continue
                value = nan
            if not isfinite(value):
                value = _float_cell(raw.strip(), column, line)
            optional[slot] = value

        try:
            append(approach_id, cycle, red, green, counts, *optional)
        except InputError as err:
            err.row = line
            raise

    return parse


def ingest_cycles(
    source: TextIO | Iterable[str],
    configs: Mapping[str, ApproachConfig] | None = None,
) -> CycleTable:
    """Parse and validate a cycle CSV stream, failing on the first bad row.

    Without ``configs``, approach ids are not resolved (as in ``scan_cycles``).
    """
    table, errors = scan_cycles(source, configs)
    if errors:
        raise errors[0]
    return table


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
    line = 1
    try:
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(names):
                raise SchemaViolation(f"expected {len(names)} fields, got {len(row)}", row=line)
            cells = {name: cell.strip() for name, cell in zip(names, row)}
            approach_id = cells["approach_id"]
            if not approach_id:
                raise SchemaViolation("empty approach_id", row=line)
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
        raise _unsplittable(err, line + 1) from None
    return configs
