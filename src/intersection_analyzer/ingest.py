"""CSV ingestion and validation of cycle and approach records.

Row numbers in errors are file line numbers (header = line 1).  Missing
count columns read as zero; a negative count is a schema violation, not an
invariant violation, so it is caught before a row is stored.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import re
from array import array
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

from .errors import (
    AnalyzerError,
    InputError,
    InvariantViolation,
    SchemaViolation,
    UnknownApproach,
)
from .model import (
    COUNT_MAX,
    VEHICLE_CLASSES,
    ApproachConfig,
    CycleTable,
    Directionality,
    VehicleClass,
    check_cycle,
    failing_cycles,
)

CYCLE_REQUIRED = ("approach_id", "cycle_length_s", "red_s", "green_s")
CYCLE_COUNT_COLUMNS = tuple(cls.value for cls in VehicleClass)
CYCLE_OPTIONAL = ("effective_green_s", "exited_pcu", "timestamp")
CYCLE_COLUMNS = CYCLE_REQUIRED + CYCLE_COUNT_COLUMNS + CYCLE_OPTIONAL

# A line that csv's default dialect ends inside a quoted field: whole fields,
# then an opening quote that no single quote closes ("" is a literal quote).
_ENDS_QUOTED = re.compile(
    r'(?:(?:"[^"]*(?:""[^"]*)*"(?!")[^,]*|[^",][^,]*)?,)*"[^"]*(?:""[^"]*)*')

# Rows parsed per batch: enough to spread each batch's fixed cost over many
# rows, few enough that one batch of row lists stays small (about 0.25 MB for
# the bench's 12-column files).  256 and 512 parsed those files equally fast,
# 1024 and more were slower, and 256 holds half the memory of 512.
_BATCH_ROWS = 256

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


def _detached(err: InputError) -> InputError:
    """``err`` without its traceback and context, whose frames would keep
    the whole batch that raised it alive for as long as the error is kept."""
    err.__traceback__ = err.__context__ = None
    return err


def _float_column(
    cells: Sequence[str],
    column: str,
    optional: bool,
    lines: Sequence[int],
    bad: dict[int, InputError | None],
) -> array:
    """One batch's cells of a float column, converted at C level.

    A cell that does not convert to a finite number is stripped: empty in
    an optional column, it reads as NaN, which marks an absent value;
    otherwise ``_float_cell`` converts it, or its error for the line goes
    into ``bad`` (unless the line already has one) and the cell reads as NaN.
    """
    values = array("d")
    converted = map(float, cells)
    while True:
        try:
            # extend keeps the values before a cell float rejects, and map
            # goes on with the cell after it.
            values.extend(converted)
            break
        except ValueError:
            values.append(math.nan)
    if not all(map(math.isfinite, values)):
        for i in itertools.compress(
                itertools.count(), map(operator.not_, map(math.isfinite, values))):
            raw = cells[i].strip()
            if not optional or raw:
                try:
                    values[i] = _float_cell(raw, column, lines[i])
                except SchemaViolation as err:
                    bad.setdefault(lines[i], _detached(err))
    return values


def _count_column(
    cells: Sequence[str],
    column: str,
    lines: Sequence[int],
    bad: dict[int, InputError | None],
) -> array:
    """One batch's cells of a count column, converted at C level.

    A cell that does not convert to an integer in [0, ``COUNT_MAX``] is
    stripped: empty, it reads as 0; otherwise ``_int_cell`` converts it, or
    its error for the line goes into ``bad`` (unless the line already has
    one) and the cell reads as -1.
    """
    counts = array("q")
    converted = map(int, cells)
    while True:
        try:
            counts.extend(converted)  # as in _float_column
            break
        except (ValueError, OverflowError):
            counts.append(-1)
    if min(counts) < 0:
        for i in itertools.compress(
                itertools.count(), map(operator.gt, itertools.repeat(0), counts)):
            raw = cells[i].strip()
            if not raw:
                counts[i] = 0
                continue
            try:
                counts[i] = _int_cell(raw, column, lines[i])
            except SchemaViolation as err:
                bad.setdefault(lines[i], _detached(err))
    return counts


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

    parse = _cycle_batch_parser(names, configs, table, errors)
    line = 1  # the number of the last row read
    skipped = 0
    while True:
        batch: list[list[str]] = []
        try:
            # A csv.Error leaves the rows read before it in the batch.
            batch.extend(itertools.islice(reader, _BATCH_ROWS))
        except csv.Error as err:
            parse(batch, line + 1)
            line += len(batch) + 1
            errors.append(_unsplittable(err, line))
            # Skip the rest of a quoted field the error left open: no line
            # inside it becomes a row, and later rows keep their line numbers.
            while quoted and next(lines, None) is not None:
                skipped += 1
            line = reader.line_num + skipped
            continue
        if not batch:
            return table, errors
        parse(batch, line + 1)
        line += len(batch)


def _cycle_batch_parser(
    names: Sequence[str],
    configs: Mapping[str, ApproachConfig] | None,
    table: CycleTable,
    errors: list[InputError],
) -> Callable[[list[list[str]], int], None]:
    """Resolve a validated cycle header into one batch parser.

    ``parse(rows, first)`` takes consecutive rows, the first of them on
    line ``first``.  It appends the rows passing every check to ``table``
    and each other row's error to ``errors``, in file order; blank rows are
    skipped.  A row with several problems always reports the first in this
    order: field count, approach id (empty, then unknown), cycle, red and
    green, the counts in ``VEHICLE_CLASSES`` order, the optional columns in
    ``CYCLE_OPTIONAL`` order, then the record invariants (``check_cycle``).

    Each check runs over a whole column of the batch at C level, with
    cells converted unstripped.  Only where it fails does the parser go
    cell by cell: each failing cell, stripped, through ``_float_cell`` or
    ``_int_cell``, and each failing row through ``check_cycle``, so every
    message is the one those per-cell and per-row checks give.
    """
    width = len(names)
    index = {name: i for i, name in enumerate(names)}
    id_at = index["approach_id"]
    timing_at = tuple((name, index[name]) for name in CYCLE_REQUIRED[1:])
    count_at = tuple((cls.value, index.get(cls.value)) for cls in VEHICLE_CLASSES)
    optional_at = tuple((name, index.get(name)) for name in CYCLE_OPTIONAL)
    known = None if configs is None else configs.__contains__
    classes = len(VEHICLE_CLASSES)

    def parse(rows: list[list[str]], first: int) -> None:
        lines: Sequence[int] = range(first, first + len(rows))
        bad: dict[int, InputError | None] = {}  # line -> its first error; None if blank
        fits = list(map(width.__eq__, map(len, rows)))
        if not all(fits):
            for line, row in itertools.compress(zip(lines, rows), map(operator.not_, fits)):
                if any(map(str.strip, row)):
                    bad[line] = SchemaViolation(
                        f"expected {width} fields, got {len(row)}", row=line)
            rows = list(itertools.compress(rows, fits))
            lines = list(itertools.compress(lines, fits))
        if rows:
            check_and_store(rows, lines, bad)
        errors.extend(err for _, err in sorted(bad.items()) if err is not None)

    def check_and_store(
        rows: list[list[str]], lines: Sequence[int], bad: dict[int, InputError | None],
    ) -> None:
        columns = list(zip(*rows))
        ids = list(map(str.strip, columns[id_at]))
        if not all(ids):
            for j in itertools.compress(itertools.count(), map(operator.not_, ids)):
                bad[lines[j]] = (SchemaViolation("empty approach_id", row=lines[j])
                                 if any(map(str.strip, rows[j])) else None)
        if known is not None and not all(map(known, ids)):
            for j in itertools.compress(itertools.count(), map(operator.not_, map(known, ids))):
                bad.setdefault(lines[j], UnknownApproach(
                    f"approach {ids[j]!r} has no configuration", row=lines[j]))

        cycle, red, green = (
            _float_column(columns[at], name, False, lines, bad) for name, at in timing_at)
        counts = [
            array("q", [0]) * len(rows) if at is None
            else _count_column(columns[at], name, lines, bad)
            for name, at in count_at]
        effective_green, exited_pcu, timestamp = (
            array("d", [math.nan]) * len(rows) if at is None
            else _float_column(columns[at], name, True, lines, bad)
            for name, at in optional_at)

        for j in failing_cycles(cycle, red, green, effective_green, exited_pcu):
            if lines[j] not in bad:
                try:
                    check_cycle(cycle[j], red[j], green[j], effective_green[j], exited_pcu[j])
                except InvariantViolation as err:
                    err.row = lines[j]
                    bad[lines[j]] = _detached(err)

        if bad:
            dropped = list(itertools.compress(itertools.count(), map(bad.__contains__, lines)))
            for values in (ids, cycle, red, green, effective_green, exited_pcu, timestamp,
                           *counts):
                for j in reversed(dropped):
                    del values[j]
        flat = array("q", [0]) * (len(ids) * classes)
        for slot, values in enumerate(counts):
            flat[slot::classes] = values
        table.extend(ids, cycle, red, green, flat, effective_green, exited_pcu, timestamp)

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
    """Parse and validate an approach CSV stream, failing on the first bad row.

    Rows are read ``_BATCH_ROWS`` at a time and checked a column at a time,
    as ``scan_cycles`` does; from the first row a check flags, the rest of
    the batch goes through ``_approach_row`` one row at a time, which skips
    a blank row and raises the first error of any other.
    """
    reader = csv.reader(source)
    try:
        first = next(reader)
    except StopIteration:
        raise SchemaViolation("approach file is empty", row=1) from None
    except csv.Error as err:
        raise _unsplittable(err, 1) from None
    names = _header(first, APPROACH_COLUMNS, APPROACH_COLUMNS)
    at = [names.index(name) for name in APPROACH_COLUMNS]

    configs: dict[str, ApproachConfig] = {}
    line = 1  # the number of the last row read
    while True:
        batch: list[list[str]] = []
        try:
            batch.extend(itertools.islice(reader, _BATCH_ROWS))
        except csv.Error as err:
            # An error in the rows read before it comes first.
            _add_approaches(batch, line + 1, names, at, configs)
            raise _unsplittable(err, line + len(batch) + 1) from None
        if not batch:
            return configs
        _add_approaches(batch, line + 1, names, at, configs)
        line += len(batch)


_DIRECTIONALITY = {d.value: d for d in Directionality}
_FLAG = {"0": False, "1": True}


def _first_true(flags: Iterable[bool], none: int) -> int:
    return next(itertools.compress(itertools.count(), flags), none)


def _converted(convert: Callable[[str], object], cells: Sequence[str], into: list) -> int:
    """Append ``convert`` of each cell to ``into`` up to the first it
    rejects; the number of cells converted."""
    try:
        into.extend(map(convert, cells))  # keeps the values before a ValueError
    except ValueError:
        pass
    return len(into)


def _add_approaches(
    rows: list[list[str]],
    first: int,
    names: Sequence[str],
    at: Sequence[int],
    configs: dict[str, ApproachConfig],
) -> None:
    """Add the approaches of consecutive rows, the first on line ``first``.

    The rows before the first that any check flags are checked and built a
    column at a time; every check there is one C-level pass over a column of
    stripped cells.  The rows from the flagged one on go through
    ``_approach_row``.
    """
    clean = _first_true(map(len(names).__ne__, map(len, rows)), len(rows))
    if clean:
        ids, intersections, lane_cells, directions, width_cells, free_cells, major_cells = (
            list(map(str.strip, column)) for column in operator.itemgetter(*at)(
                list(zip(*rows[:clean]))))
        lanes: list[int] = []
        widths: list[float] = []
        lanes_read = _converted(int, lane_cells, lanes)
        widths_read = _converted(float, width_cells, widths)
        directionality = list(map(_DIRECTIONALITY.get, directions))
        free_left = list(map(_FLAG.get, free_cells))
        is_major = list(map(_FLAG.get, major_cells))
        none = itertools.repeat(None)
        clean = min(
            _first_true(map(operator.not_, ids), clean),
            _first_true(map(operator.not_, intersections), clean),
            _first_true(map(operator.is_, directionality, none), clean),
            _first_true(map(operator.gt, itertools.repeat(1), lanes), lanes_read),
            _first_true(map(operator.not_, map(math.isfinite, widths)), widths_read),
            _first_true(map(operator.ge, itertools.repeat(0.0), widths), clean),
            _first_true(map(operator.is_, free_left, none), clean),
            _first_true(map(operator.is_, is_major, none), clean),
        )
        ids = ids[:clean]
        if len(set(ids)) < clean or not configs.keys().isdisjoint(ids):
            seen = set(configs)
            for j, approach_id in enumerate(ids):
                if approach_id in seen:
                    ids = ids[:j]
                    break
                seen.add(approach_id)
            clean = len(ids)
        configs.update(zip(ids, map(ApproachConfig, ids, intersections, lanes, directionality,
                                    widths, free_left, is_major)))
    for line, row in zip(itertools.count(first + clean), rows[clean:]):
        _approach_row(row, line, names, configs)


def _approach_row(
    row: Sequence[str], line: int, names: Sequence[str], configs: dict[str, ApproachConfig],
) -> None:
    """Add one row's approach to ``configs``, skip it if blank, or raise its
    first error."""
    if not row or all(not cell.strip() for cell in row):
        return
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
