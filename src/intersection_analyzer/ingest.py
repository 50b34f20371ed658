"""CSV ingestion and validation of cycle and approach records.

Both files are read by one front end, ``_batches``, which splits plain
blocks of lines (``_plain_end``) with ``str.split`` and the rest of a file,
from its first other block, with ``csv.reader``, one record at a time.  An
error's row is the physical line of the file that its record starts on
(header = line 1), also after a quoted field that spans lines: the reader's
own line count before the record, plus the lines it was not given.  A row
the csv module cannot split is a ``SchemaViolation`` in either file; only
then is its quoting looked at, and when it leaves a quoted field open, the
lines up to the end of that field are skipped, so none of them becomes a
row.  Missing count columns read as zero; a negative count is a schema
violation, not an invariant violation, so it is caught before a row is
stored.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import re
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

from .errors import (
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
    timing_faults,
)

CYCLE_REQUIRED = ("approach_id", "cycle_length_s", "red_s", "green_s")
CYCLE_COUNT_COLUMNS = tuple(cls.value for cls in VehicleClass)
CYCLE_OPTIONAL = ("effective_green_s", "exited_pcu", "timestamp")
CYCLE_COLUMNS = CYCLE_REQUIRED + CYCLE_COUNT_COLUMNS + CYCLE_OPTIONAL

# Text that csv's default dialect ends inside a quoted field: whole fields,
# then an opening quote that no single quote closes ("" is a literal quote).
# Matched only after an unsplittable row: against the lines of its record,
# then against '"' and each line after them while the field stays open.
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


def _batches(source: TextIO | Iterable[str]) -> Iterator:
    """The header row of a CSV stream, then its rows ``_BATCH_ROWS`` at a
    time, each batch as ``(rows, lines)`` with the line each row starts on.

    A row the csv module cannot split comes as its ``SchemaViolation``,
    after the rows read before it; an unsplittable header raises its error.
    Lines are counted by the reader, plus those before it (the plain blocks)
    and those skipped after an unsplittable row: the rest of any quoted
    field it leaves open, so that no line inside that field becomes a row.
    After the plain blocks the reader reads one record at a time, and
    ``feed`` keeps the lines of the record being read.
    """
    source = iter(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        return
    except csv.Error as err:
        raise _unsplittable(err, 1) from None
    yield header
    skipped = reader.line_num
    while block := list(itertools.islice(source, _BATCH_ROWS)):
        text = "".join(block)
        end = _plain_end(block, text)
        if end is None:
            break
        yield (list(map(str.split, text.split(end)[:-1], itertools.repeat(","))),
               range(skipped + 1, skipped + 1 + len(block)))
        skipped += len(block)
    else:
        return  # every block was plain
    source = itertools.chain(block, source)
    record: list[str] = []  # the lines fed to the reader for the record being read

    def feed(texts: Iterator[str]) -> Iterator[str]:
        for text in texts:
            record.append(text)
            yield text

    reader = csv.reader(feed(source))
    batch: list[list[str]] = []
    starts: list[int] = []
    while True:
        start = skipped + reader.line_num + 1
        record.clear()
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as err:
            if batch:
                yield batch, starts
                batch, starts = [], []
            yield _unsplittable(err, start)
            quoted = _ENDS_QUOTED.fullmatch("".join(record))
            while quoted and (text := next(source, None)) is not None:
                skipped += 1
                quoted = _ENDS_QUOTED.fullmatch('"' + text)
            continue
        batch.append(row)
        starts.append(start)
        if len(batch) == _BATCH_ROWS:
            yield batch, starts
            batch, starts = [], []
    if batch:
        yield batch, starts


def _plain_end(block: list[str], text: str) -> str | None:
    """The line end of ``block`` (joined: ``text``) if csv splits each line
    as ``str.split`` on commas would: no quote, no NUL (3.10's csv rejects
    it), no line over csv's field size limit, and no line break but one
    "\\n" or one "\\r\\n" ending each line.  A blank line gives ``['']``.
    The lines are measured only if ``text`` itself is over the limit."""
    end = "\r\n" if block[0].endswith("\r\n") else "\n"
    limit = csv.field_size_limit()
    plain = ('"' not in text and "\0" not in text and text.count("\n") == len(block)
             and text.count("\r") == (len(block) if end == "\r\n" else 0)
             and all(map(str.endswith, block, itertools.repeat(end)))
             and (len(text) <= limit or max(map(len, block)) <= limit))
    return end if plain else None


def _columns(
    rows: list[list[str]],
    lines: Sequence[int],
    width: int,
    id_at: int,
    bad: dict[int, InputError | None],
) -> tuple[Sequence[int], list[tuple[str, ...]], list[str]]:
    """The lines and columns of the rows that have ``width`` fields, and
    their stripped approach ids.

    Each other row's field-count error and each empty id's error go into
    ``bad``; a blank row maps to None there, so that it is skipped.
    """
    fits = list(map(width.__eq__, map(len, rows)))
    if not all(fits):
        for line, row in itertools.compress(zip(lines, rows), map(operator.not_, fits)):
            if any(map(str.strip, row)):
                bad[line] = SchemaViolation(f"expected {width} fields, got {len(row)}", row=line)
        rows = list(itertools.compress(rows, fits))
        lines = list(itertools.compress(lines, fits))
    columns = list(zip(*rows)) or [()] * width
    ids = list(map(str.strip, columns[id_at]))
    for j in itertools.compress(itertools.count(), map(operator.not_, ids)):
        bad[lines[j]] = (SchemaViolation("empty approach_id", row=lines[j])
                         if any(map(str.strip, rows[j])) else None)
    return lines, columns, ids


def _flag(
    failing: Iterable[bool],
    lines: Sequence[int],
    bad: dict[int, InputError | None],
    message: Callable[[int], str],
    error: type[InputError] = SchemaViolation,
) -> None:
    """Put an ``error`` with ``message(j)`` into ``bad`` for each row ``j``
    that ``failing`` flags, unless its line already has one."""
    for j in itertools.compress(itertools.count(), failing):
        bad.setdefault(lines[j], error(message(j), row=lines[j]))


def _not_finite(values: Sequence[float]) -> Iterable[int]:
    if math.isfinite(sum(values)):
        return ()
    return itertools.compress(itertools.count(), map(operator.not_, map(math.isfinite, values)))


def _negative(values: Sequence[int]) -> Iterable[int]:
    if min(values, default=0) >= 0:
        return ()
    return itertools.compress(itertools.count(), map(operator.gt, itertools.repeat(0), values))


def _column(
    cells: Sequence[str],
    convert: Callable[[str], object],
    fill: object,
    suspects: Callable[[Sequence], Iterable[int]],
    redo: Callable[[str, int], object],
    lines: Sequence[int],
    bad: dict[int, InputError | None],
) -> list:
    """``convert`` of each cell, as a list built at C level.

    A cell that ``convert`` rejects reads as ``fill``.  Each value at an
    index ``suspects`` yields, ``fill`` among them, is replaced by ``redo``
    of its stripped cell and line; where ``redo`` raises, the value stays
    and the error for the line goes into ``bad`` (unless the line already
    has one).
    """
    values: list = []
    converted = map(convert, cells)
    while True:
        try:
            # extend keeps the values before a cell convert rejects, and map
            # goes on with the cell after it.
            values.extend(converted)
            break
        except (ValueError, OverflowError):
            values.append(fill)
    for i in suspects(values):
        try:
            values[i] = redo(cells[i].strip(), lines[i])
        except SchemaViolation as err:
            bad.setdefault(lines[i], _detached(err))
    return values


def _float_column(
    cells: Sequence[str],
    column: str,
    optional: bool,
    lines: Sequence[int],
    bad: dict[int, InputError | None],
) -> list[float]:
    """One batch's cells of a float column: an empty cell of an optional
    column reads as NaN, which marks an absent value, and any other cell
    that is not a finite number gets ``_float_cell``'s error."""
    return _column(cells, float, math.nan, _not_finite, lambda raw, line: (
        _float_cell(raw, column, line) if raw or not optional else math.nan), lines, bad)


def _count_column(
    cells: Sequence[str],
    column: str,
    lines: Sequence[int],
    bad: dict[int, InputError | None],
) -> list[int]:
    """One batch's cells of a count column: a blank cell reads as 0, and
    any other cell that is not an integer in [0, ``COUNT_MAX``] gets
    ``_int_cell``'s error.  Cells are read from ``_COUNTS`` in one pass;
    only where that raises ``KeyError`` is each cell it lacks, stripped, read
    by ``_int_cell``."""
    try:
        return list(map(_COUNTS.__getitem__, cells))
    except KeyError:
        pass
    counts = list(map(_COUNTS.get, cells))
    for i in itertools.compress(itertools.count(), map(operator.is_, counts,
                                                        itertools.repeat(None))):
        raw = cells[i].strip()
        try:
            counts[i] = _int_cell(raw, column, lines[i]) if raw else 0
        except SchemaViolation as err:
            counts[i] = 0  # a placeholder: the row is dropped
            bad.setdefault(lines[i], _detached(err))
    return counts


class RowCount:
    """A ``scan_cycles`` sink that keeps only how many rows it was given,
    as its ``len()``: for a run that reads no column of them."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows = 0

    def extend(self, approach_ids: Sequence[str], *columns: Sequence) -> None:
        self.rows += len(approach_ids)

    def __len__(self) -> int:
        return self.rows


class RowTotals:
    """A ``scan_cycles`` sink that keeps each row's vehicle total, tallied
    by approach: ``tally[(approach_id, total)]`` is how many of the
    approach's rows have that total, and ``len()`` is how many rows there
    were.  A tally does not depend on the order of the rows, and tallies of
    two parts of a file add up to the tally of the whole."""

    __slots__ = ("tally", "rows")

    def __init__(self) -> None:
        self.tally: Counter[tuple[str, int]] = Counter()
        self.rows = 0

    def extend(self, approach_ids: Sequence[str], cycle_length: Sequence[float],
               green_time: Sequence[float], counts: Sequence[Sequence[int]],
               *optional: Sequence[float]) -> None:
        self.tally.update(zip(approach_ids, map(sum, zip(*counts))))
        self.rows += len(approach_ids)

    def __len__(self) -> int:
        return self.rows


def scan_cycles(
    source: TextIO | Iterable[str],
    configs: Mapping[str, ApproachConfig] | None = None,
    sink: CycleTable | RowCount | RowTotals | None = None,
) -> tuple[CycleTable | RowCount | RowTotals, list[InputError]]:
    """Parse a cycle CSV stream, collecting every row-level problem.

    Returns the rows that parsed cleanly and the full list of errors.  The
    rows go to ``sink.extend`` a batch at a time, as the lists of the
    columns that ``CycleTable.extend`` takes, and ``sink`` is returned: a
    new ``CycleTable`` unless one is given.  With ``configs`` given,
    approach ids must resolve; without, that check is skipped.
    """
    if sink is None:
        sink = CycleTable()
    errors: list[InputError] = []
    batches = _batches(source)
    try:
        header = next(batches, None)
        if header is None:
            return sink, errors
        names = _header(header, CYCLE_COLUMNS, CYCLE_REQUIRED)
    except SchemaViolation as err:
        return sink, [err]
    parse = _cycle_batch_parser(names, configs, sink, errors)
    for batch in batches:
        if isinstance(batch, InputError):
            errors.append(batch)
        else:
            parse(*batch)
        del batch  # so that no two batches of rows are held at once
    return sink, errors


def _cycle_batch_parser(
    names: Sequence[str],
    configs: Mapping[str, ApproachConfig] | None,
    sink: CycleTable | RowCount | RowTotals,
    errors: list[InputError],
) -> Callable[[list[list[str]], Sequence[int]], None]:
    """Resolve a validated cycle header into one batch parser.

    ``parse(rows, lines)`` takes rows and the lines they start on.  It
    hands the rows passing every check to ``sink.extend`` and appends each
    other row's error to ``errors``, in file order; blank rows are skipped.
    A row with several problems always reports the first in this order:
    field count, approach id (empty, then unknown), cycle, red and green,
    the counts in ``VEHICLE_CLASSES`` order, the optional columns in
    ``CYCLE_OPTIONAL`` order, then the timing checks (``timing_faults``).

    Each check runs over a whole column of the batch at C level, with
    cells converted unstripped into a list.  Only where it fails does the
    parser go cell by cell: each failing cell, stripped, through
    ``_float_cell`` or ``_int_cell``, so every message is the one those
    per-cell checks give.  ``timing_faults`` gives each failing row's
    message itself.
    """
    width = len(names)
    index = {name: i for i, name in enumerate(names)}
    id_at = index["approach_id"]
    timing_at = tuple((name, index[name]) for name in CYCLE_REQUIRED[1:])
    count_at = tuple((cls.value, index.get(cls.value)) for cls in VEHICLE_CLASSES)
    optional_at = tuple((name, index.get(name)) for name in CYCLE_OPTIONAL)
    known = None if configs is None else configs.__contains__

    def parse(rows: list[list[str]], lines: Sequence[int]) -> None:
        bad: dict[int, InputError | None] = {}  # line -> its first error; None if blank
        lines, columns, ids = _columns(rows, lines, width, id_at, bad)
        if known is not None:
            _flag(map(operator.not_, map(known, ids)), lines, bad,
                  lambda j: f"approach {ids[j]!r} has no configuration", UnknownApproach)

        cycle, red, green = (
            _float_column(columns[at], name, False, lines, bad) for name, at in timing_at)
        counts = [
            [0] * len(ids) if at is None else _count_column(columns[at], name, lines, bad)
            for name, at in count_at]
        effective_green, exited_pcu, timestamp = (
            [math.nan] * len(ids) if at is None
            else _float_column(columns[at], name, True, lines, bad)
            for name, at in optional_at)

        for j, message in timing_faults(cycle, red, green, effective_green, exited_pcu).items():
            bad.setdefault(lines[j], InvariantViolation(message, row=lines[j]))

        if bad:
            dropped = list(itertools.compress(itertools.count(), map(bad.__contains__, lines)))
            for values in (ids, cycle, green, effective_green, exited_pcu, timestamp, *counts):
                for j in reversed(dropped):
                    del values[j]
            errors.extend(err for _, err in sorted(bad.items()) if err is not None)
        sink.extend(ids, cycle, green, counts, effective_green, exited_pcu, timestamp)

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

    Rows come from the same front end as cycle rows and are checked a
    column at a time (``_add_approaches``).
    """
    batches = _batches(source)
    header = next(batches, None)
    if header is None:
        raise SchemaViolation("approach file is empty", row=1)
    names = _header(header, APPROACH_COLUMNS, APPROACH_COLUMNS)
    at = [names.index(name) for name in APPROACH_COLUMNS]
    configs: dict[str, ApproachConfig] = {}
    for batch in batches:
        if isinstance(batch, InputError):
            raise batch
        _add_approaches(*batch, at, configs)
    return configs


_DIRECTIONALITY = {d.value: d for d in Directionality}
_FLAG = {"0": False, "1": True}
# Count cells read by lookup, in half int's time (4,096 entries cost 0.3-0.6 MB).
_COUNTS = {"": 0, **{str(n): n for n in range(1023)}}


def _lanes_cell(value: str, row: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise SchemaViolation(f"lanes: not an integer: {value!r}", row=row) from None


def _add_approaches(
    rows: list[list[str]],
    lines: Sequence[int],
    at: Sequence[int],
    configs: dict[str, ApproachConfig],
) -> None:
    """Add the approaches of rows starting on ``lines`` to ``configs``, or
    raise the first error of the first bad row; blank rows are skipped.

    ``at`` gives the position of each of ``APPROACH_COLUMNS``.  A row with
    several problems reports the first in this order: field count, approach
    id, intersection id, duplicate, directionality, lanes, width,
    ``free_left``, ``is_major``, then the ``ApproachConfig`` invariants.
    As in ``scan_cycles``, each check is one C-level pass over a column (of
    stripped cells here) that puts each line's first error into one map.
    """
    bad: dict[int, InputError | None] = {}  # line -> its first error; None if blank
    lines, columns, ids = _columns(rows, lines, len(at), at[0], bad)
    intersections, lane_cells, directions, width_cells, free_cells, major_cells = (
        list(map(str.strip, columns[i])) for i in at[1:])
    _flag(map(operator.not_, intersections), lines, bad, lambda j: "empty intersection_id")
    if len(set(ids)) < len(ids) or not configs.keys().isdisjoint(ids):
        seen = set(configs)
        for line, approach_id in zip(lines, ids):
            if approach_id in seen:
                bad.setdefault(line, SchemaViolation(
                    f"duplicate approach {approach_id!r}", row=line))
            seen.add(approach_id)
    directionality = list(map(_DIRECTIONALITY.get, directions))
    _flag(map(operator.is_, directionality, itertools.repeat(None)), lines, bad,
          lambda j: f"directionality must be 'oneway' or 'twoway', got {directions[j]!r}")
    lanes = _column(lane_cells, int, -1, _negative, _lanes_cell, lines, bad)
    widths = _float_column(width_cells, "width_m", False, lines, bad)
    flags = []
    for name, cells in (("free_left", free_cells), ("is_major", major_cells)):
        flags.append(list(map(_FLAG.get, cells)))
        _flag(map(operator.is_, flags[-1], itertools.repeat(None)), lines, bad,
              lambda j: f"column {name!r} must be 0 or 1")
    columns = [ids, intersections, lanes, directionality, widths, *flags]
    for j in itertools.compress(itertools.count(), map(
            operator.or_, map(operator.gt, itertools.repeat(1), lanes),
            map(operator.ge, itertools.repeat(0.0), widths))):
        if lines[j] not in bad:
            try:
                ApproachConfig(*(column[j] for column in columns))
            except InvariantViolation as err:
                err.row = lines[j]
                bad[lines[j]] = err

    first = min(filter(bad.get, bad), default=None)
    if first is not None:
        raise bad[first]
    if bad:  # blank rows
        kept = list(map(operator.not_, map(bad.__contains__, lines)))
        columns = [list(itertools.compress(column, kept)) for column in columns]
    configs.update(zip(columns[0], map(ApproachConfig, *columns)))
