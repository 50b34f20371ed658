"""Differential tests: the optimized cycle parser and time-of-day arithmetic
against the reference implementations in ``oracles.py``."""

import csv
import io
import itertools
from datetime import date, datetime, timezone
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from intersection_analyzer import ingest, scan_cycles
from intersection_analyzer.errors import SchemaViolation
from intersection_analyzer.ingest import CYCLE_COUNT_COLUMNS, CYCLE_OPTIONAL, CYCLE_REQUIRED
from intersection_analyzer.model import ApproachConfig, DayFilter, Directionality
from intersection_analyzer.stats import _day_and_time, _weekdays, window_cycle_lengths

CONFIGS = {
    "SR1": ApproachConfig("SR1", "SSC", 3, Directionality.ONE_WAY, 10.5),
    "SR2": ApproachConfig("SR2", "SSC", 2, Directionality.ONE_WAY, 7.0),
}

# Whitespace that str.strip removes, ASCII and not.
PADDING = st.sampled_from(["", "", " ", "\t", " ", " ", "\x1c", "　"])
JUNK = st.one_of(
    st.sampled_from([
        "", " ", "abc", "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999",
        "4.5", "+3", "-0", "1_000", "0x10", "1e3", "٣", "١٢", "--1", ".",
    ]),
    st.text(st.characters(blacklist_characters="\x00"), max_size=4),
)
APPROACH_ID = st.sampled_from(["SR1", "SR2", " SR1 "])
BAD_CELL = st.one_of(
    JUNK,
    st.sampled_from(["", "ZZ9", "-1", "-7", "1e9", "0"]),
    # counts at the edge of the lookup table and of int64
    st.sampled_from(["1022", "1023", " 1023 ", "9223372036854775807", "9223372036854775808"]),
    st.floats(-1e3, 1e3).map(repr),
)
NUMBER_OR_JUNK = st.one_of(st.integers(0, 200).map(str), JUNK)


def number(value):
    """A float cell in one of the spellings a CSV export may use."""
    return st.sampled_from([repr(float(value)), f"{value:.1f}", f"{value:g}", f"{value:.3e}"])


@st.composite
def good_row(draw, columns):
    """Cells that parse cleanly and satisfy the record invariants."""
    cycle = draw(st.floats(1.0, 200.0))
    red = draw(st.floats(0.0, cycle / 2))
    green = draw(st.floats(0.0, cycle - red))
    cells = {
        "approach_id": draw(APPROACH_ID),
        "cycle_length_s": repr(cycle),
        "red_s": repr(red),
        "green_s": repr(green),
        "effective_green_s": draw(st.one_of(st.just(""), number(green / 2))),
        "exited_pcu": draw(st.one_of(st.just(""), st.floats(0, 100).flatmap(number))),
        "timestamp": draw(st.one_of(st.just(""), st.integers(0, 2 * 10**9).map(str),
                                    st.floats(-1e10, 1e10).flatmap(number))),
    }
    for column in CYCLE_COUNT_COLUMNS:
        cells[column] = draw(st.one_of(st.integers(0, 60).map(str), st.just("")))
    return [cells.get(c, "1") for c in columns]


@st.composite
def cycle_columns(draw):
    extra = draw(st.lists(st.sampled_from(CYCLE_COUNT_COLUMNS + CYCLE_OPTIONAL), unique=True))
    return draw(st.permutations(list(CYCLE_REQUIRED) + extra))


@st.composite
def dirty_rows(draw, columns, max_rows, padding=PADDING):
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        row = draw(good_row(columns))
        # Most rows get zero to two bad cells; a few lose or gain a cell or go blank.
        for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
            row[draw(st.integers(0, len(row) - 1))] = draw(BAD_CELL)
        pad, mask = draw(padding), draw(st.integers(0, 2 ** len(row) - 1))
        row = [pad + cell + pad if mask >> i & 1 else cell for i, cell in enumerate(row)]
        mutation = draw(st.integers(0, 19))
        if mutation == 0:
            del row[draw(st.integers(0, len(row) - 1))]
        elif mutation == 1:
            row.append(draw(NUMBER_OR_JUNK))
        elif mutation == 2:
            row = [draw(padding) for _ in row]
        rows.append(row)
    return rows


def to_csv(rows):
    buffer = io.StringIO()
    # "\r\n" makes the writer quote every cell holding either character.
    csv.writer(buffer, lineterminator="\r\n").writerows(rows)
    return buffer.getvalue()


@st.composite
def cycle_csv(draw):
    columns = draw(cycle_columns())
    if draw(st.integers(0, 19)) == 0:
        columns.append(draw(st.sampled_from(["bogus", columns[0]])))
    pad = draw(PADDING)
    return to_csv([[pad + c for c in columns]] + draw(dirty_rows(columns, 8)))


def outcome(scan, text, configs):
    """The rows ``scan`` keeps, as columns, and its errors."""
    rows, errors = scan(io.StringIO(text), configs)
    return oracles.columns(rows), [(type(e), str(e), e.row) for e in errors]


@settings(max_examples=200, deadline=None)
@given(cycle_csv(), st.sampled_from([None, CONFIGS]))
@example("approach_id,cycle_length_s,red_s,green_s,car,timestamp\n"
         "SR1,100,50,40,3,1646640000\n SR1 , 100 ,50,40, 3 ,\n", CONFIGS)
@example("approach_id,cycle_length_s,red_s,green_s,car,effective_green_s\n"
         "SR1,100,50,40,-2,inf\nSR1,abc,inf,40,-2,\nSR1,100,60,50,2,\n"
         "SR1,100,50,40,2,45\n,,,,,\nSR1,100,50,40\n", CONFIGS)
def test_parser_matches_reference(text, configs):
    assert outcome(scan_cycles, text, configs) == outcome(oracles.scan_cycles, text, configs)


# A padding "\n" makes the writer quote the cell, so its record spans lines.
MULTILINE_PADDING = st.sampled_from(["", "", " ", "\n", " \n", "\n\n"])
# Lines csv.reader cannot split: a bare carriage return in an unquoted field.
UNSPLITTABLE = st.sampled_from(["SR1,15\r2,120,32,1\r\n", "x\ry\r\n", "\r1\r\n"])


def csv_error(line):
    try:
        list(csv.reader([line]))
    except csv.Error as err:
        return str(err)
    raise AssertionError(f"csv splits {line!r}")


def reference_outcome(header, chunks, unsplittable, configs):
    """What scan_cycles must return for ``header``, then each chunk of
    records followed by its line of ``unsplittable``, from the oracle run
    on each chunk alone; every row is numbered by physical line."""
    records, errors = [], []
    offset = 0  # the lines between the header and the chunk
    for chunk, bad_line in itertools.zip_longest(chunks, unsplittable):
        chunk_records, chunk_errors = oracles.scan_cycles(io.StringIO(header + chunk), configs)
        records += chunk_records
        for err in chunk_errors:
            err.row += offset
            errors.append((type(err), str(err), err.row))
        offset += chunk.count("\n")
        if bad_line is not None:
            offset += 1
            row = header.count("\n") + offset
            errors.append((SchemaViolation,
                           f"row {row}: unreadable CSV row: {csv_error(bad_line)}", row))
    return oracles.columns(records), errors


@st.composite
def batched_cycle_csv(draw):
    """A header, chunks of up to ten dirty rows with cells spanning lines,
    and the unsplittable lines between them."""
    columns = draw(cycle_columns())
    chunks = [to_csv(draw(dirty_rows(columns, 10, MULTILINE_PADDING)))
              for _ in range(draw(st.integers(1, 4)))]
    unsplittable = [draw(UNSPLITTABLE) for _ in chunks[1:]]
    return to_csv([columns]), chunks, unsplittable


@settings(max_examples=150, deadline=None)
@given(batched_cycle_csv(), st.integers(1, 5), st.sampled_from([None, CONFIGS]))
def test_batches_of_any_size_match_reference(parts, batch_rows, configs):
    header, chunks, unsplittable = parts
    text = header + "".join(
        chunk + bad_line for chunk, bad_line in itertools.zip_longest(
            chunks, unsplittable, fillvalue=""))
    with mock.patch.object(ingest, "_BATCH_ROWS", batch_rows):
        got = outcome(scan_cycles, text, configs)
    assert got == reference_outcome(header, chunks, unsplittable, configs)


# csv's field size limit while the plain-block tests run: the rows drawn
# stay far below it, and a breaker's field lies at it or just past it.
FIELD_LIMIT = 1000
# Count cells the lookup table holds, and spellings it lacks that int() reads
# or rejects.
COUNT_SPELLINGS = st.sampled_from(
    ["", "0", "007", " 7", "+3", "٣", "1022", "1023", "1024", "1_000", str(2**63), "-1"])
# What ends a run of plain blocks: a line the parser must hand to csv.reader.
# Each is the first cell of a row; the rest of the row and its end follow.
BREAKERS = {
    "quote": lambda first: f'"{first}"',
    "quoted line break": lambda first: f'"{first}\n"',
    "carriage return": lambda first: first + "\r",
    "NUL": lambda first: first + "\0",
    "field at the limit": lambda first: "1" * FIELD_LIMIT,
    "field past the limit": lambda first: "1" * (FIELD_LIMIT + 1),
}
UNPLAIN = str.maketrans("", "", '"\r\n\0')


def unsplittable(item):
    """csv's error for a line it cannot split alone, or None."""
    try:
        list(csv.reader([item]))
    except csv.Error as err:
        return str(err)
    return None


def stream_reference(items, configs):
    """What scan_cycles must return for the stream ``items``, from the
    oracle: it reads the header with each run of items that csv splits
    alone, and each other item is an unreadable row.  Rows are numbered by
    item, as csv.reader counts lines."""
    records, errors = [], []
    run, offset = [], 0  # a run of items, and the items between the header and it

    def read_run():
        run_records, run_errors = oracles.scan_cycles(items[:1] + run, configs)
        records.extend(run_records)
        for err in run_errors:
            err.row += offset
            errors.append((type(err), str(err), err.row))

    for line, item in enumerate(items[1:], 2):
        message = unsplittable(item)
        if message is None:
            run.append(item)
            continue
        read_run()
        errors.append((SchemaViolation, f"row {line}: unreadable CSV row: {message}", line))
        run, offset = [], line - 1
    read_run()
    return oracles.columns(records), errors


@st.composite
def plain_streams(draw):
    """A cycle file as a list of items, and the batch size to read it with.

    Its rows hold no quote, NUL or line break; blank and whitespace lines lie
    among them; lines end in "\\n", "\\r\\n" or either.  After some whole
    batches a breaker line may come, and the last line may lack its end.
    The data lines may be cut into items anywhere instead, so that an item
    holds several lines or part of one.
    """
    batch = draw(st.integers(1, 5))
    columns = draw(cycle_columns())
    counts = [i for i, name in enumerate(columns) if name in CYCLE_COUNT_COLUMNS]
    rows = draw(dirty_rows(columns, 16))
    for row in rows:
        for i in counts:
            if i < len(row) and draw(st.booleans()):
                row[i] = draw(COUNT_SPELLINGS)
    lines = [",".join(cell.translate(UNPLAIN) for cell in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t ", "\x1c"])))
    ending = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) if ending == "mixed" else ending
            for _ in range(len(lines) + 1)]
    items = [",".join(columns) + ends[0]] + list(map(str.__add__, lines, ends[1:]))
    breaker = draw(st.sampled_from([None, *BREAKERS]))
    if breaker is not None:
        at = min(1 + batch * draw(st.integers(0, 3)), len(items))
        row = draw(good_row(columns))
        items.insert(at, ",".join([BREAKERS[breaker](row[0]), *row[1:]]) + ends[0])
    if len(items) > 1 and draw(st.booleans()):
        items[-1] = items[-1].rstrip("\r\n")
    if breaker is None and len(items) > 1 and draw(st.booleans()):
        text = "".join(items[1:])
        cuts = sorted(draw(st.sets(st.integers(1, max(1, len(text) - 1)), max_size=6)))
        items[1:] = [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)]) if text[i:j]]
    return items, batch


@settings(max_examples=300, deadline=None)
@given(plain_streams(), st.sampled_from([None, CONFIGS]))
@example((["approach_id,cycle_length_s,red_s,green_s,car\n", "SR1,100,50,40,007\n",
           "SR1,100,50,40,1024\n", "\n", "SR1,100,50,40, 7\n", "SR1,100,50,40,1_000\n",
           "SR1,100,50,40,٣\n", 'SR1,100,50,40,"2"\n', "SR1,100,50,40,+3"], 2), CONFIGS)
@example((["approach_id,cycle_length_s,red_s,green_s,car\r\n", "SR1,100,50,40,1\r\n",
           "SR1,100,50,40,1\n", "SR1,100,\r50,40,1\r\n", "SR1,100,50,40,9223372036854775808\r\n"],
          1), None)
@example((["approach_id,cycle_length_s,red_s,green_s,car\n", "SR1,100,50,40,1",
           "SR1,100,50,40,2\n\n", "SR1,100,50,40\0,3\n"], 2), None)
def test_plain_blocks_match_reference(stream, configs):
    items, batch = stream
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with mock.patch.object(ingest, "_BATCH_ROWS", batch):
            table, errors = scan_cycles(items, configs)
        assert (oracles.columns(table), [(type(e), str(e), e.row) for e in errors]) == (
            stream_reference(items, configs))
        # A text stream splits at line feeds only, as a file opened with
        # newline="" does when the text holds no bare carriage return.
        text = "".join(items)
        with mock.patch.object(ingest, "_BATCH_ROWS", batch):
            assert outcome(scan_cycles, text, configs) == stream_reference(
                list(io.StringIO(text)), configs)
    finally:
        csv.field_size_limit(limit)


# datetime's range: 0001-01-01T00:00:00Z up to the end of 9999-12-31.
DATETIME_MIN = -62135596800
DATETIME_MAX = 253402300800
EPOCH = date(1970, 1, 1)

timestamps = st.one_of(
    st.floats(DATETIME_MIN, DATETIME_MAX),
    st.integers(DATETIME_MIN, DATETIME_MAX - 1),
    # whole seconds plus a fraction at or near a microsecond tie
    st.builds(lambda s, us, nudge: s + (us + nudge) / 1e6,
              st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
              st.sampled_from([0.5, -0.5, 0.4999999, 0.5000001, 0.0])),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=300)
@given(timestamps)
@example(0.0)
@example(-0.0)
@example(5e-7)
@example(-5e-7)
@example(1.5e-6)
@example(2.5e-6)
@example(0.9999995)
@example(-0.9999995)
@example(-1e-9)
@example(-1e-6)
@example(-1.4e-6)
@example(86399.9999996)
@example(-86400.0000004)
@example(1646640000.5)
@example(float(DATETIME_MIN))
@example(DATETIME_MAX - 1e-6)
def test_time_of_day_matches_datetime(timestamp):
    try:
        dt = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    except (OverflowError, ValueError, OSError):
        assume(False)
    day, seconds = _day_and_time(timestamp)
    assert seconds == oracles.seconds_since_midnight(timestamp)
    assert list(_weekdays([day])) == [dt.weekday()] == [oracles.weekday(timestamp)]
    assert day == (dt.date() - EPOCH).days


def test_far_timestamps_still_get_a_time_of_day():
    day, seconds = _day_and_time(1e300)
    assert 0 <= seconds < 86400 and 0 <= next(_weekdays([day])) < 7


WEEK_START = 1704067200  # 2024-01-01 00:00 UTC, a Monday
week = st.one_of(
    st.floats(WEEK_START - 86400, WEEK_START + 8 * 86400),
    # whole seconds, which window_cycle_lengths splits with integer divmod
    st.integers(WEEK_START - 86400, WEEK_START + 8 * 86400).map(float),
)
# The 08:00 and 21:00 edges and the first and last second of a Saturday.
WHOLE = [WEEK_START + 5 * 86400 + s for s in (0, 8 * 3600 - 1, 8 * 3600, 21 * 3600 - 1, 86399)]


@given(st.lists(st.tuples(week, st.floats(1.0, 300.0)), max_size=40),
       st.sampled_from(list(DayFilter)),
       st.sampled_from([600.0, 1800.0, 3600.0, 1234.5, 50000.0]))
@example([(float(t), 100.0 + i) for i, t in enumerate(WHOLE)], DayFilter.SATURDAY, 1800.0)
@example([(float(t), 100.0 + i) for i, t in enumerate(WHOLE)], DayFilter.ALL, 1234.5)
@example([(float(WHOLE[2]), 90.0), (WHOLE[2] + 0.5, 120.0), (WHOLE[3] + 0.9999995, 60.0)],
         DayFilter.SATURDAY, 3600.0)
@example([(WHOLE[1] + 0.9999996, 90.0), (float(WHOLE[2]), 120.0)], DayFilter.ALL, 600.0)
# A whole-second window over fractional timestamps: float time of day, so
# each window index is float floor division made an int.
@example([(WHOLE[2] + 0.25, 90.0), (WHOLE[2] + 1799.75, 95.0), (WHOLE[3] + 0.5, 120.0)],
         DayFilter.SATURDAY, 1800.0)
# Rows only before 08:00 or from 21:00: no window gets a row, on a kept day.
@example([(float(WHOLE[0]), 90.0), (float(WHOLE[1]), 95.0), (WHOLE[1] + 0.5, 97.0),
          (float(WHOLE[3] + 1), 120.0), (float(WHOLE[4]), 60.0)], DayFilter.SATURDAY, 600.0)
def test_windows_match_reference(samples, day_filter, window):
    _check_windows(samples, day_filter, window)


def _check_windows(samples, day_filter, window):
    records = [oracles.CycleRecord("A", cycle, 0.0, 0.0, {}, timestamp=timestamp)
               for timestamp, cycle in samples]
    assert (window_cycle_lengths(oracles.cycle_table(records), window, day_filter)
            == oracles.window_cycle_lengths(records, window, day_filter))


@pytest.mark.parametrize("samples", [
    [(float(t), 100.0 + i) for i, t in enumerate(WHOLE)],
    [(WHOLE[1] + 0.5, 90.0), (WHOLE[2] + 0.25, 95.0), (WHOLE[3] + 0.75, 120.0)],
    [(float(WHOLE[0]), 90.0), (float(WHOLE[4]), 60.0)],  # no row in any window
])
def test_one_second_windows_match_reference(samples):
    # The shortest window, 46,800 of them: a plain test, since building
    # them twice takes longer than a hypothesis example's deadline.
    _check_windows(samples, DayFilter.ALL, 1.0)
