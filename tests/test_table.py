"""The columnar ``CycleTable``: its columns, and the same results as the
reference parser and the scalar PCU functions."""

import io
import math
from array import array
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from intersection_analyzer import (
    ApproachConfig,
    CycleTable,
    Directionality,
    analyze_records,
    composition_shares,
    ingest_cycles,
    load_config,
    scan_cycles,
    to_pcu,
    window_cycle_lengths,
)
from intersection_analyzer.errors import AnalyzerError, InputError
from intersection_analyzer.ingest import CYCLE_COLUMNS
from intersection_analyzer.model import VEHICLE_CLASSES

FIXTURES = Path(__file__).parent / "fixtures"
CONFIGS = (load_config(), load_config(FIXTURES / "vehicles_config.json"))

APPROACHES = {
    "N1": ApproachConfig("N1", "X", 2, Directionality.ONE_WAY, 7.0, is_major=True),
    "S1": ApproachConfig("S1", "X", 1, Directionality.TWO_WAY, 3.5),
    "E1": ApproachConfig("E1", "Y", 3, Directionality.ONE_WAY, 10.5, is_major=True),
}


@st.composite
def analyzable_csv(draw):
    """A cycle CSV whose every row parses; some rows lack optional values."""
    timed = draw(st.sampled_from([True, True, False]))
    # Q9 has no configuration, so a few tables fail analysis with UnknownApproach.
    ids = st.sampled_from(["N1", "S1", "E1", "Q9"] if draw(st.integers(0, 9)) == 0
                          else ["N1", "S1", "E1"])
    lines = [",".join(CYCLE_COLUMNS)]
    for _ in range(draw(st.integers(1, 25))):
        cycle = draw(st.floats(30.0, 200.0))
        green = draw(st.floats(1.0, cycle / 2))
        red = draw(st.floats(0.0, cycle - green))
        counts = draw(st.lists(st.integers(0, 30), min_size=5, max_size=5))
        effective = draw(st.one_of(st.just(""), st.floats(0.0, green).map(repr)))
        exited = draw(st.one_of(st.just(""), st.floats(0.0, 60.0).map(repr)))
        timestamp = (draw(st.integers(1704067200, 1704067200 + 7 * 86400)) if timed
                     else draw(st.one_of(st.just(""), st.integers(0, 2 * 10**9))))
        cells = [draw(ids), repr(cycle), repr(red), repr(green),
                 *map(str, counts), effective, exited, str(timestamp)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def settle(fn, *args):
    try:
        return fn(*args)
    except AnalyzerError as err:
        return type(err), str(err)


@settings(max_examples=50, deadline=None)
@given(text=analyzable_csv())
def test_vehicles_mode_pcu_is_to_pcu_of_the_summed_counts_per_cycle(text):
    table = ingest_cycles(io.StringIO(text))
    config = CONFIGS[1]
    result = settle(analyze_records, table, APPROACHES, config)
    assume(not isinstance(result, tuple))
    ids, numbers = table.approach_column()
    rows = [(ids[n], dict(zip(VEHICLE_CLASSES, counts)))
            for n, counts in zip(numbers, zip(*table.counts))]
    a = result.by_approach
    for approach_id, intersection_id, pcu in zip(a.approach_id, a.intersection_id,
                                                 a.pcu_per_cycle):
        shares = composition_shares(
            counts for row_id, counts in rows
            if APPROACHES[row_id].intersection_id == intersection_id)
        own = [counts for row_id, counts in rows if row_id == approach_id]
        summed = {cls: sum(counts[cls] for counts in own) for cls in VEHICLE_CLASSES}
        assert pcu == to_pcu(summed, shares, config.pcu_factors) / len(own)


@st.composite
def float_row(draw):
    """A row for ``CycleTable.append``: any finite positive cycle length,
    timed between 08:00 and 09:00 on one of a week's days, so that rows share
    windows."""
    cycle = draw(st.one_of(st.floats(30.0, 200.0), st.floats(30.0, 200.0),
                           st.floats(0.0, exclude_min=True, allow_infinity=False)))
    green = draw(st.floats(0.0, cycle / 4))
    counts = draw(st.lists(st.integers(0, 30), min_size=5, max_size=5))
    effective = draw(st.one_of(st.just(math.nan), st.floats(0.0, green)))
    exited = draw(st.one_of(st.just(math.nan), st.floats(0.0, allow_infinity=False)))
    day = draw(st.integers(0, 6))
    timestamp = 1704096000.0 + 86400 * day + draw(st.floats(0.0, 3600.0))
    return draw(st.sampled_from(["N1", "S1", "E1"])), cycle, 0.0, green, counts, \
        effective, exited, timestamp


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(float_row(), min_size=1, max_size=20), data=st.data())
def test_row_order_changes_no_figure(rows, data):
    """Every float total is exact, so permuting the rows changes no bit of
    the analysis or of the windows."""
    tables = [CycleTable(), CycleTable()]
    for table, order in zip(tables, (rows, data.draw(st.permutations(rows)))):
        for row in order:
            table.append(*row)
    for config in CONFIGS:
        first, second = (repr(settle(lambda *args: oracles.as_reports(analyze_records(*args)),
                                     t, APPROACHES, config)) for t in tables)
        assert first == second
    for window in (600.0, 1800.0):
        first, second = (repr(settle(window_cycle_lengths, t, window)) for t in tables)
        assert first == second


def test_dirty_fixture_errors_match_reference(study_approaches):
    text = (FIXTURES / "dirty_cycles.csv").read_text()
    for configs in (study_approaches, None):
        table, errors = scan_cycles(io.StringIO(text), configs)
        records, expected = oracles.scan_cycles(io.StringIO(text), configs)
        assert errors and len(table) == len(records)
        assert ([(type(e), str(e), e.row) for e in errors]
                == [(type(e), str(e), e.row) for e in expected])


def test_no_timestamps_message_is_unchanged():
    text = ("approach_id,cycle_length_s,red_s,green_s,car,timestamp\n"
            "SR1,100,50,40,3,1646640000\nSR1,100,50,40,3,\nSR2,100,50,40,3,\n")
    table = ingest_cycles(io.StringIO(text))
    with pytest.raises(InputError) as exc:
        window_cycle_lengths(table)
    assert str(exc.value) == "2 of 3 records carry no timestamp"


def test_append_keeps_each_column():
    table = CycleTable()
    table.append("A1", 100.0, 40.0, 50.0, (1, 2, 3, 4, 5), 45.0, math.nan, 1646640000.0)
    table.append("B2", 90.0, 30.0, 40.0, (0,) * 5, exited_pcu=3.0)
    table.append("A1", 110.0, 40.0, 60.0, (0, 0, 7, 0, 0))
    assert len(table) == 3 and table
    assert not CycleTable()
    assert table.approach_column() == (["A1", "B2"], array("q", [0, 1, 0]))
    assert table.cycle_length == array("d", [100.0, 90.0, 110.0])
    assert table.green_time == array("d", [50.0, 40.0, 60.0])
    assert table.counts == tuple(array("q", column) for column in (
        [1, 0, 0], [2, 0, 0], [3, 0, 7], [4, 0, 0], [5, 0, 0]))
    assert [list(map(math.isnan, column)) for column in (
        table.effective_green, table.exited_pcu, table.timestamp)] == [
        [False, True, True], [True, False, True], [False, True, True]]
    assert table.untimed() == 2
    assert table.row_totals() == [15, 0, 7]


# Three rows, column by column in ``CycleTable.extend``'s argument order,
# with one entry per class column in place of its ``counts``: NaN, -0.0 and
# both infinities, and counts from 0 up to the largest array('q') holds.
ROWS_BY_COLUMN = {
    "cycle_length": ("d", [100.0, -0.0, math.inf]),
    "green_time": ("d", [-math.inf, 0.0, 1e-300]),
    "two_wheeler": ("q", [0, 0, 2**63 - 1]),
    "auto_rickshaw": ("q", [1, 0, 7]),
    "car": ("q", [2, 0, 0]),
    "lcv": ("q", [3, 0, 5]),
    "bus": ("q", [2**63 - 1, 0, 1]),
    "effective_green": ("d", [math.nan, -0.0, 5e-324]),
    "exited_pcu": ("d", [math.nan, math.inf, 1.5]),
    "timestamp": ("d", [1646640000.0, math.nan, -math.inf]),
}
CLASS_NAMES = [cls.value for cls in VEHICLE_CLASSES]
INPUT_KINDS = ("list", "tuple", "array", "generator")


def as_kind(kind, typecode, values):
    if kind == "array":
        return array(typecode, values)
    if kind == "generator":
        return (value for value in values)
    return {"list": list, "tuple": tuple}[kind](values)


def extend(table, approach_ids, columns):
    """``table.extend`` with ``columns`` keyed as ``ROWS_BY_COLUMN``, the
    class columns given together as its ``counts``."""
    values = list(columns.values())
    table.extend(approach_ids, *values[:2], values[2:7], *values[7:])


def column_bytes(table):
    ids, numbers = table.approach_column()
    columns = dict(zip(CLASS_NAMES, table.counts))
    return list(ids), numbers.tobytes(), {
        name: (columns[name] if name in columns else getattr(table, name)).tobytes()
        for name in ROWS_BY_COLUMN}


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_extend_stores_the_bytes_an_array_stores_from_every_input_kind(kind):
    table = CycleTable()
    extend(table, ["N1", "S1", "N1"], {
        name: as_kind(kind, typecode, values)
        for name, (typecode, values) in ROWS_BY_COLUMN.items()})
    assert column_bytes(table) == (["N1", "S1"], array("q", [0, 1, 0]).tobytes(), {
        name: array(typecode, values).tobytes()
        for name, (typecode, values) in ROWS_BY_COLUMN.items()})


@pytest.mark.parametrize("kind", ["list", "tuple", "generator"])
@pytest.mark.parametrize("column, value, error", [
    ("cycle_length", "100", TypeError),
    ("green_time", None, TypeError),
    ("timestamp", 10**400, OverflowError),
    ("bus", 2**63, OverflowError),
    ("car", "3", TypeError),
    ("two_wheeler", None, TypeError),
    ("lcv", 1.0, TypeError),
])
def test_a_value_an_array_rejects_raises_its_error_and_adds_nothing(kind, column, value, error):
    table = CycleTable()
    table.append("N1", 100.0, 50.0, 40.0, (1, 2, 3, 4, 5), 35.0, 10.0, 1646640000.0)
    before = column_bytes(table)
    columns = {name: list(values) for name, (_, values) in ROWS_BY_COLUMN.items()}
    columns[column][-1] = value
    with pytest.raises(error) as exc:
        extend(table, ["Q9", "S1", "N1"], {
            name: as_kind(kind, None, values) for name, values in columns.items()})
    assert type(exc.value) is error
    assert column_bytes(table) == before and len(table) == 1


@pytest.mark.parametrize("column, size, message", [
    ("cycle_length", 2, "cycle_length holds 2 values, not 3"),
    ("timestamp", 4, "timestamp holds 4 values, not 3"),
    ("car", 2, "car counts holds 2 values, not 3"),
    ("counts", 4, "counts holds 4 columns, not 5"),
    ("counts", 6, "counts holds 6 columns, not 5"),
], ids=["cycle_length-2", "timestamp-4", "car-2", "counts-4", "counts-6"])
def test_a_column_of_the_wrong_length_raises_and_adds_nothing(column, size, message):
    table = CycleTable()
    table.append("N1", 100.0, 50.0, 40.0, (1, 2, 3, 4, 5), 35.0, 10.0, 1646640000.0)
    before = column_bytes(table)
    columns = {name: values for name, (_, values) in ROWS_BY_COLUMN.items()}
    if column in columns:
        columns[column] = (columns[column] * 2)[:size]
    counts = [columns.pop(name) for name in CLASS_NAMES]
    if column == "counts":
        counts = (counts * 2)[:size]
    with pytest.raises(ValueError, match=f"^{message}$"):
        table.extend(["Q9", "S1", "N1"], columns["cycle_length"], columns["green_time"], counts,
                     columns["effective_green"], columns["exited_pcu"], columns["timestamp"])
    assert column_bytes(table) == before and len(table) == 1
