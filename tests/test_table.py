"""The columnar ``CycleTable``: records on demand, and the same results as the
record-list entry points and the reference parser."""

import io
import math
from array import array
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from intersection_analyzer import (
    ApproachConfig,
    ClassifiedCount,
    CycleTable,
    Directionality,
    SignalCycleRecord,
    analyze_records,
    cli,
    composition_shares,
    ingest_cycles,
    load_config,
    scan_cycles,
    to_pcu,
    window_cycle_lengths,
)
from intersection_analyzer.errors import AnalyzerError, InputError
from intersection_analyzer.ingest import CYCLE_COLUMNS

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


@settings(max_examples=150, deadline=None)
@given(text=analyzable_csv())
def test_table_and_record_list_give_equal_results(text):
    table = ingest_cycles(io.StringIO(text))
    records = list(table)
    assert all(type(r) is SignalCycleRecord for r in records)
    for config in CONFIGS:
        assert (settle(analyze_records, table, APPROACHES, config)
                == settle(analyze_records, records, APPROACHES, config))
    for window in (600.0, 1800.0):
        assert (settle(window_cycle_lengths, table, window)
                == settle(window_cycle_lengths, records, window))


@settings(max_examples=50, deadline=None)
@given(text=analyzable_csv())
def test_vehicles_mode_pcu_is_to_pcu_of_the_summed_counts_per_cycle(text):
    table = ingest_cycles(io.StringIO(text))
    config = CONFIGS[1]
    result = settle(analyze_records, table, APPROACHES, config)
    assume(not isinstance(result, tuple))
    records = list(table)
    for report in result.approaches:
        shares = composition_shares(
            r.counts for r in records
            if APPROACHES[r.approach_id].intersection_id == report.intersection_id)
        own = [r for r in records if r.approach_id == report.approach_id]
        summed = ClassifiedCount(report.approach_id, {
            cls: sum(r.counts.counts[cls] for r in own) for cls in own[0].counts.counts})
        expected = to_pcu(summed, shares, config.pcu_factors) / len(own)
        assert report.green.pcu_per_cycle == expected


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
        first, second = (repr(settle(analyze_records, t, APPROACHES, config)) for t in tables)
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


def test_indexing_builds_the_reference_records():
    for name in ("study_cycles.csv", "synthetic_week_cycles.csv", "dirty_cycles.csv"):
        text = (FIXTURES / name).read_text()
        table, _ = scan_cycles(io.StringIO(text))
        records, _ = oracles.scan_cycles(io.StringIO(text))
        assert len(table) == len(records) > 0
        for i, record in enumerate(records):
            assert table[i] == record
            assert table[i - len(records)] == record
        assert table[1:3] == records[1:3]
        assert list(table) == records and table == records and records == table
        with pytest.raises(IndexError):
            table[len(records)]


def test_from_records_round_trips_and_keeps_a_table():
    counts = ClassifiedCount("A1", {}, 1646640000.0)
    records = [
        SignalCycleRecord("A1", 100.0, 40.0, 50.0, counts, effective_green=45.0),
        SignalCycleRecord("B2", 90.0, 30.0, 40.0, ClassifiedCount("B2", {}), exited_pcu=3.0),
        SignalCycleRecord("A1", 110.0, 40.0, 60.0, counts),
    ]
    table = CycleTable.from_records(records)
    assert table == records and table != records[:2] and table != records[::-1]
    assert CycleTable.from_records(table) is table
    assert table.approach_column() == (["A1", "B2"], array("q", [0, 1, 0]))
    assert table.untimed() == 1
    assert table.row_totals() == [0, 0, 0]


def test_no_timestamps_message_is_unchanged():
    text = ("approach_id,cycle_length_s,red_s,green_s,car,timestamp\n"
            "SR1,100,50,40,3,1646640000\nSR1,100,50,40,3,\nSR2,100,50,40,3,\n")
    table = ingest_cycles(io.StringIO(text))
    for records in (table, list(table)):
        with pytest.raises(InputError) as exc:
            window_cycle_lengths(records)
        assert str(exc.value) == "2 of 3 records carry no timestamp"


WEEK = ["--cycles", str(FIXTURES / "synthetic_week_cycles.csv"),
        "--approaches", str(FIXTURES / "synthetic_week_approaches.csv")]
STUDY = ["--cycles", str(FIXTURES / "study_cycles.csv"),
         "--approaches", str(FIXTURES / "study_approaches.csv")]


def test_cli_builds_no_record_per_row(monkeypatch, tmp_path):
    built = {SignalCycleRecord: 0, ClassifiedCount: 0}
    for cls in built:
        def counting(self, post_init=cls.__post_init__, cls=cls):
            built[cls] += 1
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counting)

    def run(*argv):
        for cls in built:
            built[cls] = 0
        assert cli.main(list(argv)) == 0
        return built[SignalCycleRecord], built[ClassifiedCount]

    out = ["--out", str(tmp_path)]
    # 364 rows over 2 approaches, and 9 rows over 9 approaches
    assert run("validate", *WEEK) == (0, 0)
    assert run("peak-hours", *WEEK, *out) == (0, 0)
    assert run("variability", *WEEK, *out) == (0, 0)
    # the report sums class counts as columns, in pcu and in vehicles mode
    assert run("report", *WEEK, *out) == (0, 0)
    assert run("report", *STUDY, *out) == (0, 0)
    vehicles = ["--config", str(FIXTURES / "vehicles_config.json")]
    assert run("report", *STUDY, *vehicles, *out) == (0, 0)
