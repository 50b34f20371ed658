import csv
import gc
import io
import math
import random
import tracemalloc

from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from intersection_analyzer import ingest as ingest_module
from intersection_analyzer import (
    ApproachConfig,
    CycleTable,
    Directionality,
    VehicleClass,
    ingest_approaches,
    ingest_cycles,
    scan_cycles,
)
from intersection_analyzer.errors import (
    AnalyzerError,
    InvariantViolation,
    SchemaViolation,
    UnknownApproach,
)
from intersection_analyzer.ingest import APPROACH_COLUMNS, _ENDS_QUOTED

HEADER = "approach_id,cycle_length_s,red_s,green_s,two_wheeler,auto_rickshaw,car,lcv,bus"

CONFIGS = {
    "SR1": ApproachConfig("SR1", "SSC", 3, Directionality.ONE_WAY, 10.5),
}


def ingest(text, configs=CONFIGS):
    return ingest_cycles(io.StringIO(text), configs)


def class_column(table, cls):
    """Each row's count of ``cls``."""
    return list(dict(zip(VehicleClass, table.counts))[cls])


def test_single_row():
    table = ingest(HEADER + "\nSR1,152,120,32,23,10,12,4,2\n")
    assert len(table) == 1
    assert table.approach_column() == (["SR1"], array("q", [0]))
    assert table.cycle_length == array("d", [152.0])
    assert table.green_time == array("d", [32.0])
    assert class_column(table, VehicleClass.TWO_WHEELER) == [23]
    assert table.row_totals() == [51]
    assert math.isnan(table.effective_green[0]) and math.isnan(table.exited_pcu[0])


def test_empty_stream_gives_empty_list():
    assert len(ingest("")) == 0
    assert len(ingest(HEADER + "\n")) == 0


def test_timing_invariant_reported_with_row_number():
    text = HEADER + "\nSR1,152,120,32,1,0,0,0,0\nSR1,152,140,30,1,0,0,0,0\n"
    with pytest.raises(InvariantViolation) as exc:
        ingest(text)
    assert exc.value.row == 3


def test_unknown_approach():
    with pytest.raises(UnknownApproach) as exc:
        ingest(HEADER + "\nZZ9,152,120,32,0,0,0,0,0\n")
    assert exc.value.row == 2


def test_negative_count_is_schema_violation():
    with pytest.raises(SchemaViolation):
        ingest(HEADER + "\nSR1,152,120,32,-1,0,0,0,0\n")


def test_count_beyond_the_int64_column_is_schema_violation():
    largest = ingest(HEADER + f"\nSR1,152,120,32,{2**63 - 1},0,0,0,0\n")
    assert largest.row_totals() == [2**63 - 1]
    with pytest.raises(SchemaViolation, match="count exceeds") as exc:
        ingest(HEADER + f"\nSR1,152,120,32,1,0,0,0,0\nSR1,152,120,32,0,{2**63},0,0,0\n")
    assert exc.value.row == 3


def test_non_numeric_cell():
    with pytest.raises(SchemaViolation):
        ingest(HEADER + "\nSR1,abc,120,32,0,0,0,0,0\n")


def test_non_finite_cell_rejected():
    with pytest.raises(SchemaViolation):
        ingest(HEADER + "\nSR1,nan,120,32,0,0,0,0,0\n")
    with pytest.raises(SchemaViolation):
        ingest(HEADER + "\nSR1,inf,120,32,0,0,0,0,0\n")


def test_missing_count_column_reads_as_zero():
    text = "approach_id,cycle_length_s,red_s,green_s,car\nSR1,152,120,32,7\n"
    table = ingest(text)
    assert class_column(table, VehicleClass.CAR) == [7]
    assert class_column(table, VehicleClass.BUS) == [0]


def test_unknown_column_rejected():
    with pytest.raises(SchemaViolation) as exc:
        ingest("approach_id,cycle_length_s,red_s,green_s,bogus\nSR1,152,120,32,1\n")
    assert exc.value.row == 1


def test_missing_required_column_rejected():
    with pytest.raises(SchemaViolation):
        ingest("approach_id,red_s,green_s\nSR1,120,32\n")


def test_optional_columns_parse():
    text = HEADER + ",effective_green_s,exited_pcu,timestamp\nSR1,152,120,32,0,0,0,0,0,24,48,1646640000\n"
    table = ingest(text)
    assert table.effective_green == array("d", [24.0])
    assert table.exited_pcu == array("d", [48.0])
    assert table.timestamp == array("d", [1646640000.0])


def test_scan_collects_every_problem():
    text = (HEADER + "\n"
            "SR1,152,120,32,1,0,0,0,0\n"
            "SR1,152,140,30,1,0,0,0,0\n"   # timing invariant
            "ZZ9,152,120,32,1,0,0,0,0\n"   # unknown approach
            "SR1,152,120,32,-3,0,0,0,0\n")  # negative count
    records, errors = scan_cycles(io.StringIO(text), CONFIGS)
    assert len(records) == 1
    assert [e.row for e in errors] == [3, 4, 5]
    assert isinstance(errors[0], InvariantViolation)
    assert isinstance(errors[1], UnknownApproach)
    assert isinstance(errors[2], SchemaViolation)


def test_bare_carriage_return_in_a_field_is_a_schema_violation():
    # A text stream that is not split on "\r" hands csv a field holding one.
    text = (HEADER + "\n"
            "SR1,152,120,32,1,0,0,0,0\n"
            "SR1,15\r2,120,32,1,0,0,0,0\n"
            "SR1,152,120,32,2,0,0,0,0\n")
    records, errors = scan_cycles(io.StringIO(text), CONFIGS)
    assert len(records) == 2
    assert [type(e) for e in errors] == [SchemaViolation]
    assert errors[0].row == 3
    assert "unreadable CSV row" in str(errors[0])

    approaches = ("approach_id,intersection_id,lanes,directionality,width_m,free_left,is_major\n"
                  "SR1,SS\rC,3,oneway,10.5,1,0\n")
    with pytest.raises(SchemaViolation) as exc:
        ingest_approaches(io.StringIO(approaches))
    assert exc.value.row == 2

    records, errors = scan_cycles(io.StringIO("approach_id,cycle\r_length_s\n"))
    assert len(records) == 0 and [e.row for e in errors] == [1]
    with pytest.raises(SchemaViolation) as exc:
        ingest_approaches(io.StringIO("approach_id,inter\rsection_id\n"))
    assert exc.value.row == 1


OVERSIZED_CELL = "9" * 140_000  # over the csv module's 131,072-character field limit


@pytest.mark.parametrize("closing", ['999",', '999"', '9""9",7'])
def test_no_line_inside_an_unterminated_quoted_field_becomes_a_row(closing):
    text = ("approach_id,cycle_length_s,red_s,green_s,car\n"
            "SR1,152,120,32,1\n"
            f'SR1,152,120,32,"{OVERSIZED_CELL}\n'
            "SR1,120,80,35,5\n"
            f"{closing}\n"
            "SR1,152,120,32,3\n"
            "SR1,152,120,32,x\n")
    records, errors = scan_cycles(io.StringIO(text), CONFIGS)
    assert class_column(records, VehicleClass.CAR) == [1, 3]
    assert [(type(e), e.row) for e in errors] == [(SchemaViolation, 3), (SchemaViolation, 7)]
    assert "field larger than field limit" in str(errors[0])
    assert "not an integer: 'x'" in str(errors[1])


def test_a_quoted_field_closed_on_its_own_line_skips_nothing():
    text = ("approach_id,cycle_length_s,red_s,green_s,car\n"
            f'SR1,152,120,32,"{OVERSIZED_CELL}"\n'
            "SR1,152,120,32,3\n")
    records, errors = scan_cycles(io.StringIO(text), CONFIGS)
    assert len(records) == 1 and [e.row for e in errors] == [2]


CYCLE_HEADER = "approach_id,cycle_length_s,red_s,green_s,car\n"
APPROACH_HEADER = ",".join(APPROACH_COLUMNS) + "\n"


def test_a_row_after_a_field_spanning_lines_names_the_line_it_is_on():
    text = CYCLE_HEADER + '"SR\n1",152,120,32,1\nSR1,152,120,32,x\n'
    _, errors = scan_cycles(io.StringIO(text))
    assert [(type(e), e.row) for e in errors] == [(SchemaViolation, 4)]
    _, errors = scan_cycles(io.StringIO(text.replace("approach_id", '"approach_id\n"', 1)))
    assert [e.row for e in errors] == [5]

    text = APPROACH_HEADER + '"A\n1",I,1,oneway,3.5,0,0\nB,I,x,oneway,3.5,0,0\n'
    with pytest.raises(SchemaViolation, match="lanes: not an integer") as exc:
        ingest_approaches(io.StringIO(text))
    assert exc.value.row == 4


def test_an_unreadable_row_after_a_field_spanning_lines_names_the_line_it_is_on():
    text = CYCLE_HEADER + '"SR\n1",152,120,32,1\nSR1,15\r2,120,32,1\nSR1,152,120,32,x\n'
    _, errors = scan_cycles(io.StringIO(text))
    assert [e.row for e in errors] == [4, 5]
    assert "unreadable CSV row" in str(errors[0])

    text = APPROACH_HEADER + '"A\n1",I,1,oneway,3.5,0,0\nB,I\rJ,1,oneway,3.5,0,0\n'
    with pytest.raises(SchemaViolation, match="unreadable CSV row") as exc:
        ingest_approaches(io.StringIO(text))
    assert exc.value.row == 4


csv_lines = st.lists(
    st.text(alphabet='ab,"', max_size=8).map(lambda line: line + "\n"), min_size=1, max_size=4)


@given(csv_lines)
def test_quote_tracking_ends_records_where_csv_does(lines):
    reader = csv.reader(lines)
    record_ends = [reader.line_num for _ in reader]
    quoted, ends = False, []
    for number, line in enumerate(lines, start=1):
        quoted = bool(_ENDS_QUOTED.fullmatch('"' + line if quoted else line))
        if not quoted or number == len(lines):
            ends.append(number)
    assert ends == record_ends


def dirty_cycle_file(rows, seed):
    """A deterministic cycle CSV with the five bad-row kinds of the bench's
    dirty workload at about 1% each, empty count and optional cells, and
    blank rows."""
    rng = random.Random(seed)
    columns = HEADER.split(",") + ["effective_green_s", "exited_pcu", "timestamp"]
    lines = [",".join(columns)]
    for _ in range(rows):
        cycle = round(rng.uniform(60, 180), 1)
        green = round(cycle * rng.uniform(0.2, 0.5), 1)
        red = round(cycle - green - rng.uniform(0, 5), 1)
        cells = [rng.choice(["SR1", "SR2", "SR3"]), f"{cycle:.1f}", f"{red:.1f}", f"{green:.1f}"]
        cells += [str(rng.randrange(40)) for _ in range(5)]
        cells += [f"{green * rng.uniform(0.8, 1.0):.1f}", f"{rng.uniform(0, 60):.2f}",
                  str(1704067200 + rng.randrange(7 * 86400))]
        for at in range(4, len(cells)):
            if rng.random() < 0.03:
                cells[at] = rng.choice(["", " "])
        roll = rng.random()
        if roll < 0.01:
            cells[1] = "n/a"
        elif roll < 0.02:
            cells.pop()
        elif roll < 0.03:
            cells[4 + 2] = "-3"
        elif roll < 0.04:
            cells[2] = f"{cycle - green + 5.0:.1f}"
        elif roll < 0.05:
            cells[0] = "UNKNOWN" + cells[0]
        elif roll < 0.06:
            cells = rng.choice([[], [""] * len(cells), [" "]])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("configs", [None, {
    approach_id: ApproachConfig(approach_id, "SSC", 2, Directionality.ONE_WAY, 7.0)
    for approach_id in ("SR1", "SR2", "SR3")
}], ids=["no_configs", "configs"])
def test_a_long_dirty_file_matches_the_reference_parser(configs):
    text = dirty_cycle_file(5000, seed=10)
    table, errors = scan_cycles(io.StringIO(text), configs)
    expected_records, expected_errors = oracles.scan_cycles(io.StringIO(text), configs)
    assert len(table) > 4500 and len(errors) > 200
    assert oracles.columns(table) == oracles.columns(expected_records)
    assert ([(type(e), str(e), e.row) for e in errors]
            == [(type(e), str(e), e.row) for e in expected_errors])


def test_kept_errors_do_not_keep_the_rows_alive():
    text = dirty_cycle_file(5000, seed=11)
    tracemalloc.start()
    try:
        table, errors = scan_cycles(io.StringIO(text))
        count = len(errors)
        del table
        gc.collect()
        with_errors = tracemalloc.get_traced_memory()[0]
        del errors
        gc.collect()
        held = with_errors - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # The errors themselves take well under 2 KB each; the rows they came
    # from take about 2.5 MB.
    assert count > 200 and held < 2000 * count


def test_ingest_approaches_round():
    text = ("approach_id,intersection_id,lanes,directionality,width_m,free_left,is_major\n"
            "SR1,SSC,3,oneway,10.5,1,0\n"
            "SR3,SSC,1,twoway,3.5,0,0\n")
    configs = ingest_approaches(io.StringIO(text))
    assert configs["SR1"].free_left and not configs["SR1"].is_major
    assert configs["SR3"].directionality is Directionality.TWO_WAY


def test_duplicate_approach_rejected():
    text = ("approach_id,intersection_id,lanes,directionality,width_m,free_left,is_major\n"
            "SR1,SSC,3,oneway,10.5,1,0\n"
            "SR1,SSC,2,oneway,7.0,0,0\n")
    with pytest.raises(SchemaViolation) as exc:
        ingest_approaches(io.StringIO(text))
    assert exc.value.row == 3


# Approach files with every kind of bad row, parsed in batches of a few rows,
# against the row-by-row parser kept in the oracles: the same mapping, or
# the same first error.

# column -> cells that pass its check, and cells that fail it
GOOD_CELLS = {
    "lanes": ["1", "2", "3", " 2 "],
    "directionality": ["oneway", "twoway", " twoway "],
    "width_m": ["3.5", "10", "7.25", " 1e2 "],
    "free_left": ["0", "1"],
    "is_major": ["0", "1", " 1"],
}
BAD_CELLS = {
    "approach_id": ["", "  "],
    "intersection_id": ["", " "],
    "lanes": ["0", "-1", "x", "1.5", ""],
    "directionality": ["diagonal", "", "ONEWAY"],
    "width_m": ["0", "-2", "inf", "nan", "wide", "", "1e400"],
    "free_left": ["2", "", "yes"],
    "is_major": ["-1", "", "true"],
}
# Ids the writer quotes (a comma, a quote, a line break) or that strip.
ID_STEMS = ["A", "B,", "C\n", 'D"', " E ", "F G", "Ü"]
INTERSECTIONS = ["I", "J,K", "L\nM", " N "]
BLANK_LINES = ["", "   ", ",,,,,,", " , ,,,,, "]
UNSPLITTABLE_LINE = "X9,I\rJ,1,oneway,3.5,0,0"  # a bare carriage return, unquoted


@st.composite
def approach_files(draw):
    names = draw(st.permutations(APPROACH_COLUMNS))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=end)
    writer.writerow(names)
    ids: list[str] = []
    for n in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["clean"] * 10 + ["bad", "duplicate", "blank", "fields",
                                                      "unsplittable"]))
        if kind == "blank":
            buffer.write(draw(st.sampled_from(BLANK_LINES)) + end)
            continue
        if kind == "unsplittable":
            buffer.write(UNSPLITTABLE_LINE + end)
            continue
        cells = {"approach_id": f"{draw(st.sampled_from(ID_STEMS))}{n}",
                 "intersection_id": draw(st.sampled_from(INTERSECTIONS))}
        cells.update((name, draw(st.sampled_from(choices))) for name, choices in GOOD_CELLS.items())
        if kind == "duplicate" and ids:
            cells["approach_id"] = draw(st.sampled_from(ids))
        if kind == "bad":
            # One or two failing cells: the first in check order must be reported.
            for name in draw(st.lists(st.sampled_from(sorted(BAD_CELLS)), min_size=1,
                                      max_size=2)):
                cells[name] = draw(st.sampled_from(BAD_CELLS[name]))
        row = [cells[name] for name in names]
        if kind == "fields":
            row = row[:-1] if draw(st.booleans()) else row + ["0"]
        ids.append(cells["approach_id"])
        writer.writerow(row)
    return buffer.getvalue()


def approach_outcome(parse, text):
    try:
        return list(parse(io.StringIO(text)).items())
    except AnalyzerError as err:
        return type(err), str(err), err.row


@settings(max_examples=500, deadline=None)
@given(text=approach_files(), batch=st.integers(1, 5))
@example(text="approach_id,intersection_id,lanes,directionality,width_m,free_left,is_major\n"
              "A,I,1,oneway,3.5,0,0\n"
              "B,I,1,oneway,3.5,0,0\n"
              "\n"
              "A,I,0,diagonal,-1,2,2\n", batch=2)
def test_batched_approach_parsing_matches_the_row_by_row_parser(text, batch):
    with mock.patch.object(ingest_module, "_BATCH_ROWS", batch):
        got = approach_outcome(ingest_approaches, text)
    assert got == approach_outcome(oracles.ingest_approaches, text)


def clean_approach_rows(count):
    return [[f"A{n}", "I", "2", "oneway", "3.5", "0", "1"] for n in range(count)]


@pytest.mark.parametrize("bad", [
    *({column: cell} for column, cells in BAD_CELLS.items() for cell in cells),
    # Two failing cells: the one checked first is reported.
    *({first: BAD_CELLS[first][0], second: BAD_CELLS[second][-1]}
      for i, first in enumerate(BAD_CELLS) for second in list(BAD_CELLS)[i + 1:]),
])
@pytest.mark.parametrize("batch", [1, 4, 256])
def test_a_bad_row_after_clean_rows_raises_the_row_parsers_error(bad, batch):
    rows = clean_approach_rows(6)
    rows[5] = [bad.get(name, cell) for name, cell in zip(APPROACH_COLUMNS, rows[5])]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([APPROACH_COLUMNS, *rows])
    with mock.patch.object(ingest_module, "_BATCH_ROWS", batch):
        got = approach_outcome(ingest_approaches, buffer.getvalue())
    assert got == approach_outcome(oracles.ingest_approaches, buffer.getvalue())
    assert got[2] == 7


def test_bad_directionality_rejected():
    text = ("approach_id,intersection_id,lanes,directionality,width_m,free_left,is_major\n"
            "SR1,SSC,3,diagonal,10.5,1,0\n")
    with pytest.raises(SchemaViolation):
        ingest_approaches(io.StringIO(text))


# --- round trip --------------------------------------------------------------

ids = st.sampled_from(["SR1"])
counts_strategy = st.fixed_dictionaries(
    {cls: st.integers(min_value=0, max_value=500) for cls in VehicleClass})


@st.composite
def records_strategy(draw):
    approach_id = draw(ids)
    cycle = draw(st.integers(min_value=30, max_value=300))
    green = draw(st.integers(min_value=1, max_value=cycle))
    red = draw(st.integers(min_value=0, max_value=cycle - green))
    counts = draw(counts_strategy)
    has_ge = draw(st.booleans())
    effective = draw(st.integers(min_value=0, max_value=green)) if has_ge else None
    exited = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=200)))
    ts = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2_000_000_000)))
    return oracles.CycleRecord(
        approach_id=approach_id,
        cycle_length=float(cycle),
        red_time=float(red),
        green_time=float(green),
        counts=counts,
        effective_green=None if effective is None else float(effective),
        exited_pcu=None if exited is None else float(exited),
        timestamp=None if ts is None else float(ts),
    )


@given(st.lists(records_strategy(), max_size=12))
def test_serialize_then_ingest_round_trips(records):
    text = oracles.cycles_to_csv(records)
    again = ingest_cycles(io.StringIO(text), CONFIGS)
    assert isinstance(again, CycleTable)
    assert oracles.columns(again) == oracles.columns(records)
    assert oracles.columns(oracles.cycle_table(records)) == oracles.columns(again)
