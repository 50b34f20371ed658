"""Half-up rounding on the shortest ``repr``, against the all-``Decimal``
reference in ``oracles.py``, and CSV documents against the ``csv.writer``
one kept there."""

import csv
import decimal
import io
import math
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from intersection_analyzer import (
    ApproachConfig, CycleTable, Directionality, analyze_records, load_config, report,
)
from intersection_analyzer.cli import ARTIFACTS
from intersection_analyzer.report import (
    fmt, fmt_column, fmt_g, fmt_g_column, fmt_int, fmt_int_column, round_half_up,
)

PLACES = st.integers(0, 4)
# The largest k whose tie k5e-(places+1) lies below 2**32 / 10**(places+1),
# the magnitude up to which ``fmt_column`` finds ties by arithmetic.
TIE_BOUND_K = 2**32 // 10
# 525 x each one-decimal width below 400 m: the width saturation flow,
# printed at 0 places, a tie at every odd tenth.
WIDTH_FLOWS = [525 * (n / 10) for n in range(1, 4000)]


def test_fmt_prints_the_rounded_decimal():
    # A float this large carries binary digits past the fourth decimal place.
    assert fmt(63077183662214.02, 4) == "63077183662214.0200"
    assert fmt(2.675, 2) == "2.68"
    assert fmt(-0.004, 2) == "-0.00"
    assert fmt(12.5, 0) == "13"
    assert fmt_int(12.5) == "13"
    assert round_half_up(2.675, 2) == 2.68


def test_the_largest_double_keeps_every_digit():
    assert fmt(1.7976931348623157e308, 4) == "17976931348623157" + "0" * 292 + ".0000"
    assert round_half_up(-1.7976931348623157e308, 2) == -1.7976931348623157e308
    assert fmt_int(3.6e29) == str(int(3.6e29))


@st.composite
def ties(draw):
    """The double nearest a decimal tie ``k5e-(places+1)``, or one next to it."""
    places = draw(PLACES)
    k = draw(st.one_of(st.integers(-10**13, 10**13),
                       st.integers(TIE_BOUND_K - 30, TIE_BOUND_K + 30),
                       st.integers(-TIE_BOUND_K - 30, -TIE_BOUND_K + 30)))
    value = float(f"{k}5e-{places + 1}")
    step = draw(st.sampled_from([0.0, math.inf, -math.inf]))
    return (value if step == 0.0 else math.nextafter(value, step)), places


@st.composite
def near_zero(draw):
    """Zero of either sign, or a small negative that rounds to zero."""
    places = draw(PLACES)
    value = draw(st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-5 * 10.0**-(places + 1), 0.0)))
    return value, places


@st.composite
def near_limit(draw):
    """A value at, just inside or just outside the magnitude where ``fmt``
    stops rounding in C, or where C's rounding could first disagree with
    half-up."""
    places = draw(PLACES)
    limit = draw(st.sampled_from([2.0**32, 2.0**52])) / 10**(places + 1)
    value = draw(st.one_of(
        st.sampled_from([limit, math.nextafter(limit, 0.0), math.nextafter(limit, math.inf)]),
        st.floats(limit / 4, limit * 4)))
    return draw(st.sampled_from([value, -value])), places


def outcome(fn, *args):
    try:
        result = fn(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err)
    return repr(result) if isinstance(result, float) else result


@settings(max_examples=1000, deadline=None)
@given(case=st.one_of(st.tuples(st.floats(allow_infinity=False), PLACES),
                      ties(), near_zero(), near_limit()))
@example(case=(2.675, 2))
@example(case=(0.125, 2))
@example(case=(-2.5, 0))
@example(case=(1e28, 2))
@example(case=(5e-324, 4))
def test_fast_rounding_matches_the_decimal_reference(case):
    value, places = case
    got = (outcome(fmt, value, places), outcome(round_half_up, value, places),
           outcome(fmt_int, value))
    # The reference quantizes under the current context; widen it so that it
    # has an answer for every finite double.
    with decimal.localcontext(decimal.Context(prec=400)):
        expected = (outcome(oracles.fmt, value, places),
                    outcome(oracles.round_half_up, value, places),
                    outcome(oracles.fmt_int, value))
    assert got == expected


@st.composite
def columns(draw):
    """A column mixing every kind of value above, with repeats, NaN and the
    infinities."""
    places = draw(PLACES)
    pool = draw(st.lists(st.one_of(
        st.floats(allow_infinity=False),
        ties().map(lambda case: case[0]),
        near_zero().map(lambda case: case[0]),
        near_limit().map(lambda case: case[0]),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 2.675, 0.125])),
        min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), max_size=30)), places


def absent_or(format_one):
    return lambda value: "" if math.isnan(value) else format_one(value)


@settings(max_examples=500, deadline=None)
@given(case=columns())
@example(case=([0.0, -0.0, 1.5, 0.0], 1))
@example(case=([-0.0, 0.0], 2))
@example(case=([math.nan, 1e300, 2.5], 0))
def test_column_formatting_matches_fmt_value_by_value(case):
    values, places = case
    assert fmt_column(values, places) == list(map(absent_or(lambda v: fmt(v, places)), values))
    assert fmt_g_column(values) == list(map(absent_or(fmt_g), values))
    # An infinity has no integer: both raise OverflowError.
    assert (outcome(fmt_int_column, values)
            == outcome(lambda: list(map(absent_or(fmt_int), values))))


def tie_cases():
    """Each half-up tie ``k5e-(places+1)`` for k below 10**4, next to the
    bound of ``fmt``'s arithmetic tie test, below 2**40 / 10**(places+1),
    where that test would miss some ties, and next to the magnitude where C
    rounding could first disagree with half-up, at places 0-4, and the
    width saturation flows."""
    for places in range(5):
        limit_k = int(2.0**52 / 10**(places + 1) * 10**places)
        ks = chain(range(10**4), range(TIE_BOUND_K - 300, TIE_BOUND_K + 100),
                   range(2**40 // 10 - 300, 2**40 // 10), range(limit_k - 300, limit_k + 100))
        yield places, [float(f"{k}5e-{places + 1}") for k in ks]
    yield 0, WIDTH_FLOWS


def signed_neighbours(values):
    """Each value, and the doubles on either side of it, with both signs."""
    near = [v for value in values
            for v in (value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf))]
    return near + [-v for v in near]


@pytest.mark.parametrize("places, ties", tie_cases())
def test_ties_and_their_neighbours_round_half_up(places, ties):
    values = signed_neighbours(ties)
    with decimal.localcontext(decimal.Context(prec=400)):
        expected = [oracles.fmt(v, places) for v in values]
    assert [fmt(v, places) for v in values] == expected
    assert fmt_column(values, places) == expected
    if places == 0:
        assert fmt_int_column(values) == list(map(fmt_int, values))


SPECIALS = {math.inf: "Infinity", -math.inf: "-Infinity"}


@pytest.mark.parametrize("places", range(5))
@pytest.mark.parametrize("specials", [[math.nan, -0.0], [-0.0, math.inf, math.nan, -math.inf]])
@pytest.mark.parametrize("specials_first", [False, True])
def test_ties_mixed_with_nan_infinities_and_negative_zero(places, specials, specials_first):
    # NaN after a finite value leaves a column in range; NaN first, or an
    # infinity, sends it the long way.
    values = signed_neighbours([float(f"{k}5e-{places + 1}")
                                for k in (0, 7, 12, TIE_BOUND_K - 1, TIE_BOUND_K, TIE_BOUND_K + 1)])
    values = specials + values if specials_first else values + specials
    with decimal.localcontext(decimal.Context(prec=400)):
        assert fmt_column(values, places) == [
            "" if math.isnan(v) else SPECIALS.get(v) or oracles.fmt(v, places) for v in values]
        if math.inf in values:
            with pytest.raises(OverflowError):
                fmt_int_column(values)
        else:
            assert fmt_int_column(values) == [
                "" if math.isnan(v) else oracles.fmt_int(v) for v in values]


def finer_formats(monkeypatch, places):
    """The values ``report`` formats at ``places + 1`` decimals from now on."""
    finer, values = f".{places + 1}f", []

    def counting_format(value, spec=""):
        if spec == finer:
            values.append(value)
        return format(value, spec)

    monkeypatch.setattr(report, "format", counting_format, raising=False)
    return values


def test_only_possible_ties_are_formatted_twice(monkeypatch):
    # 1000 * n/3 lies at least 5/3 from any odd multiple of 5: no candidate.
    checked = finer_formats(monkeypatch, 2)
    fmt_column([n / 3 for n in range(4000)], 2)
    assert checked == []

    checked = finer_formats(monkeypatch, 0)
    fmt_int_column(WIDTH_FLOWS)
    ties = [v for v in WIDTH_FLOWS if (digits := f"{v:.1f}")[-1] == "5" and float(digits) == v]
    # No value here is flagged without being a tie.
    assert len(ties) == 2000 and checked == ties


CELLS = st.text(alphabet=st.sampled_from(list('ab ,"\n\r\tÉΩ5')), max_size=5)


@st.composite
def documents(draw):
    """A header and rows of 2-4 cells each, holding every character the csv
    module quotes on some Python version."""
    width = draw(st.integers(2, 4))
    row = st.lists(CELLS, min_size=width, max_size=width)
    return draw(row), draw(st.lists(row, max_size=12))


@settings(max_examples=300, deadline=None)
@given(document=documents(), chunk=st.integers(1, 4))
@example(document=(["a,b", "c"], [["x\r", 'y"'], ["", ""], ["\n", " "]]), chunk=1)
def test_csv_documents_match_the_csv_writer(document, chunk):
    header, rows = document
    with mock.patch.object(report, "_CHUNK_ROWS", chunk):
        assert report._csv_doc("t", header, iter(rows)) == oracles._csv_doc("t", header, rows)


def test_ids_holding_a_carriage_return_read_back_from_every_artifact():
    approach_id, intersection_id = "N\r1", "X\rY"
    approaches = {approach_id: ApproachConfig(
        approach_id, intersection_id, 1, Directionality.TWO_WAY, 3.5, is_major=True)}
    table = CycleTable()
    table.append(approach_id, 100.0, 40.0, 50.0, (6, 4, 5, 2, 1), 45.0, 20.0)
    result = analyze_records(table, approaches, load_config())
    for name, build in ARTIFACTS.items():
        if not name.endswith(".csv"):
            continue
        _, header, *rows = csv.reader(io.StringIO(build(result, 13.0), newline=""))
        assert rows and all(len(row) == len(header) for row in rows), name
        for column, value in (("approach_id", approach_id), ("intersection_id", intersection_id)):
            if column in header:
                assert {row[header.index(column)] for row in rows} == {value}, name
