import math
import operator
import random
import statistics
import sys
from datetime import datetime, timezone

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from intersection_analyzer import (
    CycleTable,
    DayFilter,
    WindowedAverage,
    five_number,
    pairwise_z_matrix,
    peak_window,
    summarize,
    window_cycle_lengths,
    z_test,
)
from intersection_analyzer.errors import InputError
from intersection_analyzer.stats import P_VALUE_FLOOR, SampleSummary


def ts(day: str, hh: int, mm: int) -> float:
    stamp = datetime.strptime(day, "%Y-%m-%d").replace(
        hour=hh, minute=mm, tzinfo=timezone.utc)
    return stamp.timestamp()


def record(cycle: float, timestamp: float | None = None) -> tuple[float, float | None]:
    """One row for ``table``: a cycle length and its timestamp, None if absent."""
    return cycle, timestamp


def table(records) -> CycleTable:
    rows = CycleTable()
    for cycle, timestamp in records:
        rows.append("A1", cycle, 0.0, 0.0, (0,) * 5,
                    timestamp=math.nan if timestamp is None else timestamp)
    return rows


def two_tailed_oracle(z: float) -> float:
    """Independent normal tail mass via arbitrary-precision erfc."""
    with mpmath.workdps(50):
        return float(mpmath.erfc(abs(z) / mpmath.sqrt(2)))


MON, TUE = "2022-03-07", "2022-03-08"
SAT, SUN = "2022-03-12", "2022-03-13"


# --- windowing ---------------------------------------------------------------

def test_window_mean_of_two_records():
    records = [record(150.0, ts(TUE, 11, 5)), record(154.0, ts(TUE, 11, 20))]
    windows = window_cycle_lengths(table(records), 1800.0)
    assert len(windows) == 26  # 08:00..21:00 in half hours
    eleven = [w for w in windows if w.window_start == 11 * 3600][0]
    assert eleven.mean_cycle_length == pytest.approx(152.0)
    assert eleven.sample_count == 2
    empty = [w for w in windows if w.sample_count == 0]
    assert all(w.mean_cycle_length is None for w in empty)


def test_empty_records_empty_output():
    assert window_cycle_lengths(table([]), 1800.0) == []


def test_missing_timestamps_raise():
    with pytest.raises(InputError, match="1 of 1 records carry no timestamp"):
        window_cycle_lengths(table([record(150.0, None)]), 1800.0)


@pytest.mark.parametrize("window, message", [
    (0.0, "window must be > 0, got 0"),
    (-5.0, "window must be > 0, got -5"),
    (math.nan, "window must be a finite number of seconds >= 1, got nan"),
    (math.inf, "window must be a finite number of seconds >= 1, got inf"),
    (1e-300, "window must be a finite number of seconds >= 1, got 1e-300"),
    (0.999, "window must be a finite number of seconds >= 1, got 0.999"),
])
def test_window_must_be_finite_seconds_of_at_least_one(window, message):
    # checked before the records, so an empty list still fails
    for records in ([], [record(150.0, ts(TUE, 11, 5))]):
        with pytest.raises(InputError) as err:
            window_cycle_lengths(table(records), window)
        assert str(err.value) == message


def test_one_second_windows_tile_the_operating_day():
    windows = window_cycle_lengths(table([record(150.0, ts(TUE, 20, 59) + 59)]), 1.0)
    assert len(windows) == 13 * 3600
    assert windows[-1].window_start == 21 * 3600 - 1 and windows[-1].sample_count == 1


def test_day_filter():
    records = [
        record(140.0, ts(MON, 9, 0)),
        record(100.0, ts(SAT, 9, 0)),
        record(80.0, ts(SUN, 9, 0)),
    ]
    for day, expected in ((DayFilter.WEEKDAY, 140.0),
                          (DayFilter.SATURDAY, 100.0),
                          (DayFilter.SUNDAY, 80.0)):
        windows = window_cycle_lengths(table(records), 1800.0, day)
        nine = [w for w in windows if w.window_start == 9 * 3600][0]
        assert nine.mean_cycle_length == expected
        assert nine.sample_count == 1
    nine_all = [w for w in window_cycle_lengths(table(records), 1800.0)
                if w.window_start == 9 * 3600][0]
    assert nine_all.sample_count == 3


def test_records_outside_operating_span_ignored():
    records = [record(150.0, ts(TUE, 7, 30)), record(90.0, ts(TUE, 9, 0))]
    windows = window_cycle_lengths(table(records), 1800.0)
    assert sum(w.sample_count for w in windows) == 1


def test_elevated_midday_block_lands_in_exactly_four_windows():
    records = []
    for hh in range(8, 21):
        for mm in (0, 30):
            elevated = 11 * 3600 <= hh * 3600 + mm * 60 < 13 * 3600
            records.append(record(160.0 if elevated else 100.0, ts(TUE, hh, mm)))
    windows = window_cycle_lengths(table(records), 1800.0)
    elevated_starts = [w.window_start for w in windows
                       if w.mean_cycle_length == 160.0]
    assert elevated_starts == [39600.0, 41400.0, 43200.0, 45000.0]


# --- peak window -------------------------------------------------------------

def make_windows(means, start=8 * 3600, width=1800.0):
    return [
        WindowedAverage(start + i * width, width, m, 0 if m is None else 1)
        for i, m in enumerate(means)
    ]


def test_peak_unique_maximum_run():
    windows = make_windows([100, 100, 160, 160, 160, 160, 100])
    start, end = peak_window(windows, 4)
    assert start == windows[2].window_start
    assert end == windows[5].window_start + 1800.0


def test_peak_tie_breaks_to_earliest():
    windows = make_windows([5, 5, 5, 5])
    start, end = peak_window(windows, 2)
    assert start == windows[0].window_start
    assert end == windows[1].window_start + 1800.0


def test_peak_insufficient_windows():
    with pytest.raises(InputError, match="need at least 3 windows, have 2"):
        peak_window(make_windows([1, 2]), 3)
    with pytest.raises(InputError, match="no run of 2 consecutive windows has data"):
        peak_window(make_windows([1, None, 2]), 2)


def test_peak_on_synthetic_week_fixture(week_records):
    windows = window_cycle_lengths(week_records, 1800.0, DayFilter.WEEKDAY)
    start, end = peak_window(windows, 4)
    assert (start, end) == (11 * 3600, 13 * 3600)


def test_peak_invariant_under_uniform_scaling():
    means = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    base = peak_window(make_windows(means), 3)
    scaled = peak_window(make_windows([m * 17.5 for m in means]), 3)
    assert base == scaled


def test_peak_matches_exhaustive_scan_oracle():
    rng = random.Random(20220307)
    for _ in range(50):
        n = rng.randint(6, 26)
        means = [float(rng.randint(80, 200)) for _ in range(n)]
        span = rng.randint(1, n)
        windows = make_windows(means)
        start, end = peak_window(windows, span)
        # oracle: scan every run, exact integer sums, first maximal run wins
        sums = [sum(means[i:i + span]) for i in range(n - span + 1)]
        best = sums.index(max(sums))
        assert start == windows[best].window_start
        assert end == windows[best + span - 1].window_start + 1800.0


# --- z test ------------------------------------------------------------------

def test_identical_samples_give_p_one():
    sample = [1.0, 2.0, 3.0, 4.0]
    outcome = z_test(sample, list(sample))
    assert outcome.z_statistic == 0.0
    assert outcome.p_value == 1.0


def test_separated_means_fixture():
    # mean 0 vs mean 1, sample variance exactly 1, n = 100 each
    c = math.sqrt(0.99)  # 100 * c^2 / 99 = 1
    a = [-c, c] * 50
    b = [x + 1.0 for x in a]
    outcome = z_test(a, b)
    expected_z = -1.0 / math.sqrt(2 / 100)
    assert outcome.z_statistic == pytest.approx(expected_z, rel=1e-12)
    assert outcome.z_statistic == pytest.approx(-7.07, abs=2e-3)
    assert outcome.p_value == pytest.approx(two_tailed_oracle(expected_z), rel=1e-10)
    assert outcome.p_value < 1e-11


def test_p_value_matches_independent_oracle_on_grid():
    for z in (0.0, 0.5, 1.0, 1.6448536269514722, 2.5, 4.0, 7.0, 12.0, 30.0):
        sample_a = [-1.0, 1.0] * 50
        scale = z * math.sqrt(2 * (100 / 99) / 100)
        sample_b = [x - scale for x in sample_a]
        outcome = z_test(sample_a, sample_b)
        assert outcome.z_statistic == pytest.approx(z, rel=1e-9, abs=1e-12)
        assert outcome.p_value == pytest.approx(
            max(two_tailed_oracle(outcome.z_statistic), P_VALUE_FLOOR), rel=1e-9)


def test_too_few_samples():
    with pytest.raises(InputError, match="at least 2 observations per sample, got 1 and 2"):
        z_test([1.0], [1.0, 2.0])


def test_zero_variance_conventions():
    same = z_test([5.0, 5.0], [5.0, 5.0])
    assert same.z_statistic == 0.0 and same.p_value == 1.0
    apart = z_test([5.0, 5.0], [7.0, 7.0])
    assert apart.p_value == P_VALUE_FLOOR
    assert apart.z_statistic == -math.inf


def test_antisymmetry_exact():
    a = [3.0, 1.0, 4.0, 1.5]
    b = [2.0, 7.0, 1.0, 8.0, 2.0]
    ab = z_test(a, b)
    ba = z_test(b, a)
    assert ba.z_statistic == -ab.z_statistic
    assert ba.p_value == ab.p_value


def test_location_invariance_fixed_case():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    b = [3.0, 3.0, 4.0, 5.0, 5.0, 6.0]
    base = z_test(a, b)
    shifted = z_test([x + 100.0 for x in a], [x + 100.0 for x in b])
    assert shifted.z_statistic == pytest.approx(base.z_statistic, abs=1e-12)
    assert shifted.p_value == pytest.approx(base.p_value, rel=1e-12)


samples = st.lists(st.integers(min_value=-1000, max_value=1000).map(float),
                   min_size=2, max_size=40)


@given(samples, samples)
def test_antisymmetry_property(a, b):
    ab = z_test(a, b)
    ba = z_test(b, a)
    assert ba.z_statistic == -ab.z_statistic
    assert ba.p_value == ab.p_value


@given(samples, samples, st.integers(min_value=-1000, max_value=1000).map(float))
def test_location_invariance_property(a, b, shift):
    base = z_test(a, b)
    moved = z_test([x + shift for x in a], [x + shift for x in b])
    assert moved.z_statistic == pytest.approx(base.z_statistic, rel=1e-9, abs=1e-9)
    assert moved.p_value == pytest.approx(base.p_value, rel=1e-8, abs=1e-15)


def _z_outcome(sample_a, sample_b):
    """The result's exact repr, or the too-few-samples message."""
    try:
        return repr(z_test(sample_a, sample_b))
    except InputError as err:
        return f"InputError: {err}"


# Few distinct values, so constant (zero-variance) samples come up often.
loose_samples = st.lists(
    st.one_of(st.integers(min_value=-2, max_value=2).map(float),
              st.floats(min_value=-1e6, max_value=1e6)),
    max_size=12)


@given(loose_samples, loose_samples)
@example([5.0, 5.0], [5.0, 5.0])
@example([5.0, 5.0], [7.0, 7.0])
@example([7.0, 7.0, 7.0], [5.0, 5.0])
@example([1.0], [1.0])
@example([], [1.0, 2.0])
@example([1.0, 2.0], [3.0])
def test_summaries_give_the_same_z_test_as_raw_samples(a, b):
    expected = _z_outcome(a, b)
    assert _z_outcome(summarize(a), summarize(b)) == expected
    assert _z_outcome(summarize(a), b) == expected
    assert _z_outcome(a, summarize(b)) == expected


# --- pairwise matrix ---------------------------------------------------------

def test_pairwise_identical_pair():
    matrix = pairwise_z_matrix({"A": [1.0, 2.0, 3.0], "B": [1.0, 2.0, 3.0]})
    assert matrix == {("B", "A"): 1.0}


def test_pairwise_three_approaches_one_separated():
    near_a = [10.0, 11.0, 10.5, 9.5, 10.0, 10.6]
    near_b = [10.2, 10.9, 10.4, 9.8, 10.1, 10.5]
    far = [500.0, 501.0, 499.5, 500.5, 500.2, 499.8]
    matrix = pairwise_z_matrix({"A": near_a, "B": near_b, "C": far})
    assert len(matrix) == 3
    assert matrix[("C", "A")] < 1e-4
    assert matrix[("C", "B")] < 1e-4
    assert matrix[("B", "A")] > 0.05
    # entries agree with direct tests regardless of argument order
    assert matrix[("B", "A")] == z_test(near_a, near_b).p_value


def test_pairwise_entry_count():
    data = {f"A{i}": [float(i), float(i + 1), float(i) + 0.5] for i in range(6)}
    matrix = pairwise_z_matrix(data)
    assert len(matrix) == 6 * 5 // 2


def test_pairwise_needs_two():
    with pytest.raises(InputError, match="need at least 2 approaches, got 1"):
        pairwise_z_matrix({"A": [1.0, 2.0]})


# --- five number -------------------------------------------------------------

def test_five_number_examples():
    s = five_number([1, 2, 3, 4, 5])
    assert (s.minimum, s.q1, s.median, s.q3, s.maximum) == (1, 2, 3, 4, 5)
    singleton = five_number([7])
    assert (singleton.minimum, singleton.q1, singleton.median,
            singleton.q3, singleton.maximum) == (7, 7, 7, 7, 7)


def test_five_number_empty():
    with pytest.raises(InputError, match="five-number summary over empty data"):
        five_number([])


def test_five_number_uniform_draws():
    rng = random.Random(12345)
    values = [rng.random() for _ in range(1000)]
    s = five_number(values)
    assert abs(s.q1 - 0.25) < 0.05
    assert abs(s.median - 0.5) < 0.05
    assert abs(s.q3 - 0.75) < 0.05


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=60))
def test_five_number_matches_numpy_inclusive(values):
    s = five_number(values)
    q1, q2, q3 = np.percentile(values, [25, 50, 75], method="linear")
    assert s.q1 == pytest.approx(q1, rel=1e-12, abs=1e-9)
    assert s.median == pytest.approx(q2, rel=1e-12, abs=1e-9)
    assert s.q3 == pytest.approx(q3, rel=1e-12, abs=1e-9)
    assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum


# --- the standard library as reference ---------------------------------------

def _outcome(function, *args):
    """The exact repr of ``function(*args)``, or the name of the error it raises."""
    try:
        return repr(function(*args))
    except (ArithmeticError, ValueError) as err:
        return type(err).__name__


def _stdlib_summary(sample):
    return SampleSummary(len(sample), statistics.fmean(sample), statistics.variance(sample))


finite = st.floats(allow_nan=False, allow_infinity=False)
extremes = st.sampled_from([5e-324, -5e-324, 2.5e-308, 0.1, 1.0, 3.0, 1e300, -1e300])
whole = st.integers(min_value=-10**6, max_value=10**6).map(float)


@given(st.one_of(
    st.lists(whole, min_size=2),
    st.lists(st.one_of(finite, extremes), min_size=2),
    st.builds(operator.mul, st.lists(finite, min_size=1, max_size=1),
              st.integers(min_value=2, max_value=20)),
))
@example([5e-324, 1e300])
@example([1e300, 1e300])
@example([-1.7e308, 1.7e308])  # the variance overflows
@example([1.7e308, 1.7e308])  # the mean overflows
# Magnitudes far apart: a common denominator of about 2**1000 or 2**1074.
@example([1e-300, 1e150])
@example([5e-324, 1.5, -2.5])
# Subnormals and a zero.
@example([5e-324, 0.0, 2.5e-308, 1e-300])
@example([-5e-324, 5e-324, 1e-160])
def test_summarize_matches_the_standard_library(sample):
    assert _outcome(summarize, sample) == _outcome(_stdlib_summary, sample)


@given(st.lists(st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf])),
                min_size=2, max_size=12).filter(lambda xs: not all(map(math.isfinite, xs))))
@example([1.0, math.nan])
@example([math.inf, 2.0, 3.0])
@example([-math.inf, -math.inf])
@example([math.inf, -math.inf])
def test_a_non_finite_sample_keeps_the_python_311_variance(sample):
    # From 3.11 statistics.variance gives the non-finite mean; 3.10's raises.
    def mean_twice(xs):
        return SampleSummary(len(xs), statistics.fmean(xs), statistics.fmean(xs))

    assert _outcome(summarize, sample) == _outcome(mean_twice, sample)
    if sys.version_info >= (3, 11):
        assert _outcome(summarize, sample) == _outcome(_stdlib_summary, sample)


@given(st.lists(st.one_of(whole, st.floats(min_value=-1e300, max_value=1e300), extremes),
                min_size=2, max_size=60))
@example([1.0, 2.0])
def test_five_number_matches_the_standard_library(values):
    s = five_number(values)
    assert [s.q1, s.median, s.q3] == statistics.quantiles(values, n=4, method="inclusive")
