"""Windowed cycle-length aggregation, peak detection, z-tests and summaries.

All functions are pure over immutable inputs.  Row timestamps are
interpreted as UTC; the analysis day spans 08:00 to 21:00 wall clock and
windows are half-open [start, start + window) anchored at 08:00.
"""

from __future__ import annotations

import itertools
import math
from operator import add, eq, floordiv, itemgetter, methodcaller, mod, mul, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError, InvariantViolation
from .model import CycleTable, DayFilter, _frozen

SECONDS_PER_DAY = 86400
DAY_START_S = 8 * 3600
DAY_END_S = 21 * 3600

# Two-tailed p-values are floored here so log-scale reports never see zero.
P_VALUE_FLOOR = 1e-300

_SQRT2 = math.sqrt(2.0)


@_frozen
class WindowedAverage:
    """Mean cycle length in one time-of-day window, across the filtered days.

    ``window_start`` is seconds since midnight.  An empty window keeps
    ``mean_cycle_length`` as None, never zero.
    """

    window_start: float
    window_length: float
    mean_cycle_length: float | None
    sample_count: int


@_frozen
class ZTestResult:
    z_statistic: float
    p_value: float


@_frozen
class SampleSummary:
    """Size, mean and sample variance of one sample, for reuse across z-tests.

    ``len()`` is the sample size, so a summary can stand wherever ``z_test``
    takes a sample.  Below two observations ``mean`` and ``variance`` are
    NaN; ``z_test`` rejects such a sample before reading them.
    """

    n: int
    mean: float
    variance: float

    def __len__(self) -> int:
        return self.n


@_frozen
class FiveNumberSummary:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    def __post_init__(self):
        ordered = (self.minimum, self.q1, self.median, self.q3, self.maximum)
        if any(a > b for a, b in zip(ordered, ordered[1:])):
            raise InvariantViolation(f"five-number summary out of order: {ordered}")


def group_totals(total, column: Sequence, groups: Sequence, what: str, owner: str,
                 owner_ids: Sequence) -> list:
    """``total`` of each group of ``column``, given as a slice or an index of
    it; group ``k`` belongs to ``owner.format(owner_ids[k])``.

    ``math.fsum`` raises ``OverflowError`` where finite values add up past
    the largest double; that is an input error naming ``what`` was added and
    the owner of the first group it happens for.
    """
    try:
        return list(map(total, map(column.__getitem__, groups)))
    except OverflowError:
        for owner_id, group in zip(owner_ids, groups):
            try:
                total(column[group])
            except OverflowError:
                raise InputError(f"the {what} of {owner.format(owner_id)} add up past the "
                                 f"largest float") from None
        raise


def require_finite(column: Sequence[float], what: str, owner: str, owner_ids: Sequence,
                   absent: bool = False) -> None:
    """Raise an ``InputError`` for the first value of ``column`` that is
    infinite, or NaN unless ``absent`` lets NaN mark an absent value; it
    names ``what`` the value is and whose, as ``group_totals`` does."""
    if math.isfinite(sum(column)):
        return
    for owner_id, value in zip(owner_ids, column):
        if math.isinf(value) or not (absent or value == value):
            raise InputError(f"the {what} of {owner.format(owner_id)} is not finite: {value}")


def _day_and_time(timestamp: float) -> tuple[int, float]:
    """Days since the epoch and seconds since that day's midnight, in UTC.

    Integer arithmetic that agrees with ``datetime.fromtimestamp(timestamp,
    tz=timezone.utc)`` wherever datetime accepts the timestamp: like
    datetime, it first rounds the fraction half-even to whole microseconds.
    Timestamps beyond datetime's years 1-9999 still get a time of day.
    """
    fraction, whole = math.modf(timestamp)
    micro = round(fraction * 1e6)
    seconds = int(whole)
    if micro >= 1_000_000:
        seconds += 1
        micro -= 1_000_000
    elif micro < 0:
        seconds -= 1
        micro += 1_000_000
    day, second = divmod(seconds, SECONDS_PER_DAY)
    return day, second + micro / 1e6


def _weekdays(days: Iterable[int]) -> Iterator[int]:
    """Each day's weekday, Monday = 0 as ``datetime.weekday``; the epoch
    day was a Thursday."""
    return map(mod, map(add, days, itertools.repeat(3)), itertools.repeat(7))


# Weekdays each filter keeps; None keeps every day.
_KEPT_WEEKDAYS = {
    DayFilter.ALL: None,
    DayFilter.WEEKDAY: range(5),
    DayFilter.SATURDAY: (5,),
    DayFilter.SUNDAY: (6,),
}


def check_window(window: float, name: str = "window") -> None:
    """Reject a window that is not a finite number of seconds >= 1.

    The operating day then holds at most 46,800 windows; a shorter window
    needs ever more of them, and one too small to advance the running start
    time would never end.
    """
    if window <= 0:
        raise InputError(f"{name} must be > 0, got {window:g}")
    if not 1 <= window < math.inf:
        raise InputError(f"{name} must be a finite number of seconds >= 1, got {window:g}")


def window_cycle_lengths(
    table: CycleTable,
    window: float = 1800.0,
    day_filter: DayFilter = DayFilter.ALL,
) -> list[WindowedAverage]:
    """Average cycle length per time-of-day window over the selected days.

    Returns one entry for every window intersecting the 08:00-21:00
    operating span, in time order.  No surviving rows means no output.
    """
    check_window(window)
    if not table:
        return []
    missing = table.untimed()
    if missing:
        raise InputError(f"{missing} of {len(table)} records carry no timestamp")

    starts: list[float] = []
    start = float(DAY_START_S)
    while start < DAY_END_S:
        starts.append(start)
        start += window

    timestamps = table.timestamp
    whole = all(map(float.is_integer, timestamps))
    kept_weekdays = _KEPT_WEEKDAYS[day_filter]
    if whole:
        # Whole seconds carry no fraction to round; int day and time of day
        # compare and divide exactly as _day_and_time's do.
        times = map(mod, map(int, timestamps), itertools.repeat(SECONDS_PER_DAY))
        days = map(floordiv, map(int, timestamps), itertools.repeat(SECONDS_PER_DAY))
    else:
        day_times = map(_day_and_time, timestamps)
        # Copied only for a day filter: a copy no pass reads would keep every row.
        times, days = (day_times, ()) if kept_weekdays is None else itertools.tee(day_times)
        times, days = map(itemgetter(1), times), map(itemgetter(0), days)
    cycle_lengths = table.cycle_length
    if kept_weekdays is not None:
        # Whether each row's weekday is kept, once for each compress pass.
        kept = itertools.tee(map(kept_weekdays.__contains__, _weekdays(days)))
        times = itertools.compress(times, kept[0])
        cycle_lengths = itertools.compress(cycle_lengths, kept[1])
    offsets = map(sub, times, itertools.repeat(DAY_START_S))
    index = map(int, map(floordiv, offsets, itertools.repeat(window)))
    # Each window's cycle lengths; a row before 08:00 (a negative index) or
    # from 21:00 goes to the discard slot.
    lengths = [[] for _ in starts]
    discard: list[float] = []
    slots = map(dict(enumerate(lengths)).get, index, itertools.repeat(discard))
    any(map(list.append, slots, cycle_lengths))  # list.append returns None: runs to the end
    if not (discard or any(lengths)):  # no row was kept
        return []
    sums = group_totals(math.fsum, lengths, range(len(starts)), "cycle lengths",
                        "the window from second {:g}", starts)
    counts = list(map(len, lengths))
    means = [total / n if n else None for total, n in zip(sums, counts)]
    return list(map(WindowedAverage, starts, itertools.repeat(window), means, counts))


def peak_window(averages: Sequence[WindowedAverage], span: int) -> tuple[float, float]:
    """Start and end (seconds since midnight) of the run of ``span``
    consecutive windows with the largest summed mean; ties go to the
    earliest start.  Runs containing an empty window are not eligible.
    """
    if span < 1:
        raise InputError(f"span must be >= 1, got {span}")
    if len(averages) < span:
        raise InputError(
            f"need at least {span} windows, have {len(averages)}")

    means = [w.mean_cycle_length for w in averages]
    firsts = [i for i in range(len(means) - span + 1) if None not in means[i:i + span]]
    if not firsts:
        raise InputError(
            f"no run of {span} consecutive windows has data")
    totals = group_totals(math.fsum, means, [slice(i, i + span) for i in firsts],
                          "mean cycle lengths", "the run of windows from second {:g}",
                          [averages[i].window_start for i in firsts])
    best_index = firsts[totals.index(max(totals))]

    first = averages[best_index]
    last = averages[best_index + span - 1]
    return first.window_start, last.window_start + last.window_length


def normal_two_tailed_p(z: float) -> float:
    """Two-tailed standard-normal tail mass 2*(1 - Phi(|z|)).

    Evaluated as erfc(|z|/sqrt(2)) via the platform's rational erfc
    approximation (relative error well under 1e-10), so extreme statistics
    keep full precision and fixture p-values are portable.
    """
    return math.erfc(abs(z) / _SQRT2)


def variance(sample: Sequence[float]) -> float:
    """``statistics.variance`` of two or more values: with the values as
    integers ``k`` over a common denominator ``D``, the int true division
    ``(n*sum(k*k) - sum(k)**2) / (n*(n-1)*D*D)``, correctly rounded.  A NaN
    or an infinity gives the non-finite values' sum over ``n - 1``, as 3.11 does.
    """
    n = len(sample)
    try:
        numerators = list(map(int, sample))
    except (OverflowError, ValueError):  # an infinity or NaN
        return sum(itertools.filterfalse(math.isfinite, sample)) / (n - 1)
    scale = 1
    if not all(map(eq, numerators, sample)):
        numerators, denominators = zip(*map(methodcaller("as_integer_ratio"), sample))
        scale = math.lcm(*set(denominators))
        numerators = list(map(mul, numerators, map(floordiv, itertools.repeat(scale),
                                                   denominators)))
    total = sum(numerators)
    return ((n * sum(map(mul, numerators, numerators)) - total * total)
            / (n * (n - 1) * scale * scale))


def summarize(sample: Sequence[float]) -> SampleSummary:
    """Summarise a sample once, with the exact ``math.fsum`` mean and ``variance``."""
    n = len(sample)
    if n < 2:
        return SampleSummary(n, math.nan, math.nan)
    return SampleSummary(n, math.fsum(sample) / n, variance(sample))


def z_test(
    sample_a: Sequence[float] | SampleSummary,
    sample_b: Sequence[float] | SampleSummary,
) -> ZTestResult:
    """Two-sample z-test with unequal variances, two-tailed.

    z = (mean_a - mean_b) / sqrt(s_a^2/n_a + s_b^2/n_b) with sample
    variances.  Both variances zero is handled by convention: equal means
    give p = 1, unequal means give the p floor.  Either sample may be given
    as a ``SampleSummary``, which gives the same result as its raw values.
    """
    n_a, n_b = len(sample_a), len(sample_b)
    if n_a < 2 or n_b < 2:
        raise InputError(
            f"z-test needs at least 2 observations per sample, got {n_a} and {n_b}")
    a = sample_a if isinstance(sample_a, SampleSummary) else summarize(sample_a)
    b = sample_b if isinstance(sample_b, SampleSummary) else summarize(sample_b)
    mean_a, mean_b = a.mean, b.mean

    if a.variance == 0.0 and b.variance == 0.0:
        if mean_a == mean_b:
            return ZTestResult(0.0, 1.0)
        z = math.copysign(math.inf, mean_a - mean_b)
        return ZTestResult(z, P_VALUE_FLOOR)

    z = (mean_a - mean_b) / math.sqrt(a.variance / n_a + b.variance / n_b)
    p = max(normal_two_tailed_p(z), P_VALUE_FLOOR)
    return ZTestResult(z, p)


def pairwise_z_matrix(
    samples: Mapping[str, Sequence[float]],
) -> dict[tuple[str, str], float]:
    """Lower-triangular map of two-tailed p-values over every unordered pair.

    Keys are (later_id, earlier_id) in sorted id order, matching the usual
    triangular table layout; exactly k(k-1)/2 entries for k approaches.
    Each sample is summarised once and reused in all of its k-1 tests.
    """
    if len(samples) < 2:
        raise InputError(f"need at least 2 approaches, got {len(samples)}")
    ids = sorted(samples)
    summaries = {approach_id: summarize(samples[approach_id]) for approach_id in ids}
    matrix: dict[tuple[str, str], float] = {}
    for i, row_id in enumerate(ids):
        for col_id in ids[:i]:
            matrix[(row_id, col_id)] = z_test(summaries[row_id], summaries[col_id]).p_value
    return matrix


def five_number(values: Iterable[float]) -> FiveNumberSummary:
    """Min, quartiles and max with inclusive linear interpolation."""
    data = sorted(values)
    if not data:
        raise InputError("five-number summary over empty data")
    if len(data) == 1:
        v = float(data[0])
        return FiveNumberSummary(v, v, v, v, v)
    # statistics.quantiles(data, n=4, method="inclusive"), term for term
    last = len(data) - 1
    q1, q2, q3 = [(data[j] * (4 - delta) + data[j + 1] * delta) / 4
                  for j, delta in (divmod(i * last, 4) for i in (1, 2, 3))]
    return FiveNumberSummary(float(data[0]), q1, q2, q3, float(data[-1]))
