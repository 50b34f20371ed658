"""End-to-end analysis: cycle table + approach geometry + config -> result columns.

Per-approach figures aggregate over however many cycles were recorded for
that approach (single-row aggregate datasets reduce to the plain per-cycle
formulas).  Orchestration is deterministic: approaches are ordered by
(intersection id, approach id) and intersections by id.

The analysis works a column at a time.  Unless the table's rows already
arrive in that order, one stable sort puts them in it and each table column
is gathered once; per-approach sums are taken over contiguous slices, and
every formula is one C-level ``map`` pass over the per-approach columns.
The domain checks are flags over those columns too, in one list in the
scalar functions' order; the first failure raises the error they would.
``AnalysisResult`` holds the columns, which the artifact builders read.

Every float total is one ``math.fsum``: the exact sum, rounded once, so no
figure depends on the order of the rows or on which ``sum`` the running
Python has.  Integer and bool totals use ``sum``.  An exact total that
passes the largest double is an ``InputError`` naming what was added and
whose it was (``stats.group_totals``).  Vehicles-mode PCU is linear in the
counts: an approach's PCU per cycle is the exact sum of its class totals
times the factors its intersection's composition picks, over its cycles.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain, compress, count, islice, repeat
from operator import and_, attrgetter, ge, itemgetter, le, lt, mul, ne, not_, sub, truediv
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence

from .config import COUNTS_VEHICLES, AnalysisConfig
from .delay import SATURATION_GUARD, DelayPolicy, unclamped_delays
from .emissions import CityEstimate, idle_fuel_columns, scale_emissions
from .errors import AnalyzerError, InputError, InvariantViolation, SaturatedRegime, UnknownApproach
from .flow import WIDTH_FLOW_RATE, discharge_flows, hourly_volumes
from .los import VC_STANDARD
from .model import VEHICLE_CLASSES, ApproachConfig, CycleTable
from .report import fmt_column
from .stats import group_totals, require_finite

# A divisor of 0 read through this becomes NaN, so the quotient is NaN (an
# absent value) instead of a ZeroDivisionError.
_ZERO_AS_NAN = {0: math.nan}


def _zero_as_nan(divisors: Sequence[float]) -> Iterator[float]:
    return map(_ZERO_AS_NAN.get, divisors, divisors)


def _first(flags: Iterable[bool], none: int) -> int:
    """The index of the first true flag, or ``none``."""
    return next(compress(count(), flags), none)


def _first_failure(checks: Iterable[tuple], end: int) -> tuple[int, AnalyzerError | None]:
    """The place and error of the first failure of ``checks``, or ``(end, None)``.

    Each check is ``(at, flags, error)``: ``flags`` flags entries, entry
    ``k`` belongs to the approach at place ``at[k]`` (``k`` if ``at`` is
    None), and ``error(k)`` is its error.  At one place, the checks fail in
    list order.
    """
    found = [(end, 0, 0, None)]
    for rank, (at, flags, error) in enumerate(checks):
        k = _first(flags, -1)
        if k >= 0:
            found.append((k if at is None else at[k], rank, k, error))
    place, _, k, error = min(found)
    return place, error and error(k)


def _row_groups(keys: Sequence[int], groups: int) -> tuple[list[int] | None, list[int]]:
    """Group rows by their ``keys``, each in ``range(groups)``: a stable
    order of the rows by key, or None when the keys never decrease and the
    rows are grouped already, and where each key's run of the rows in that
    order starts (``groups + 1`` bounds)."""
    if all(map(le, keys, islice(keys, 1, None))):
        order, ordered = None, keys
    else:
        order, ordered = sorted(range(len(keys)), key=keys.__getitem__), sorted(keys)
    return order, list(map(bisect_left, repeat(ordered), range(groups + 1)))


class AnalysisResult:
    """The analysis as columns.

    ``by_approach`` holds one entry per approach, in (intersection id,
    approach id) order, and ``by_intersection`` one per intersection, in id
    order; NaN marks an absent value.  ``los_standards`` names the standard
    of each band table.  ``formatted`` keeps the artifact builders'
    formatted columns, so a column several artifacts print is formatted
    once.
    """

    __slots__ = ("by_approach", "by_intersection", "los_standards",
                 "study_total_co2_kg_per_hour", "city", "formatted")

    def __init__(self, by_approach: SimpleNamespace, by_intersection: SimpleNamespace,
                 los_standards: Mapping[str, str], study_total_co2_kg_per_hour: float,
                 city: CityEstimate):
        self.by_approach = by_approach
        self.by_intersection = by_intersection
        self.los_standards = los_standards
        self.study_total_co2_kg_per_hour = study_total_co2_kg_per_hour
        self.city = city
        self.formatted: dict = {}


def analyze_records(
    table: CycleTable,
    approaches: Mapping[str, ApproachConfig],
    config: AnalysisConfig,
    emission_policy: DelayPolicy = DelayPolicy.ALL_APPROACHES,
) -> AnalysisResult:
    """Run the full pipeline over a validated cycle table."""
    if not table:
        raise InputError("no cycle records to analyze")
    ids, numbers = table.approach_column()
    for approach_id in ids:
        if approach_id not in approaches:
            raise UnknownApproach(f"approach {approach_id!r} has no configuration")

    # The approaches in output order, and the rows stably sorted by their
    # approach's place in it: each approach's rows are then contiguous.
    # Rows that arrive in that order are summed where they are.
    output = sorted(ids, key=lambda a: (approaches[a].intersection_id, a))
    place = dict(zip(output, count()))
    order, row_start = _row_groups(
        list(map(list(map(place.__getitem__, ids)).__getitem__, numbers)), len(output))
    del place
    rows = list(map(slice, row_start, row_start[1:]))
    sizes = list(map(sub, row_start[1:], row_start))

    geometry = list(map(approaches.__getitem__, output))
    a = SimpleNamespace(
        approach_id=output,
        intersection_id=list(map(attrgetter("intersection_id"), geometry)),
        lane_count=list(map(attrgetter("lane_count"), geometry)),
        directionality=[g.directionality.value for g in geometry],
        width=list(map(attrgetter("width"), geometry)),
        is_major=list(map(attrgetter("is_major"), geometry)),
    )
    # Each intersection's approaches, as a slice of the approach columns.
    start = [0, *compress(count(1), map(ne, a.intersection_id, a.intersection_id[1:])),
             len(output)]
    spans = list(map(slice, start, start[1:]))
    counts = list(map(sub, start[1:], start))
    intersection_ids = [a.intersection_id[s.start] for s in spans]

    take = (lambda column: column) if order is None else itemgetter(*order)

    def per_approach(column: Sequence, total=math.fsum, name: str = "") -> list:
        """``total`` of each approach's run of an output-ordered row column."""
        return group_totals(total, column, rows, f"{name} values", "approach {!r}", output)

    def per_intersection(column: Sequence, total=math.fsum, what: str = "",
                         groups: Sequence = spans) -> list:
        """``total`` of each intersection's entries of an approach column: its
        span, or its index in a column of per-intersection tuples."""
        return group_totals(total, column, groups, what, "intersection {!r}", intersection_ids)

    cycle_time = per_approach(take(table.cycle_length), name="cycle_length_s")
    a.mean_cycle_length = list(map(truediv, cycle_time, sizes))
    a.mean_green = list(map(truediv, per_approach(take(table.green_time), name="green_s"),
                            sizes))
    a.mean_effective_green = _present_means(
        take(table.effective_green), rows, output, sizes, "effective_green_s")
    a.mean_exited_pcu = _present_means(take(table.exited_pcu), rows, output, sizes, "exited_pcu")

    # A class column at a time: all five at once take 40 bytes a row.
    class_totals = list(map(per_approach, map(take, table.counts), repeat(sum)))
    # Shares of at least one vehicle: an approach with none has shares of 0.
    vehicles = list(map(max, map(sum, zip(*class_totals)), repeat(1)))
    a.composition = dict(zip(VEHICLE_CLASSES, (
        list(map(truediv, totals, vehicles)) for totals in class_totals)))
    intersection_vehicles = None
    if config.counts_unit == COUNTS_VEHICLES:
        # Each class total times the factor its intersection's share picks.
        intersection_totals = [per_intersection(totals, sum) for totals in class_totals]
        intersection_vehicles = list(map(sum, zip(*intersection_totals)))
        divisors = list(map(max, intersection_vehicles, repeat(1)))
        products = []
        for cls, totals, shared in zip(VEHICLE_CLASSES, class_totals, intersection_totals):
            factors = map(config.pcu_factors.factor_for, repeat(cls),
                          map(truediv, shared, divisors))
            products.append(map(mul, totals, chain.from_iterable(map(repeat, factors, counts))))
        pcu = group_totals(math.fsum, list(zip(*products)), range(len(output)),
                           "class PCUs", "approach {!r}", output)
    else:
        pcu = list(map(sum, zip(*class_totals)))
    a.pcu_per_cycle = list(map(truediv, pcu, sizes))

    a.hourly_volume = list(hourly_volumes(a.pcu_per_cycle, a.mean_cycle_length))
    capacities = config.capacity_table.capacities
    a.capacity = list(map(capacities.get, map(attrgetter("lane_count", "directionality"),
                                              geometry), repeat(math.nan)))
    del geometry
    a.vc_ratio = list(map(truediv, a.hourly_volume, a.capacity))
    a.sf_width = list(map(mul, repeat(WIDTH_FLOW_RATE), a.width))
    # A mean effective green of 0 gives no discharge figure, as an absent one does.
    a.sf_discharge = list(discharge_flows(
        a.mean_exited_pcu, _zero_as_nan(a.mean_effective_green)))
    a.platoon_ratio = list(map(config.platoon_ratios.get, output,
                               repeat(config.default_platoon_ratio)))
    green_ratio = list(map(truediv, a.mean_green, a.mean_cycle_length))
    load = list(map(mul, a.vc_ratio, green_ratio))
    green_total = per_intersection(a.mean_green, what="mean greens")
    major_count = per_intersection(a.is_major, sum)

    # The checks of one intersection, in the order the scalar functions make
    # them: its own, then each approach's in turn, then its emission checks.
    # An intersection's own checks sit at the place of its first approach,
    # its emission checks at its last.
    first, last = start[:-1], list(map(sub, start[1:], repeat(1)))
    place, error = _first_failure([
        (first, map(not_, intersection_vehicles or ()),
         lambda j: InputError("no vehicles counted in any record")),
        (first, map(le, green_total, repeat(0.0)),
         lambda j: InputError("total green time across the intersection is zero")),
        (None, map(math.isnan, a.capacity), lambda k: InputError(
            f"no capacity entry for {a.lane_count[k]}-lane {a.directionality[k]} "
            f"(approach {a.approach_id[k]})")),
        (None, map(math.isinf, a.sf_width), lambda k: InputError(
            f"saturation flow is not finite: width {a.width[k]:g} m")),
        (None, map(math.isinf, a.sf_discharge), lambda k: InputError(
            f"saturation flow is not finite: exited_pcu {a.mean_exited_pcu[k]:g} over "
            f"effective green {a.mean_effective_green[k]:g} s")),
        (None, map(not_, map(and_, map(lt, repeat(0.0), a.mean_green),
                             map(le, a.mean_green, a.mean_cycle_length))),
         lambda k: InvariantViolation(
             f"green_time must lie in (0, cycle_length], got {a.mean_green[k]}")),
        (None, map(not_, map(math.isfinite, a.vc_ratio)), lambda k: InvariantViolation(
            f"vc_ratio must be >= 0 and finite, got {a.vc_ratio[k]}")),
        (None, map(ge, load, repeat(1.0 - SATURATION_GUARD)), lambda k: SaturatedRegime(
            f"X*g/C = {load[k]:.9f}: the model covers undersaturated operation only")),
        (last, map(not_, major_count) if emission_policy is DelayPolicy.MAJOR_ONLY else (),
         lambda j: InputError(f"intersection {intersection_ids[j]!r} has no major approaches "
                              f"for the requested emission delay policy")),
    ], len(output))
    failing = bisect_right(start, place) - 1

    # The delay model over the intersections before it, which hold no
    # saturated or out-of-range approach.
    seconds = list(unclamped_delays(
        a.mean_cycle_length[:start[failing]], green_ratio, load, a.platoon_ratio))
    a.delay_s = list(map(max, seconds, repeat(0.0)))
    a.delay_clamped = list(map(lt, seconds, repeat(0.0)))
    del seconds, green_ratio
    clean = spans[:failing]
    n = counts[:failing]
    i = SimpleNamespace(
        intersection_id=intersection_ids,
        span=spans,
        mean_delay_all=list(map(truediv, per_intersection(
            a.delay_s, what="control delays", groups=clean), n)),
        # A delay times is_major is the delay or 0, which leaves the exact
        # sum of the major approaches' delays alone.
        mean_delay_major=list(map(truediv, per_intersection(
            list(map(mul, a.delay_s, a.is_major)), what="major approaches' control delays",
            groups=clean), _zero_as_nan(major_count))),
    )
    i.emission_delay_s = (
        i.mean_delay_major if emission_policy is DelayPolicy.MAJOR_ONLY else i.mean_delay_all)
    hourly = {
        cls: per_intersection(list(map(truediv, map(mul, totals, repeat(3600.0)), cycle_time)),
                              what=f"hourly {cls.value} counts", groups=clean)
        for cls, totals in zip(VEHICLE_CLASSES, class_totals)
    }
    i.fuel_per_hour = idle_fuel_columns(hourly, i.emission_delay_s, config.idle_rates)
    factors = config.emission_factors.factors
    # The last checks, fuel that no emission factor covers in ``FuelType``
    # order, have figures only for the intersections before ``failing``, so
    # a failure of theirs comes before ``error``.
    _, fuel_error = _first_failure([
        (last, map(ne, fuel, repeat(0.0)),
         lambda j, fuel_type=fuel_type: InputError(f"no emission factor for {fuel_type.value}"))
        for fuel_type, fuel in i.fuel_per_hour.items() if fuel_type not in factors
    ], len(output))
    if fuel_error or error:
        raise fuel_error or error

    # Every intersection passed: every approach's mean green lies in (0, C].
    totals = chain.from_iterable(map(repeat, green_total, counts))
    a.green_share = list(map(truediv, a.mean_green, totals))
    a.green_to_pcu_ratio = list(map(truediv, a.mean_green, _zero_as_nan(a.pcu_per_cycle)))
    # (g - g_e) / g: the share of allocated green in which nothing discharged
    a.wastage = list(map(truediv, map(sub, a.mean_green, a.mean_effective_green), a.mean_green))

    # Grade V/C at report precision so the emitted 2-decimal V/C and its
    # grade can never disagree.
    a.vc_text = fmt_column(a.vc_ratio, 2)
    a.los = {
        name: bands.grades(list(map(float, a.vc_text)) if name == VC_STANDARD else a.delay_s)
        for name, bands in config.los_tables.items()
    }
    delay_bands = {
        name: bands for name, bands in config.los_tables.items() if name != VC_STANDARD}
    i.los_all = {name: bands.grades(i.mean_delay_all) for name, bands in delay_bands.items()}
    # An intersection with no major approach has no major-only grades: its
    # NaN mean is graded as 0 and never read.
    majors = list(map(max, repeat(0.0), i.mean_delay_major))
    i.los_major = {name: bands.grades(majors) for name, bands in delay_bands.items()}
    i.notes = list(map(_notes, map(a.approach_id.__getitem__, spans),
                       map(a.los[VC_STANDARD].__getitem__, spans) if VC_STANDARD in a.los
                       else repeat(None), i.mean_delay_all, i.mean_delay_major))

    i.co2_per_hour = {
        fuel_type: list(map(mul, fuel, repeat(factors.get(fuel_type, 0.0))))
        for fuel_type, fuel in i.fuel_per_hour.items()
    }
    i.total_co2_per_hour = per_intersection(
        list(zip(*i.co2_per_hour.values())), what="CO2 rates", groups=range(len(spans)))
    study_total = group_totals(math.fsum, i.total_co2_per_hour, [slice(None)],
                               "intersections' CO2 rates", "the study", [None])[0]
    # The emitted figures that no check above keeps finite.
    require_finite(a.delay_s, "control delay", "approach {!r}", output)
    require_finite(a.green_to_pcu_ratio, "green per PCU", "approach {!r}", output, absent=True)
    for figure, columns in (("idle burn", i.fuel_per_hour), ("CO2 rate", i.co2_per_hour)):
        for fuel_type, column in columns.items():
            require_finite(column, f"{fuel_type.value} {figure}", "intersection {!r}",
                           intersection_ids)
    # The study's daily tonnage, as the emission summary prints it.
    require_finite([study_total * config.city.active_hours_per_day / 1000.0], "daily CO2",
                   "the study", [None])
    city = scale_emissions(
        i.total_co2_per_hour,
        config.city.intersection_count,
        config.city.active_hours_per_day,
        config.city.co2_kg_per_hour,
    )
    standards = {name: bands.standard for name, bands in config.los_tables.items()}
    return AnalysisResult(a, i, standards, study_total, city)


def _present_means(column: Sequence[float], rows: Sequence[slice], output: Sequence[str],
                   sizes: Sequence[int], name: str) -> list[float]:
    """Each approach's mean of its ``rows`` of ``column`` that are not NaN;
    NaN if it has none.  An approach whose plain sum is NaN, or each one if a
    plain sum overflows (a NaN restarts ``math.fsum``), is summed again with
    NaN read as 0, which no entry is below, and has its absent entries counted."""
    try:
        sums = list(map(math.fsum, map(column.__getitem__, rows)))
    except OverflowError:
        sums = [math.nan] * len(rows)
    present = list(sizes)
    partial = list(compress(count(), map(math.isnan, sums)))
    entries = [column[rows[k]] for k in partial]
    for k, total, values in zip(partial, group_totals(
            math.fsum, [tuple(map(max, repeat(0.0), values)) for values in entries],
            range(len(partial)), f"{name} values", "approach {!r}", [output[k] for k in partial]),
            entries):
        sums[k] = total
        present[k] -= sum(map(math.isnan, values))
    return list(map(truediv, sums, _zero_as_nan(present)))


def _notes(approach_ids: Sequence[str], vc_grades: Sequence[str] | None,
           mean_all: float, mean_major: float) -> tuple[str, ...]:
    notes: list[str] = []
    if vc_grades is not None:
        listing = ", ".join(map("{}={}".format, approach_ids, vc_grades))
        notes.append(
            f"per-approach V/C grades: {listing}; no intersection-level V/C "
            f"grade is computed (no aggregation rule is defined)")
        grades = sorted(set(vc_grades))
        if len(grades) > 1:
            notes.append(
                f"V/C grades differ across approaches ({grades[0]} to {grades[-1]}); "
                f"any single intersection-level V/C grade would be a judgement call")
    if mean_major == mean_major and abs(mean_major - mean_all) > 0.005:
        notes.append(
            f"mean delay depends on the aggregation policy: "
            f"all-approach {mean_all:.2f} s vs major-only {mean_major:.2f} s")
    return tuple(notes)
