"""End-to-end analysis: records + approach geometry + config -> reports.

Per-approach figures aggregate over however many cycles were recorded for
that approach (single-row aggregate datasets reduce to the plain per-cycle
formulas).  Orchestration is deterministic: approaches and intersections
are processed in sorted id order.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from itertools import filterfalse
from operator import itemgetter, mul
from typing import Callable, Mapping, Sequence

from .config import COUNTS_VEHICLES, AnalysisConfig
from .delay import DelayInputs, DelayPolicy, control_delay, intersection_delay
from .emissions import (
    CityEstimate,
    EmissionReport,
    co2_from_fuel,
    idle_fuel,
    scale_emissions,
)
from .errors import InputError, UnknownApproach
from .flow import (
    FlowReport,
    GreenReport,
    green_shares,
    hourly_volume,
    saturation_flow_discharge,
    saturation_flow_width,
    vc_ratio,
)
from .los import LosResult
from .model import (
    VEHICLE_CLASSES,
    ApproachConfig,
    ClassifiedCount,
    CycleTable,
    SignalCycleRecord,
    VehicleClass,
)
from .pcu import composition_shares
# Unused here: ``bench/tracing.py`` hooks its ``pcu.to_pcu`` layer at this
# name, and a missing name reads as an absent layer.
from .pcu import to_pcu  # noqa: F401
from .report import round_half_up

VC_STANDARD = "vc_ratio"


@dataclass(frozen=True)
class ApproachReport:
    """Computed bundle for one approach."""

    approach_id: str
    intersection_id: str
    lane_count: int
    directionality: str
    width: float
    mean_cycle_length: float
    mean_green: float
    mean_effective_green: float | None
    mean_exited_pcu: float | None
    composition: Mapping[VehicleClass, float]
    flow: FlowReport
    green: GreenReport
    platoon_ratio: float
    delay_s: float
    delay_clamped: bool
    los: Mapping[str, LosResult]


@dataclass(frozen=True)
class IntersectionReport:
    intersection_id: str
    approach_ids: tuple[str, ...]
    major_approach_ids: tuple[str, ...]
    mean_delay_all: float
    mean_delay_major: float | None
    los_all: Mapping[str, LosResult]
    los_major: Mapping[str, LosResult] | None
    emissions: EmissionReport
    emission_delay_s: float
    notes: tuple[str, ...]


@dataclass(frozen=True)
class AnalysisResult:
    approaches: tuple[ApproachReport, ...]
    intersections: tuple[IntersectionReport, ...]
    study_total_co2_kg_per_hour: float
    city: CityEstimate


@dataclass(frozen=True)
class _ApproachFold:
    """What one pass over an approach's rows collects, in file order.

    ``class_counts`` holds one tuple per class with that class's count in
    each row; ``totals`` sums each class over all rows and
    ``record_totals`` holds each row's vehicle total.  Both are exact
    integer sums.
    """

    cycles: Sequence[float]
    greens: Sequence[float]
    effective_greens: list[float]
    exited: list[float]
    class_counts: list[Sequence[int]]
    totals: ClassifiedCount
    record_totals: list[int]

    def hourly_class_counts(self) -> dict[VehicleClass, float]:
        cycle_time = sum(self.cycles)
        return {cls: n * 3600.0 / cycle_time for cls, n in self.totals.counts.items()}


def _taker(rows: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """A function returning the given rows of a column, in order."""
    if len(rows) == 1:
        row = rows[0]
        return lambda column: (column[row],)
    return itemgetter(*rows)


def _fold_approach(
    approach_id: str,
    table: CycleTable,
    class_columns: Sequence[Sequence[int]],
    rows: Sequence[int],
) -> _ApproachFold:
    take = _taker(rows)
    class_counts = [take(column) for column in class_columns]
    return _ApproachFold(
        cycles=take(table.cycle_length),
        greens=take(table.green_time),
        effective_greens=list(filterfalse(math.isnan, take(table.effective_green))),
        exited=list(filterfalse(math.isnan, take(table.exited_pcu))),
        class_counts=class_counts,
        totals=ClassifiedCount(approach_id, dict(zip(VEHICLE_CLASSES, map(sum, class_counts)))),
        record_totals=list(map(sum, zip(*class_counts))),
    )


def _fmean_or_none(values: Sequence[float]) -> float | None:
    return statistics.fmean(values) if values else None


def analyze_records(
    records: Sequence[SignalCycleRecord],
    approaches: Mapping[str, ApproachConfig],
    config: AnalysisConfig,
    emission_policy: DelayPolicy = DelayPolicy.ALL_APPROACHES,
) -> AnalysisResult:
    """Run the full pipeline over validated records: a ``CycleTable`` or
    any sequence of records."""
    if not records:
        raise InputError("no cycle records to analyze")
    cycle_table = CycleTable.from_records(records)

    by_approach = dict(cycle_table.groups())
    for approach_id in by_approach:
        if approach_id not in approaches:
            raise UnknownApproach(f"approach {approach_id!r} has no configuration")
    class_columns = cycle_table.class_columns()

    by_intersection: dict[str, list[str]] = {}
    for approach_id in sorted(by_approach):
        intersection_id = approaches[approach_id].intersection_id
        by_intersection.setdefault(intersection_id, []).append(approach_id)

    approach_reports: list[ApproachReport] = []
    intersection_reports: list[IntersectionReport] = []

    for intersection_id in sorted(by_intersection):
        approach_ids = by_intersection[intersection_id]
        folds = {
            a: _fold_approach(a, cycle_table, class_columns, by_approach[a])
            for a in approach_ids
        }

        # Each class's PCU factor, in VEHICLE_CLASSES order, from the
        # intersection's composition: a row's PCU is the same sum of
        # count * factor products that ``pcu.to_pcu`` forms.
        factors: tuple[float, ...] = ()
        if config.counts_unit == COUNTS_VEHICLES:
            shares = composition_shares(f.totals for f in folds.values())
            factors = tuple(
                config.pcu_factors.factor_for(cls, shares[cls]) for cls in VEHICLE_CLASSES)

        mean_greens = {a: statistics.fmean(f.greens) for a, f in folds.items()}
        shares_by_approach = green_shares(mean_greens)

        local_reports: list[ApproachReport] = []
        for approach_id in approach_ids:
            geometry = approaches[approach_id]
            fold = folds[approach_id]
            mean_cycle = statistics.fmean(fold.cycles)
            mean_green = mean_greens[approach_id]
            mean_ge = _fmean_or_none(fold.effective_greens)
            mean_n = _fmean_or_none(fold.exited)

            if sum(fold.record_totals) > 0:
                composition = composition_shares([fold.totals])
            else:
                composition = {cls: 0.0 for cls in VEHICLE_CLASSES}

            if config.counts_unit == COUNTS_VEHICLES:
                pcu_per_cycle = statistics.fmean(
                    [sum(map(mul, counts, factors)) for counts in zip(*fold.class_counts)])
            else:
                pcu_per_cycle = statistics.fmean(fold.record_totals)
            volume = hourly_volume(pcu_per_cycle, mean_cycle)
            capacity = config.capacity_table.capacity_for(geometry)
            x = vc_ratio(volume, geometry, config.capacity_table)

            sf_width = saturation_flow_width(geometry.width)
            sf_discharge = None
            if mean_ge is not None and mean_n is not None and mean_ge > 0:
                sf_discharge = saturation_flow_discharge(mean_n, mean_ge)

            ratio = mean_green / pcu_per_cycle if pcu_per_cycle > 0 else None
            wastage = None
            if mean_ge is not None and mean_green > 0:
                wastage = (mean_green - mean_ge) / mean_green

            r_p = config.platoon_ratio_for(approach_id)
            estimate = control_delay(
                DelayInputs(mean_cycle, mean_green, x, platoon_ratio=r_p))

            # Grade at report precision so the emitted 2-decimal V/C and its
            # grade can never disagree.
            los: dict[str, LosResult] = {}
            for name, table in config.los_tables.items():
                value = round_half_up(x, 2) if name == VC_STANDARD else estimate.seconds
                los[name] = table.classify(value)

            local_reports.append(ApproachReport(
                approach_id=approach_id,
                intersection_id=intersection_id,
                lane_count=geometry.lane_count,
                directionality=geometry.directionality.value,
                width=geometry.width,
                mean_cycle_length=mean_cycle,
                mean_green=mean_green,
                mean_effective_green=mean_ge,
                mean_exited_pcu=mean_n,
                composition=composition,
                flow=FlowReport(
                    approach_id=approach_id,
                    hourly_volume=volume,
                    capacity=capacity,
                    vc_ratio=x,
                    sf_width=sf_width,
                    sf_discharge=sf_discharge,
                ),
                green=GreenReport(
                    approach_id=approach_id,
                    pcu_per_cycle=pcu_per_cycle,
                    green_share=shares_by_approach[approach_id],
                    green_to_pcu_ratio=ratio,
                    wastage=wastage,
                ),
                platoon_ratio=r_p,
                delay_s=estimate.seconds,
                delay_clamped=estimate.clamped,
                los=los,
            ))

        approach_reports.extend(local_reports)
        intersection_reports.append(_intersection_report(
            intersection_id, local_reports, folds, approaches, config,
            emission_policy))

    totals = [r.emissions.total_co2_per_hour for r in intersection_reports]
    city = scale_emissions(
        totals,
        config.city.intersection_count,
        config.city.active_hours_per_day,
        config.city.co2_kg_per_hour,
    )
    return AnalysisResult(
        approaches=tuple(approach_reports),
        intersections=tuple(intersection_reports),
        study_total_co2_kg_per_hour=sum(totals),
        city=city,
    )


def _intersection_report(
    intersection_id: str,
    local_reports: Sequence[ApproachReport],
    folds: Mapping[str, _ApproachFold],
    approaches: Mapping[str, ApproachConfig],
    config: AnalysisConfig,
    emission_policy: DelayPolicy,
) -> IntersectionReport:
    delays = {r.approach_id: r.delay_s for r in local_reports}
    major_ids = tuple(
        r.approach_id for r in local_reports if approaches[r.approach_id].is_major)
    mean_all = intersection_delay(delays, DelayPolicy.ALL_APPROACHES, approaches)
    mean_major = None
    if major_ids:
        mean_major = intersection_delay(delays, DelayPolicy.MAJOR_ONLY, approaches)

    delay_tables = {
        name: table for name, table in config.los_tables.items()
        if name != VC_STANDARD
    }
    los_all = {name: table.classify(mean_all) for name, table in delay_tables.items()}
    los_major = None
    if mean_major is not None:
        los_major = {name: table.classify(mean_major) for name, table in delay_tables.items()}

    notes = list(_intersection_notes(local_reports, mean_all, mean_major))

    if emission_policy is DelayPolicy.MAJOR_ONLY and mean_major is None:
        raise InputError(
            f"intersection {intersection_id!r} has no major approaches for "
            f"the requested emission delay policy")
    emission_delay = mean_major if emission_policy is DelayPolicy.MAJOR_ONLY else mean_all

    hourly_counts = {cls: 0.0 for cls in VEHICLE_CLASSES}
    for approach_id in sorted(folds):
        for cls, count in folds[approach_id].hourly_class_counts().items():
            hourly_counts[cls] += count

    fuel = idle_fuel(hourly_counts, emission_delay, config.idle_rates)
    emissions = co2_from_fuel(fuel, config.emission_factors)

    return IntersectionReport(
        intersection_id=intersection_id,
        approach_ids=tuple(r.approach_id for r in local_reports),
        major_approach_ids=major_ids,
        mean_delay_all=mean_all,
        mean_delay_major=mean_major,
        los_all=los_all,
        los_major=los_major,
        emissions=emissions,
        emission_delay_s=emission_delay,
        notes=tuple(notes),
    )


def _intersection_notes(
    local_reports: Sequence[ApproachReport],
    mean_all: float,
    mean_major: float | None,
) -> list[str]:
    notes: list[str] = []
    vc_grades = {
        r.approach_id: r.los[VC_STANDARD].grade
        for r in local_reports if VC_STANDARD in r.los
    }
    if vc_grades:
        listing = ", ".join(f"{a}={g}" for a, g in sorted(vc_grades.items()))
        notes.append(
            f"per-approach V/C grades: {listing}; no intersection-level V/C "
            f"grade is computed (no aggregation rule is defined)")
        if len(set(vc_grades.values())) > 1:
            grades = sorted(set(vc_grades.values()))
            notes.append(
                f"V/C grades differ across approaches ({grades[0]} to {grades[-1]}); "
                f"any single intersection-level V/C grade would be a judgement call")
    if mean_major is not None and abs(mean_major - mean_all) > 0.005:
        notes.append(
            f"mean delay depends on the aggregation policy: "
            f"all-approach {mean_all:.2f} s vs major-only {mean_major:.2f} s")
    return notes
