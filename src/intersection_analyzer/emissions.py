"""Idle fuel consumption and CO2 accounting for vehicles queued at signals.

Every queued vehicle is assumed to idle for the mean waiting delay.  Fuel
per hour is count * (delay/3600) * fleet_fraction * idle_rate summed over
classes; CO2 is fuel times a per-fuel factor.  Per-class idle rates and
fleet fuel splits are configuration, not built-in truth: only their product
is identified by calibrating against observed fuel totals.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from operator import add, mul, truediv
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import InputError, InvariantViolation
from .model import VehicleClass, _frozen


class FuelType(Enum):
    CNG = "cng"        # measured in kilograms
    DIESEL = "diesel"  # litres
    PETROL = "petrol"  # litres

    __hash__ = object.__hash__  # as VehicleClass


@_frozen
class IdleRate:
    """Fraction of a vehicle class running on a fuel, and that fuel's idle
    burn rate in fuel units per vehicle-hour."""

    fleet_fraction: float
    rate_per_hour: float

    def __post_init__(self):
        if not 0.0 <= self.fleet_fraction <= 1.0:
            raise InvariantViolation(
                f"fleet_fraction must lie in [0, 1], got {self.fleet_fraction}")
        if self.rate_per_hour < 0:
            raise InvariantViolation(f"idle rate must be >= 0, got {self.rate_per_hour}")


@_frozen
class IdleRateTable:
    rates: Mapping[tuple[VehicleClass, FuelType], IdleRate]

    def __post_init__(self):
        per_class: dict[VehicleClass, float] = {}
        for (cls, _), rate in self.rates.items():
            per_class[cls] = per_class.get(cls, 0.0) + rate.fleet_fraction
        for cls, total in per_class.items():
            # The remainder is fleet share on untracked fuels.
            if total > 1.0 + 1e-9:
                raise InvariantViolation(
                    f"fleet fractions for {cls.value} sum to {total}, beyond 1")
        object.__setattr__(self, "rates", MappingProxyType(dict(self.rates)))


@_frozen
class EmissionFactorTable:
    """kg CO2 emitted per unit of fuel burned."""

    factors: Mapping[FuelType, float]

    def __post_init__(self):
        for fuel, factor in self.factors.items():
            if factor <= 0:
                raise InvariantViolation(f"factor for {fuel.value} must be > 0")
        object.__setattr__(self, "factors", MappingProxyType(dict(self.factors)))


@_frozen
class EmissionReport:
    fuel_per_hour: Mapping[FuelType, float]
    co2_per_hour: Mapping[FuelType, float]
    total_co2_per_hour: float


@_frozen
class CityEstimate:
    city_kg_per_hour: float
    tons_per_day: float
    extrapolated: bool


def idle_fuel_columns(
    hourly_counts: Mapping[VehicleClass, Sequence[float]],
    mean_delay_s: Sequence[float],
    rates: IdleRateTable,
) -> dict[FuelType, list[float]]:
    """``idle_fuel`` for many intersections at once, given column by column:
    one entry per intersection in each class's counts and in the delays."""
    idle_hours = list(map(truediv, mean_delay_s, repeat(3600.0)))
    totals = {fuel: [0.0] * len(idle_hours) for fuel in FuelType}
    for key in sorted(rates.rates, key=lambda k: (k[0].value, k[1].value)):
        cls, fuel = key
        rate = rates.rates[key]
        counts = hourly_counts.get(cls, repeat(0.0))
        burned = map(mul, map(mul, map(mul, counts, idle_hours), repeat(rate.fleet_fraction)),
                     repeat(rate.rate_per_hour))
        totals[fuel] = list(map(add, totals[fuel], burned))
    return totals


def idle_fuel(
    hourly_counts: Mapping[VehicleClass, float],
    mean_delay_s: float,
    rates: IdleRateTable,
) -> dict[FuelType, float]:
    """Fuel burned per hour by idling vehicles, per fuel type.

    Linear in both the counts and the delay; classes or fuels missing from
    the rate table contribute nothing.
    """
    if mean_delay_s < 0:
        raise InputError(f"mean delay must be >= 0, got {mean_delay_s}")
    columns = idle_fuel_columns(
        {cls: (count,) for cls, count in hourly_counts.items()}, (mean_delay_s,), rates)
    return {fuel: column[0] for fuel, column in columns.items()}


def co2_from_fuel(
    fuel: Mapping[FuelType, float],
    factors: EmissionFactorTable,
) -> EmissionReport:
    """CO2 per hour from fuel per hour: co2(f) = fuel(f) * factor(f)."""
    fuel_out: dict[FuelType, float] = {}
    co2_out: dict[FuelType, float] = {}
    for fuel_type in FuelType:
        quantity = fuel.get(fuel_type, 0.0)
        fuel_out[fuel_type] = quantity
        if quantity == 0.0:
            co2_out[fuel_type] = 0.0
            continue
        factor = factors.factors.get(fuel_type)
        if factor is None:
            raise InputError(f"no emission factor for {fuel_type.value}")
        co2_out[fuel_type] = quantity * factor
    total = math.fsum(co2_out.values())
    return EmissionReport(
        fuel_per_hour=MappingProxyType(fuel_out),
        co2_per_hour=MappingProxyType(co2_out),
        total_co2_per_hour=total,
    )


def scale_emissions(
    per_intersection: Sequence[float],
    intersection_count_citywide: int,
    active_hours_per_day: float,
    city_rate_kg_per_hour: float | None = None,
) -> CityEstimate:
    """City-level CO2 rate and daily tonnage.

    With an explicit city rate, it passes through unchanged; otherwise the
    mean per-intersection rate is extrapolated by the citywide intersection
    count and the result is flagged as an estimate.
    """
    from .stats import require_finite  # here, not at import: config loads this module

    if intersection_count_citywide < 1:
        raise InputError("intersection count must be >= 1")
    if active_hours_per_day <= 0:
        raise InputError("active hours per day must be > 0")
    if city_rate_kg_per_hour is not None:
        rate = float(city_rate_kg_per_hour)
        extrapolated = False
    else:
        if not per_intersection:
            raise InputError("no per-intersection totals to extrapolate from")
        rate = math.fsum(per_intersection) / len(per_intersection) * intersection_count_citywide
        extrapolated = True
    tons = rate * active_hours_per_day / 1000.0
    require_finite([rate], "CO2 rate", "the city", [None])
    require_finite([tons], "daily CO2", "the city", [None])
    return CityEstimate(city_kg_per_hour=rate, tons_per_day=tons, extrapolated=extrapolated)
