"""Composition-dependent passenger-car-unit (PCU) normalization.

The equivalency factor for a class depends on how much of the traffic
stream that class occupies: below the threshold share one factor applies,
at or above it another.  Shares are computed from raw vehicle counts over
the whole analysis window, not per cycle, so factor selection is stable
and does not depend on the PCU values it produces.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import InputError, InvariantViolation
from .model import COUNT_MAX, VEHICLE_CLASSES, VehicleClass, _frozen

@_frozen
class PcuFactorTable:
    """(factor below threshold, factor at/above threshold) per class."""

    factors: Mapping[VehicleClass, tuple[float, float]]
    composition_threshold: float

    def __post_init__(self):
        if not 0.0 < self.composition_threshold < 1.0:
            raise InvariantViolation(
                f"composition threshold must lie in (0, 1), got {self.composition_threshold}")
        table: dict[VehicleClass, tuple[float, float]] = {}
        for cls in VehicleClass:
            if cls not in self.factors:
                raise InvariantViolation(f"no PCU factors for {cls.value}")
            below, above = self.factors[cls]
            if below <= 0 or above <= 0:
                raise InvariantViolation(f"PCU factors for {cls.value} must be > 0")
            table[cls] = (float(below), float(above))
        object.__setattr__(self, "factors", MappingProxyType(table))

    def factor_for(self, vehicle_class: VehicleClass, share: float) -> float:
        below, at_or_above = self.factors[vehicle_class]
        return below if share < self.composition_threshold else at_or_above


def _class_counts(counts: Mapping[VehicleClass, int]) -> Iterator[tuple[VehicleClass, int]]:
    """Each class in ``VEHICLE_CLASSES`` order with its count, 0 if missing;
    an ``InvariantViolation`` for a count that is not an int in [0, ``COUNT_MAX``]."""
    for cls in VEHICLE_CLASSES:
        value = counts.get(cls, 0)
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
            raise InvariantViolation(f"count for {cls.value} must be an integer, got {value!r}")
        if not 0 <= value <= COUNT_MAX:
            raise InvariantViolation(
                f"negative count for {cls.value}: {value}" if value < 0 else
                f"count for {cls.value} exceeds {COUNT_MAX}: {value}")
        yield cls, value


def composition_shares(
    rows: Iterable[Mapping[VehicleClass, int]],
) -> dict[VehicleClass, float]:
    """Fraction of total traffic contributed by each class, from raw counts:
    ``rows`` of class counts, a missing class read as 0.

    Shares sum to 1 (within float noise) and are invariant under uniform
    scaling of all counts.
    """
    totals = {cls: 0 for cls in VEHICLE_CLASSES}
    for counts in rows:
        for cls, n in _class_counts(counts):
            totals[cls] += n
    grand_total = sum(totals.values())
    if grand_total == 0:
        raise InputError("no vehicles counted in any record")
    return {cls: totals[cls] / grand_total for cls in VEHICLE_CLASSES}


def to_pcu(counts: Mapping[VehicleClass, int],
           shares: Mapping[VehicleClass, float],
           table: PcuFactorTable) -> float:
    """Convert raw class counts (a missing class read as 0) to total PCU.

    Linear in the counts; zero exactly when every count is zero.
    """
    return math.fsum(
        n * table.factor_for(cls, shares.get(cls, 0.0))
        for cls, n in _class_counts(counts)
    )
