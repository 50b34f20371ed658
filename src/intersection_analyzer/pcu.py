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
from typing import Iterable, Mapping

from .errors import InputError, InvariantViolation
from .model import VEHICLE_CLASSES, ClassifiedCount, VehicleClass, _frozen

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


def composition_shares(counts: Iterable[ClassifiedCount]) -> dict[VehicleClass, float]:
    """Fraction of total traffic contributed by each class, from raw counts.

    Shares sum to 1 (within float noise) and are invariant under uniform
    scaling of all counts.
    """
    totals = {cls: 0 for cls in VEHICLE_CLASSES}
    for record in counts:
        for cls, n in record.counts.items():
            totals[cls] += n
    grand_total = sum(totals.values())
    if grand_total == 0:
        raise InputError("no vehicles counted in any record")
    return {cls: totals[cls] / grand_total for cls in VEHICLE_CLASSES}


def to_pcu(counts: ClassifiedCount,
           shares: Mapping[VehicleClass, float],
           table: PcuFactorTable) -> float:
    """Convert one record's raw counts to total PCU.

    Linear in the counts; zero exactly when every count is zero.
    """
    return math.fsum(
        n * table.factor_for(cls, shares.get(cls, 0.0))
        for cls, n in counts.counts.items()
    )
