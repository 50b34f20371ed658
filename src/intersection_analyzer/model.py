"""Domain model: classified counts, signal-cycle records and approach geometry.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping

from .errors import InvariantViolation

# Allocated amber/lost time may make red + green fall short of the cycle,
# never exceed it.  Small slack absorbs float noise in hand-edited CSVs.
_TIMING_SLACK_S = 1e-9


class VehicleClass(Enum):
    """Five-way classification used for mixed urban traffic."""

    TWO_WHEELER = "two_wheeler"
    AUTO_RICKSHAW = "auto_rickshaw"
    CAR = "car"
    LIGHT_COMMERCIAL = "lcv"
    BUS = "bus"

    # Members are singletons compared by identity, so the C-level identity
    # hash is sound; Enum's own __hash__ runs Python code on every lookup.
    __hash__ = object.__hash__


# Iterating a tuple skips EnumType.__iter__ on the per-record paths.
VEHICLE_CLASSES = tuple(VehicleClass)


class Directionality(Enum):
    ONE_WAY = "oneway"
    TWO_WAY = "twoway"


class DayFilter(Enum):
    WEEKDAY = "weekday"
    SATURDAY = "saturday"
    SUNDAY = "sunday"
    ALL = "all"


@dataclass(frozen=True, eq=True, slots=True)
class ClassifiedCount:
    """Raw per-class vehicle counts for one approach, optionally timestamped.

    Missing classes are stored as zero; every instance addresses all five
    classes, and ``counts`` iterates them in ``VEHICLE_CLASSES`` order.
    ``timestamp`` is wall-clock seconds since the Unix epoch (UTC).
    """

    approach_id: str
    counts: Mapping[VehicleClass, int]
    timestamp: float | None = None

    def __post_init__(self):
        counts = self.counts
        full: dict[VehicleClass, int] = {}
        for cls in VEHICLE_CLASSES:
            value = counts.get(cls, 0)
            if type(value) is not int and (
                    isinstance(value, bool) or not isinstance(value, int)):
                raise InvariantViolation(
                    f"count for {cls.value} must be an integer, got {value!r}")
            if value < 0:
                raise InvariantViolation(f"negative count for {cls.value}: {value}")
            full[cls] = value
        object.__setattr__(self, "counts", MappingProxyType(full))

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True, eq=True, slots=True)
class SignalCycleRecord:
    """One signal cycle's timing joined with its classified counts.

    ``effective_green`` (the slice of green during which discharge actually
    happens) and ``exited_pcu`` (PCU discharged during it) are optional:
    they exist only where discharge observations were made.
    """

    approach_id: str
    cycle_length: float
    red_time: float
    green_time: float
    counts: ClassifiedCount
    effective_green: float | None = None
    exited_pcu: float | None = None

    def __post_init__(self):
        if self.cycle_length <= 0:
            raise InvariantViolation(f"cycle_length must be > 0, got {self.cycle_length}")
        if self.red_time < 0 or self.green_time < 0:
            raise InvariantViolation("red_time and green_time must be >= 0")
        if self.red_time + self.green_time > self.cycle_length + _TIMING_SLACK_S:
            raise InvariantViolation(
                f"red + green = {self.red_time + self.green_time} exceeds "
                f"cycle length {self.cycle_length}")
        if self.effective_green is not None:
            if self.effective_green < 0:
                raise InvariantViolation("effective_green must be >= 0")
            if self.effective_green > self.green_time + _TIMING_SLACK_S:
                raise InvariantViolation(
                    f"effective_green = {self.effective_green} exceeds "
                    f"green_time = {self.green_time}")
        if self.exited_pcu is not None and self.exited_pcu < 0:
            raise InvariantViolation("exited_pcu must be >= 0")
        if self.counts.approach_id != self.approach_id:
            raise InvariantViolation(
                f"counts belong to {self.counts.approach_id!r}, record to {self.approach_id!r}")

    @property
    def timestamp(self) -> float | None:
        return self.counts.timestamp


@dataclass(frozen=True, eq=True)
class ApproachConfig:
    """Static geometry and role of one approach road."""

    approach_id: str
    intersection_id: str
    lane_count: int
    directionality: Directionality
    width: float
    free_left: bool = False
    is_major: bool = False

    def __post_init__(self):
        if self.lane_count < 1:
            raise InvariantViolation(f"lane_count must be >= 1, got {self.lane_count}")
        if self.width <= 0:
            raise InvariantViolation(f"width must be > 0, got {self.width}")
