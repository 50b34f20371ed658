"""Domain model: vehicle classes, the timing checks, the columnar cycle table
and approach geometry.

Every type but ``CycleTable`` is immutable after construction and safe to
share across threads; a table only grows, by ``CycleTable.append`` or
``CycleTable.extend``.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from enum import Enum
from typing import Iterable, Sequence

from .errors import InvariantViolation

# Allocated amber/lost time may make red + green fall short of the cycle,
# never exceed it.  Small slack absorbs float noise in hand-edited CSVs.
_TIMING_SLACK_S = 1e-9

# The largest count a CycleTable's array('q') column holds.
COUNT_MAX = 2**63 - 1


def _refuse_change(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def _frozen(cls):
    """``dataclasses.dataclass(frozen=True)`` over the fields ``cls``
    annotates, built from closures instead of generated code: importing
    ``dataclasses`` (with ``inspect``) costs more than the package.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or given.keys() != set(names)
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{cls.__name__}() takes {', '.join(names)}; got "
                                f"{len(args)} positional and {sorted(kwargs)} by keyword")
            args = map(given.__getitem__, names)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def values(self):
        return tuple(map(getattr, itertools.repeat(self), names))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, names, values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, __eq__
    cls.__hash__ = lambda self: hash(values(self))
    cls.__reduce__ = lambda self: (type(self), values(self))  # for copy and pickle
    cls.__setattr__ = cls.__delattr__ = _refuse_change
    cls.__match_args__ = names
    return cls


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

    __hash__ = object.__hash__  # as VehicleClass


class DayFilter(Enum):
    WEEKDAY = "weekday"
    SATURDAY = "saturday"
    SUNDAY = "sunday"
    ALL = "all"


def timing_faults(
    cycle_length: Sequence[float],
    red_time: Sequence[float],
    green_time: Sequence[float],
    effective_green: Sequence[float],
    exited_pcu: Sequence[float],
) -> dict[int, str]:
    """The rows with inconsistent timing, given column by column, each with
    the message of the first check it fails, in this table's order.

    NaN marks an absent optional value; it fails every comparison, so it
    passes every check.  Each check runs as C-level passes over whole
    columns: its comparison runs row by row only if a clear test fails to
    clear the column.  A sign check's clear test is a ``min`` (which returns
    a first NaN, failing the test, and skips others).  The two slack checks
    clear a column where no row has r + g > c, or e > g: rounding is
    monotone and the slack is positive, so fl(r + g) <= c <= fl(c + slack),
    and NaN fails both comparisons, so no such column has a flagged row.
    """
    zero, slack = itertools.repeat(0.0), itertools.repeat(_TIMING_SLACK_S)
    add, gt, lt = operator.add, operator.gt, operator.lt
    faults: dict[int, str] = {}
    for clear, flags, message in (
        (min(cycle_length, default=1.0) > 0, map(operator.le, cycle_length, zero),
         "cycle_length must be > 0, got {cycle}"),
        (min(red_time, default=0.0) >= 0, map(lt, red_time, zero),
         "red_time and green_time must be >= 0"),
        (min(green_time, default=0.0) >= 0, map(lt, green_time, zero),
         "red_time and green_time must be >= 0"),
        (not any(map(gt, map(add, red_time, green_time), cycle_length)),
         map(gt, map(add, red_time, green_time), map(add, cycle_length, slack)),
         "red + green = {used} exceeds cycle length {cycle}"),
        (min(effective_green, default=0.0) >= 0, map(lt, effective_green, zero),
         "effective_green must be >= 0"),
        (not any(map(gt, effective_green, green_time)),
         map(gt, effective_green, map(add, green_time, slack)),
         "effective_green = {effective} exceeds green_time = {green}"),
        (min(exited_pcu, default=0.0) >= 0, map(lt, exited_pcu, zero),
         "exited_pcu must be >= 0"),
    ):
        if not clear:
            for j in itertools.compress(itertools.count(), flags):
                faults.setdefault(j, message.format(
                    cycle=cycle_length[j], used=red_time[j] + green_time[j],
                    green=green_time[j], effective=effective_green[j]))
    return faults


class CycleTable:
    """Signal-cycle rows stored column by column, in file order; ``len()``
    is the number of rows.

    ``cycle_length``, ``green_time``, ``effective_green``, ``exited_pcu``
    and ``timestamp`` are ``array('d')`` columns with one entry per row; NaN
    marks an absent optional value.  Every accepted value is finite, so NaN
    is never a real one.  ``counts`` is a tuple of ``array('q')`` columns,
    one per class in ``VEHICLE_CLASSES`` order, each with the class's count
    in each row.  ``approach_column()`` gives each row's approach, as an
    index into the approach ids in the order they first appear.  A row's
    red time is checked (``timing_faults``) but not kept: no figure reads it.
    """

    __slots__ = (
        "cycle_length", "green_time", "effective_green", "exited_pcu",
        "timestamp", "counts", "_approach", "_ids", "_number",
    )

    # What ``extend`` calls each column it packs, in the order it packs them.
    _NAMES = ("cycle_length", "green_time", "effective_green", "exited_pcu", "timestamp",
              *(f"{cls.value} counts" for cls in VEHICLE_CLASSES))

    def __init__(self) -> None:
        self.cycle_length = array("d")
        self.green_time = array("d")
        self.effective_green = array("d")
        self.exited_pcu = array("d")
        self.timestamp = array("d")
        self.counts = tuple(array("q") for _ in VEHICLE_CLASSES)
        self._approach = array("q")  # each row's index into _ids
        self._ids: list[str] = []  # approach ids, first seen first
        self._number: dict[str, int] = {}  # approach id -> its index in _ids

    def append(
        self,
        approach_id: str,
        cycle_length: float,
        red_time: float,
        green_time: float,
        counts: Iterable[int],
        effective_green: float = math.nan,
        exited_pcu: float = math.nan,
        timestamp: float = math.nan,
    ) -> None:
        """Add one row unless ``timing_faults`` flags it, in which case raise
        its message as an ``InvariantViolation``; NaN marks an absent value.

        ``counts`` are the row's five class counts in ``VEHICLE_CLASSES``
        order, each an int in [0, ``COUNT_MAX``]; they are not checked here.
        """
        for message in timing_faults((cycle_length,), (red_time,), (green_time,),
                                     (effective_green,), (exited_pcu,)).values():
            raise InvariantViolation(message)
        # zip(counts) gives each count as a one-entry column.
        self.extend((approach_id,), (cycle_length,), (green_time,), tuple(zip(counts)),
                    (effective_green,), (exited_pcu,), (timestamp,))

    def extend(
        self,
        approach_ids: Sequence[str],
        cycle_length: Iterable[float],
        green_time: Iterable[float],
        counts: Sequence[Iterable[int]],
        effective_green: Iterable[float],
        exited_pcu: Iterable[float],
        timestamp: Iterable[float],
    ) -> None:
        """Add rows given column by column, with no check: ``timing_faults``
        must flag no row, and every count must lie in [0, ``COUNT_MAX``].

        NaN marks an absent optional value, and ``counts`` holds one column
        per class in ``VEHICLE_CLASSES`` order.  Each column is packed to its
        array's bytes before any is added, so a wrong number of count
        columns or a column of the wrong length raises ``ValueError``, a
        value an array rejects raises the ``TypeError`` or ``OverflowError``
        the array gives, and each leaves the table as it was.
        """
        # Imported here, so that a run which builds no table never loads it.
        # One pack per column beats the array's own per-item conversion.
        import struct

        if len(counts) != len(VEHICLE_CLASSES):
            raise ValueError(f"counts holds {len(counts)} columns, not {len(VEHICLE_CLASSES)}")
        rows = len(approach_ids)
        columns = (self.cycle_length, self.green_time, self.effective_green,
                   self.exited_pcu, self.timestamp, *self.counts)
        packed = []
        for name, column, values in zip(self._NAMES, columns, (
                cycle_length, green_time, effective_green, exited_pcu, timestamp, *counts)):
            if not isinstance(values, (list, tuple)):
                values = list(values)
            if len(values) != rows:
                raise ValueError(f"{name} holds {len(values)} values, not {rows}")
            try:
                packed.append(struct.pack(f"{rows}{column.typecode}", *values))
            except struct.error:
                array(column.typecode, values)  # raises the array's own error
                raise
        numbers = self._number
        new = dict.fromkeys(itertools.filterfalse(numbers.__contains__, approach_ids))
        numbers.update(zip(new, itertools.count(len(self._ids))))
        self._ids.extend(new)
        packed.append(struct.pack(f"{rows}q", *map(numbers.__getitem__, approach_ids)))
        for column, data in zip((*columns, self._approach), packed):
            column.frombytes(data)

    def approach_column(self) -> tuple[list[str], array]:
        """The approach ids in the order they first appear, and each row's
        approach as an index into them."""
        return self._ids, self._approach

    def row_totals(self) -> list[int]:
        """Each row's vehicle total, in file order."""
        return list(map(sum, zip(*self.counts)))

    def untimed(self) -> int:
        """How many rows carry no timestamp."""
        return sum(map(math.isnan, self.timestamp))

    def __len__(self) -> int:
        return len(self._approach)

@_frozen
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
