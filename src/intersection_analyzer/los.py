"""Level-of-service banding for control delay and volume-to-capacity values.

Two delay standards ship by default: one calibrated for heterogeneous
(non-lane-based) traffic and the stricter uniform-traffic one.  Delay bands
are upper-inclusive ("up to 10 s" is still grade A); V/C bands are
lower-inclusive with an open-ended F at 1.0.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import le
from typing import Sequence

from .errors import InputError, InvariantViolation
from .model import _frozen

GRADES = ("A", "B", "C", "D", "E", "F")
# The band table that grades V/C ratios; every other table grades delay.
VC_STANDARD = "vc_ratio"


@_frozen
class LosResult:
    grade: str
    standard: str


@_frozen
class LosBandTable:
    """Ordered (upper_bound, grade) bands; the last band is unbounded (None)."""

    standard: str
    bands: tuple[tuple[float | None, str], ...]
    upper_inclusive: bool = True

    def __post_init__(self):
        grades = tuple(grade for _, grade in self.bands)
        if grades != GRADES:
            raise InvariantViolation(
                f"bands must cover grades A..F exactly once in order, got {grades}")
        bounds = [b for b, _ in self.bands[:-1]]
        if self.bands[-1][0] is not None:
            raise InvariantViolation("the F band must be open-ended (bound None)")
        if any(b is None for b in bounds):
            raise InvariantViolation("only the final band may be unbounded")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise InvariantViolation(f"bounds must be strictly increasing, got {bounds}")

    def grades(self, values: Sequence[float]) -> list[str]:
        """The grade of each value; NaN and negative values raise ``InputError``,
        inf grades F.

        A value's band is the number of bounds below it (upper-inclusive
        bands) or at or below it (lower-inclusive ones): one binary search.
        """
        if not all(map(le, repeat(0.0), values)):
            bad = next(value for value in values if not value >= 0)
            raise InputError(f"classified value must be >= 0, got {bad}")
        bounds = [upper for upper, _ in self.bands[:-1]]
        search = bisect_left if self.upper_inclusive else bisect_right
        return list(map(GRADES.__getitem__, map(search, repeat(bounds), values)))

    def classify(self, value: float) -> LosResult:
        """Grade ``value``; NaN and negative values raise ``InputError``, inf grades F."""
        return LosResult(self.grades((value,))[0], self.standard)


def classify_los(value: float, table: LosBandTable) -> LosResult:
    return table.classify(value)
