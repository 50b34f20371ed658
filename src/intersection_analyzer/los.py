"""Level-of-service banding for control delay and volume-to-capacity values.

Two delay standards ship by default: one calibrated for heterogeneous
(non-lane-based) traffic and the stricter uniform-traffic one.  Delay bands
are upper-inclusive ("up to 10 s" is still grade A); V/C bands are
lower-inclusive with an open-ended F at 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InvariantViolation

GRADES = ("A", "B", "C", "D", "E", "F")


@dataclass(frozen=True)
class LosResult:
    grade: str
    standard: str


@dataclass(frozen=True)
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

    def classify(self, value: float) -> LosResult:
        """Grade ``value``; NaN and negative values raise ``InputError``, inf grades F."""
        if not value >= 0:
            raise InputError(f"classified value must be >= 0, got {value}")
        for upper, grade in self.bands:
            if upper is None:
                return LosResult(grade, self.standard)
            if (value <= upper) if self.upper_inclusive else (value < upper):
                return LosResult(grade, self.standard)
        raise AssertionError("unreachable: final band is open-ended")


def classify_los(value: float, table: LosBandTable) -> LosResult:
    return table.classify(value)
