"""Exception hierarchy.

Exit codes follow the CLI contract: 2 for input errors, 3 for model-domain
errors (the estimator is asked to operate outside its valid regime), 4 for
I/O failures while writing artifacts.
"""

from __future__ import annotations


class AnalyzerError(Exception):
    exit_code = 1

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row

    def __str__(self) -> str:
        base = super().__str__()
        if self.row is not None:
            return f"row {self.row}: {base}"
        return base


class InputError(AnalyzerError):
    exit_code = 2


class DomainError(AnalyzerError):
    exit_code = 3


class IoFailure(AnalyzerError):
    exit_code = 4


# --- input / data errors ---------------------------------------------------

class SchemaViolation(InputError):
    """Malformed CSV: bad header, bad cell, or negative count."""


class UnknownApproach(InputError):
    """A record references an approach with no configuration."""


class InvariantViolation(InputError):
    """A record breaks a domain-type invariant (e.g. red + green > cycle)."""


class ConfigError(InputError):
    """A configuration file is missing, malformed, or inconsistent."""


class EmptyTraffic(InputError):
    """Composition requested over records with zero total vehicles."""


class NoTimestamps(InputError):
    """Time-windowed analysis requested on records without timestamps."""


class InsufficientWindows(InputError):
    """Fewer populated windows than the requested run length."""


class TooFewSamples(InputError):
    """A statistical test needs more observations than were supplied."""


class EmptyInput(InputError):
    pass


class EmptyIntersection(InputError):
    """An intersection (or one of its approaches) has no records."""


class NoMajorApproaches(InputError):
    """Major-only aggregation requested where no approach is flagged major."""


class UnknownLaneConfig(InputError):
    """No capacity entry for this lane count / directionality pair."""


class MissingFactor(InputError):
    """A fuel with nonzero quantity has no emission factor."""


class NoData(InputError):
    """A report was requested over an empty record or report set."""


class ZeroCycle(InputError):
    pass


class ZeroGreen(InputError):
    pass


class ZeroEffectiveGreen(InputError):
    pass


class NonPositiveWidth(InputError):
    pass


# --- model-domain errors ---------------------------------------------------

class SaturatedRegime(DomainError):
    """The delay model only covers undersaturated operation (X*g/C < 1)."""
