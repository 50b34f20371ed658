"""Exception hierarchy.

Exit codes follow the CLI contract: 2 for input errors, 3 for model-domain
errors (the estimator is asked to operate outside its valid regime), 4 for
I/O failures while writing artifacts.  The class name is the ``error``
field of the CLI's JSON record, so this set is part of that contract.
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


class IoFailure(AnalyzerError):
    exit_code = 4


class SchemaViolation(InputError):
    """Malformed CSV: bad header, bad cell, or negative count."""


class UnknownApproach(InputError):
    """A record references an approach with no configuration."""


class InvariantViolation(InputError):
    """A record breaks a domain-type invariant (e.g. red + green > cycle)."""


class ConfigError(InputError):
    """A configuration file is missing, malformed, or inconsistent."""


class SaturatedRegime(AnalyzerError):
    """The delay model only covers undersaturated operation (X*g/C < 1)."""
    exit_code = 3
