"""The error classes are a listed set: their names are the ``error`` field of
the CLI's JSON record, so a change to them is a deliberate diff here."""

import pytest

from intersection_analyzer import (
    ApproachConfig,
    Directionality,
    WindowedAverage,
    hourly_volume,
    idle_fuel,
    load_config,
    peak_window,
    saturation_flow_discharge,
    scale_emissions,
    vc_ratio,
)
from intersection_analyzer import errors
from intersection_analyzer.errors import AnalyzerError, InputError

EXIT_CODES = {
    "AnalyzerError": 1,
    "InputError": 2,
    "SchemaViolation": 2,
    "UnknownApproach": 2,
    "InvariantViolation": 2,
    "ConfigError": 2,
    "SaturatedRegime": 3,
    "IoFailure": 4,
}


def test_error_classes_are_the_listed_set_with_their_exit_codes():
    defined = {
        name: value for name, value in vars(errors).items()
        if isinstance(value, type) and value.__module__ == errors.__name__
    }
    assert {name: cls.exit_code for name, cls in defined.items()} == EXIT_CODES
    for cls in defined.values():
        assert issubclass(cls, AnalyzerError)


CONFIG = load_config()
APPROACH = ApproachConfig("A1", "X", 3, Directionality.ONE_WAY, 7.0)


@pytest.mark.parametrize("call, message", [
    (lambda: hourly_volume(-1.0, 100.0), "pcu_per_cycle must be >= 0"),
    (lambda: vc_ratio(-1.0, APPROACH, CONFIG.capacity_table), "volume must be >= 0"),
    (lambda: saturation_flow_discharge(-1.0, 10.0), "exited_pcu must be >= 0"),
    (lambda: idle_fuel({}, -1.0, CONFIG.idle_rates), "mean delay must be >= 0"),
    (lambda: scale_emissions([1.0], 0, 13.0), "intersection count must be >= 1"),
    (lambda: scale_emissions([1.0], 1, 0.0), "active hours per day must be > 0"),
    (lambda: peak_window([WindowedAverage(28800.0, 1800.0, 100.0, 1)], 0), "span must be >= 1"),
], ids=["hourly_volume", "vc_ratio", "saturation_flow_discharge", "idle_fuel",
        "scale_emissions_count", "scale_emissions_hours", "peak_window"])
def test_former_value_error_checks_raise_input_error(call, message):
    with pytest.raises(InputError, match=message) as exc:
        call()
    assert exc.value.exit_code == 2
