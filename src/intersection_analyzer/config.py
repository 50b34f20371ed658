"""Configuration loading and defaults.

Precedence is defaults < config file < CLI flags.  A config file replaces
whole top-level sections of the defaults; keys it does not mention keep
their default values.  With no ``--config`` flag, ``ANALYZER_CONFIG_DIR``
is consulted for a ``config.json`` fallback.  A ``pcu_factors`` section
without ``composition_threshold`` keeps the shipped threshold.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import AnalyzerError, ConfigError
from .flow import CapacityTable
from .emissions import EmissionFactorTable, FuelType, IdleRate, IdleRateTable
from .los import LosBandTable
from .model import Directionality, VehicleClass, _frozen
from .pcu import PcuFactorTable

ENV_CONFIG_DIR = "ANALYZER_CONFIG_DIR"
_FALLBACK_NAME = "config.json"

COUNTS_PCU = "pcu"
COUNTS_VEHICLES = "vehicles"


@_frozen
class CityScaling:
    intersection_count: int
    active_hours_per_day: float
    co2_kg_per_hour: float | None


@_frozen
class AnalysisConfig:
    """Every lookup table and constant the pipeline treats as given."""

    version: int
    counts_unit: str
    pcu_factors: PcuFactorTable
    capacity_table: CapacityTable
    los_tables: Mapping[str, LosBandTable]
    emission_factors: EmissionFactorTable
    idle_rates: IdleRateTable
    platoon_ratios: Mapping[str, float]
    default_platoon_ratio: float
    city: CityScaling


def _strip_notes(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _strip_notes(v) for k, v in value.items() if not k.startswith("_")}
    if isinstance(value, list):
        return [_strip_notes(v) for v in value]
    return value


def _finite(value: Any, label: str) -> float:
    if isinstance(value, bool):  # float() would read true as 1.0
        raise TypeError(f"{label} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{label} is an integer past the largest float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{label} must be finite, got {value!r}")
    return number


def _whole(value: Any, label: str) -> int:
    """``value`` as an int: an integer, or a float with no fraction; int()
    alone would truncate 2.7 to 2 and read true as 1."""
    if isinstance(value, bool) or not (isinstance(value, int) or float(value).is_integer()):
        raise ValueError(f"{label} must be a whole number, got {value!r}")
    return int(value)


def _build_pcu(section: Mapping[str, Any]) -> PcuFactorTable:
    factors = {}
    for key, pair in section["factors"].items():
        factors[VehicleClass(key)] = (
            _finite(pair[0], f"pcu factor for {key}"),
            _finite(pair[1], f"pcu factor for {key}"),
        )
    return PcuFactorTable(
        factors, _finite(section["composition_threshold"], "composition_threshold"))


def _build_capacity(entries: list[Mapping[str, Any]]) -> CapacityTable:
    capacities = {}
    for entry in entries:
        key = (_whole(entry["lanes"], "lanes"), Directionality(entry["directionality"]))
        if key in capacities:
            raise ConfigError(f"duplicate capacity entry for {key}")
        capacities[key] = _finite(entry["pcu_per_hour"], f"capacity for {key}")
    return CapacityTable(capacities)


def _build_los(section: Mapping[str, Any]) -> dict[str, LosBandTable]:
    tables = {}
    for name, spec in section.items():
        bands = tuple(
            (None if bound is None else _finite(bound, f"{name} band bound"), str(grade))
            for bound, grade in spec["bands"]
        )
        tables[name] = LosBandTable(name, bands, bool(spec.get("upper_inclusive", True)))
    return tables


def _build_idle_rates(section: Mapping[str, Any]) -> IdleRateTable:
    rates = {}
    for entry in section.get("entries", []):
        key = (VehicleClass(entry["vehicle_class"]), FuelType(entry["fuel"]))
        if key in rates:
            raise ConfigError(
                f"duplicate idle-rate entry for {key[0].value}/{key[1].value}")
        rates[key] = IdleRate(
            _finite(entry["fleet_fraction"], "fleet_fraction"),
            _finite(entry["rate_per_hour"], "rate_per_hour"))
    return IdleRateTable(rates)


def _build_city(section: Mapping[str, Any]) -> CityScaling:
    intersection_count = _whole(section["intersection_count"], "city.intersection_count")
    _finite(intersection_count, "city.intersection_count")
    if intersection_count < 1:
        raise ConfigError(
            f"city.intersection_count must be >= 1, got {intersection_count}")
    active_hours = _finite(section["active_hours_per_day"], "active_hours_per_day")
    if active_hours <= 0:
        raise ConfigError(f"city.active_hours_per_day must be > 0, got {active_hours:g}")
    rate = section.get("co2_kg_per_hour")
    if rate is not None:
        rate = _finite(rate, "co2_kg_per_hour") + 0.0  # so -0.0 prints as 0.00
        if rate < 0:
            raise ConfigError(f"city.co2_kg_per_hour must be >= 0, got {rate:g}")
    return CityScaling(
        intersection_count=intersection_count,
        active_hours_per_day=active_hours,
        co2_kg_per_hour=rate,
    )


def _build(config: Mapping[str, Any]) -> AnalysisConfig:
    def section(name: str, build: Callable[[Any], Any]) -> Any:
        try:
            return build(config[name])
        except ConfigError:
            raise
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
                AnalyzerError) as err:
            raise ConfigError(f"invalid configuration: section {name!r}: {err}") from None

    counts_unit = config["counts_unit"]
    if counts_unit not in (COUNTS_PCU, COUNTS_VEHICLES):
        raise ConfigError(
            f"counts_unit must be {COUNTS_PCU!r} or {COUNTS_VEHICLES!r}, got {counts_unit!r}")
    return AnalysisConfig(
        version=section("version", lambda version: _whole(version, "version")),
        counts_unit=counts_unit,
        pcu_factors=section("pcu_factors", _build_pcu),
        capacity_table=section("capacity_table", _build_capacity),
        los_tables=section("los_bands", _build_los),
        emission_factors=section("emission_factors", lambda factors: EmissionFactorTable(
            {FuelType(k): _finite(v, f"emission factor {k}") for k, v in factors.items()})),
        idle_rates=section("idle_rates", _build_idle_rates),
        platoon_ratios=section("platoon_ratios", lambda ratios: {
            str(k): _finite(v, f"platoon ratio for {k}")
            for k, v in ratios.get("values", {}).items()}),
        default_platoon_ratio=section(
            "default_platoon_ratio", lambda ratio: _finite(ratio, "default_platoon_ratio")),
        city=section("city", _build_city),
    )


def _default_dict() -> dict[str, Any]:
    # Through the package's own loader, which reads from a directory or a
    # zip archive alike: importlib.resources costs more than the package.
    data = __spec__.loader.get_data(
        os.path.join(os.path.dirname(__file__), "data", "default_config.json"))
    return _strip_notes(json.loads(data.decode("utf-8")))


def load_config(path: str | Path | None = None) -> AnalysisConfig:
    """Load the effective configuration.

    ``path`` overrides sections of the shipped defaults; with no path, a
    ``config.json`` inside $ANALYZER_CONFIG_DIR is used when present.
    """
    merged = _default_dict()
    if path is None:
        config_dir = os.environ.get(ENV_CONFIG_DIR)
        if config_dir:
            candidate = Path(config_dir) / _FALLBACK_NAME
            if candidate.is_file():
                path = candidate
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as handle:
                overrides = json.load(handle)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except ValueError as err:  # also bad UTF-8, or an integer int() will not read
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
        if not isinstance(overrides, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        overrides = _strip_notes(overrides)
        pcu_factors = overrides.get("pcu_factors")
        if isinstance(pcu_factors, dict):
            pcu_factors.setdefault(
                "composition_threshold", merged["pcu_factors"]["composition_threshold"])
        merged.update(overrides)
    return _build(merged)
