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
from typing import Any, Mapping

from .errors import AnalyzerError, ConfigError
from .flow import CapacityTable
from .emissions import EmissionFactorTable, FuelType, IdleRate, IdleRateTable
from .los import GRADES, LosBandTable
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
    co2_kg_per_hour: float | None = None

    def __post_init__(self):
        count, hours = self.intersection_count, self.active_hours_per_day
        if count < 1:
            raise ConfigError(f"city.intersection_count must be >= 1, got {count}")
        if hours <= 0:
            raise ConfigError(f"city.active_hours_per_day must be > 0, got {hours:g}")
        if self.co2_kg_per_hour is not None and self.co2_kg_per_hour < 0:
            raise ConfigError(f"city.co2_kg_per_hour must be >= 0, got {self.co2_kg_per_hour:g}")


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


def _label(path: tuple) -> str:
    """``("capacity_table", 0, "lanes")`` as ``capacity_table[0].lanes``."""
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]


def _read(shape: Any, value: Any, path: tuple) -> Any:
    """``value``, found at ``path``, read against ``shape`` (see ``_SECTIONS``)."""
    if type(shape) is dict:
        if type(value) is not dict:
            raise TypeError(f"{_label(path)} must be an object, got {value!r}")
        if str in shape:
            return {key: _read(shape[str], item, (*path, key)) for key, item in value.items()}
        read = {}
        for declared, field in shape.items():
            key = declared.rstrip("?")
            if key in value:
                read[key] = _read(field, value[key], (*path, key))
            elif key == declared:
                raise ValueError(f"missing key {_label((*path, key))!r}")
        for key in value:
            if key not in read and key[:1] != "_":
                raise ValueError(f"unknown key {_label((*path, key))!r}")
        return read
    if type(shape) is list or type(shape) is tuple:
        if type(value) is not list or type(shape) is tuple and len(value) != len(shape):
            raise TypeError(f"{_label(path)} must be a list of "
                            f"{len(shape) if type(shape) is tuple else 'entries'}, got {value!r}")
        shapes = shape * len(value) if type(shape) is list else shape
        return type(shape)(map(_read, shapes, value, [(*path, at) for at in range(len(value))]))
    if type(shape) is set:  # of one type: 1 == true, and bool() reads "false" as true
        if type(value) is not type(next(iter(shape))) or value not in shape:
            raise ValueError(f"{_label(path)} must be "
                             f"{' or '.join(map(json.dumps, sorted(shape)))}, got {value!r}")
        return value
    if value is None and shape == float | None:
        return None
    # A number: float reads one that is finite, int one with no fraction.
    if type(value) is not int and (type(value) is not float  # true or "1" too
                                   or shape is int and not value.is_integer()):
        raise TypeError(f"{_label(path)} must be a {'whole ' if shape is int else ''}number, "
                        f"got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{_label(path)} is an integer past the largest float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{_label(path)} must be finite, got {value!r}")
    return int(value) if shape is int else number + 0.0  # so -0.0 prints as 0.00


def _capacity_table(entries: list) -> CapacityTable:
    capacities = {}
    for entry in entries:
        key = (entry["lanes"], Directionality(entry["directionality"]))
        if key in capacities:
            raise ConfigError(f"duplicate capacity entry for {key}")
        capacities[key] = entry["pcu_per_hour"]
    return CapacityTable(capacities)


def _idle_rates(section: dict) -> IdleRateTable:
    rates = {}
    for entry in section.get("entries", ()):
        key = (VehicleClass(entry["vehicle_class"]), FuelType(entry["fuel"]))
        if key in rates:
            raise ConfigError(f"duplicate idle-rate entry for {key[0].value}/{key[1].value}")
        rates[key] = IdleRate(entry["fleet_fraction"], entry["rate_per_hour"])
    return IdleRateTable(rates)


# The config's shape: each section's, in the order they are checked, and
# what builds its value from the reading.  A dict is an object whose keys
# ending in "?" may be left out and whose other keys must be "_" notes, or,
# as {str: shape}, one whose every key is data; [shape] is a list of entries,
# a tuple of shapes a list of that length, a set the values a leaf may take;
# float reads a finite number, int a whole one, and float | None also null.
_SECTIONS = {
    "counts_unit": ({COUNTS_PCU, COUNTS_VEHICLES}, None),
    "version": (int, None),
    "pcu_factors": (
        {"factors": {f"{cls.value}?": (float, float) for cls in VehicleClass},
         "composition_threshold": float},
        lambda section: PcuFactorTable(
            {VehicleClass(name): pair for name, pair in section["factors"].items()},
            section["composition_threshold"])),
    "capacity_table": ([{"lanes": int, "directionality": {way.value for way in Directionality},
                         "pcu_per_hour": float}], _capacity_table),
    "los_bands": (
        {str: {"upper_inclusive?": {True, False}, "bands": [(float | None, set(GRADES))]}},
        lambda tables: {name: LosBandTable(name, tuple(spec["bands"]),
                                           spec.get("upper_inclusive", True))
                        for name, spec in tables.items()}),
    "emission_factors": ({f"{fuel.value}?": float for fuel in FuelType}, lambda factors:
                         EmissionFactorTable({FuelType(k): v for k, v in factors.items()})),
    "idle_rates": ({"entries?": [{
        "vehicle_class": {cls.value for cls in VehicleClass},
        "fuel": {fuel.value for fuel in FuelType},
        "fleet_fraction": float, "rate_per_hour": float}]}, _idle_rates),
    "platoon_ratios": ({"values?": {str: float}}, lambda section: section.get("values", {})),
    "default_platoon_ratio": (float, None),
    "city": ({"intersection_count": int, "active_hours_per_day": float,
              "co2_kg_per_hour?": float | None}, lambda section: CityScaling(**section)),
}


def _build(config: Mapping[str, Any]) -> AnalysisConfig:
    for name in config:
        if name not in _SECTIONS and name[:1] != "_":
            raise ConfigError(f"invalid configuration: section {name!r}: unknown key {name!r}")
    read = {}
    for name, (shape, build) in _SECTIONS.items():
        try:
            value = _read(shape, config[name], (name,))
            read[name] = value if build is None else build(value)
        except ConfigError:
            raise
        except (TypeError, ValueError, AnalyzerError) as err:
            raise ConfigError(f"invalid configuration: section {name!r}: {err}") from None
    return AnalysisConfig(los_tables=read.pop("los_bands"), **read)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, which alone would keep the last of a repeated key."""
    if len(value := dict(pairs)) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ConfigError(f"key {next(key for key in keys if keys.count(key) > 1)!r} "
                          "appears twice in one object of the config file")
    return value


def load_config(path: str | Path | None = None) -> AnalysisConfig:
    """Load the effective configuration.

    ``path`` overrides sections of the shipped defaults; with no path, a
    ``config.json`` inside $ANALYZER_CONFIG_DIR is used when present.
    """
    # Through the package's own loader, which reads from a directory or a
    # zip archive alike: importlib.resources costs more than the package.
    merged = json.loads(__spec__.loader.get_data(
        os.path.join(os.path.dirname(__file__), "data", "default_config.json")).decode("utf-8"))
    if path is None and os.environ.get(ENV_CONFIG_DIR):
        candidate = Path(os.environ[ENV_CONFIG_DIR]) / _FALLBACK_NAME
        path = candidate if candidate.is_file() else None
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as handle:
                overrides = json.load(handle, object_pairs_hook=_unique_keys)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except ValueError as err:  # also bad UTF-8, or an integer int() will not read
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
        if not isinstance(overrides, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        if isinstance(pcu_factors := overrides.get("pcu_factors"), dict):
            pcu_factors.setdefault(
                "composition_threshold", merged["pcu_factors"]["composition_threshold"])
        merged.update(overrides)
    return _build(merged)
