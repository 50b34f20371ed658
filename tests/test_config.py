import json
from pathlib import Path

import pytest

from intersection_analyzer import Directionality, FuelType, VehicleClass, config, load_config
from intersection_analyzer.config import ENV_CONFIG_DIR
from intersection_analyzer.errors import ConfigError

SHIPPED = json.loads((Path(config.__file__).parent / "data" / "default_config.json").read_text())
# The objects whose keys are data, not declared: los_bands' table names and
# platoon_ratios' approach ids.
OPEN_MAPS = {("los_bands",), ("platoon_ratios", "values")}


def declared_objects(value, path=()):
    """Each declared object in ``value``: the object and its path."""
    if isinstance(value, dict):
        if path not in OPEN_MAPS:
            yield path, value
        for key, item in value.items():
            yield from declared_objects(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from declared_objects(item, (*path, index))


def test_defaults_load(default_config):
    cfg = default_config
    assert cfg.version == 1
    assert cfg.counts_unit == "pcu"
    assert cfg.capacity_table.capacities[(3, Directionality.ONE_WAY)] == 3600.0
    assert set(cfg.los_tables) == {"delay_heterogeneous", "delay_hcm", "vc_ratio"}
    assert cfg.emission_factors.factors[FuelType.DIESEL] == 2.640
    assert len(cfg.idle_rates.rates) == 6
    assert cfg.platoon_ratios["SR1"] != 1.0
    assert "unknown" not in cfg.platoon_ratios and cfg.default_platoon_ratio == 1.0
    assert cfg.city.intersection_count == 6
    assert cfg.city.active_hours_per_day == 13.0


def test_section_override(tmp_path):
    override = {
        "counts_unit": "vehicles",
        # A whole float reads as its integer.
        "city": {"intersection_count": 9.0, "active_hours_per_day": 10,
                 "co2_kg_per_hour": None},
    }
    path = tmp_path / "override.json"
    path.write_text(json.dumps(override))
    cfg = load_config(path)
    assert cfg.counts_unit == "vehicles"
    assert cfg.city.intersection_count == 9 and type(cfg.city.intersection_count) is int
    assert cfg.city.co2_kg_per_hour is None
    # untouched sections keep their defaults
    assert cfg.capacity_table.capacities[(1, Directionality.ONE_WAY)] == 1500.0


FACTORS = {
    "two_wheeler": [0.5, 0.75], "car": [1.0, 1.0], "auto_rickshaw": [1.2, 2.0],
    "lcv": [1.4, 2.0], "bus": [2.0, 3.0],
}


@pytest.mark.parametrize("section, threshold", [
    ({"factors": FACTORS}, 0.05),  # the shipped pcu_factors threshold
    ({"factors": FACTORS, "composition_threshold": 0.1}, 0.1),
])
def test_pcu_factors_threshold_falls_back_to_the_shipped_one(tmp_path, section, threshold):
    path = tmp_path / "factors.json"
    path.write_text(json.dumps({"pcu_factors": section}))
    cfg = load_config(path)
    assert cfg.pcu_factors.composition_threshold == threshold
    assert cfg.pcu_factors.factors[VehicleClass.BUS] == (2.0, 3.0)


def test_env_dir_fallback(tmp_path, monkeypatch):
    (tmp_path / "config.json").write_text(json.dumps({"counts_unit": "vehicles"}))
    monkeypatch.setenv(ENV_CONFIG_DIR, str(tmp_path))
    assert load_config().counts_unit == "vehicles"
    monkeypatch.delenv(ENV_CONFIG_DIR)
    assert load_config().counts_unit == "pcu"


def test_explicit_path_beats_env(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    (env_dir / "config.json").write_text(json.dumps({"counts_unit": "vehicles"}))
    monkeypatch.setenv(ENV_CONFIG_DIR, str(env_dir))
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps({"counts_unit": "pcu"}))
    assert load_config(explicit).counts_unit == "pcu"


def test_missing_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def test_malformed_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_counts_unit_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"counts_unit": "furlongs"}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_band_table_errors(tmp_path):
    path = tmp_path / "bands.json"
    path.write_text(json.dumps({
        "los_bands": {
            "delay_heterogeneous": {
                "upper_inclusive": True,
                "bands": [[10, "A"], [5, "B"], [65, "C"], [100, "D"],
                          [135, "E"], [None, "F"]],
            },
        },
    }))
    with pytest.raises(ConfigError):
        load_config(path)


def test_notes_load_at_the_top_level_and_in_every_declared_object(tmp_path):
    noted = json.loads(json.dumps(SHIPPED))
    paths = []
    for path, obj in declared_objects(noted):
        obj["_test_note"] = f"a note at {path}"
        paths.append(path)
    assert {(), ("emission_factors",), ("pcu_factors", "factors"), ("capacity_table", 0),
            ("idle_rates", "entries", 5), ("city",)} <= set(paths)
    path = tmp_path / "noted.json"
    path.write_text(json.dumps(noted))
    assert load_config(path) == load_config()
