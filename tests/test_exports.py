"""The package's public names are a listed set: a change to them is a
deliberate diff here."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import intersection_analyzer

EXPORTS = {
    # config
    "AnalysisConfig", "load_config",
    # delay
    "DelayEstimate", "DelayInputs", "DelayPolicy", "control_delay",
    "intersection_delay", "platoon_ratio_from_delay",
    # emissions
    "CityEstimate", "EmissionFactorTable", "EmissionReport", "FuelType",
    "IdleRate", "IdleRateTable", "co2_from_fuel", "idle_fuel", "scale_emissions",
    # flow
    "CapacityTable", "hourly_volume",
    "saturation_flow_discharge", "saturation_flow_width", "vc_ratio",
    # ingest
    "ingest_approaches", "ingest_cycles", "scan_cycles",
    # los
    "LosBandTable", "LosResult", "classify_los",
    # model
    "ApproachConfig", "CycleTable", "DayFilter", "Directionality", "VehicleClass",
    # pcu
    "PcuFactorTable", "composition_shares", "to_pcu",
    # pipeline
    "AnalysisResult", "analyze_records",
    # stats
    "FiveNumberSummary", "SampleSummary", "WindowedAverage", "ZTestResult",
    "five_number", "pairwise_z_matrix", "peak_window", "summarize",
    "window_cycle_lengths", "z_test",
}


def test_public_names_are_the_listed_set():
    # A name resolves on first use, so ``vars()`` lacks the unused ones;
    # ``dir()`` lists them all.  Submodules become package attributes once
    # imported; they are not exports.
    public = {
        name for name in dir(intersection_analyzer)
        if not name.startswith("_")
        and not isinstance(getattr(intersection_analyzer, name), types.ModuleType)
    }
    assert public == EXPORTS
    assert sorted(intersection_analyzer.__all__) == sorted(EXPORTS)


def test_every_export_resolves_to_a_package_definition():
    for name in sorted(EXPORTS):
        value = getattr(intersection_analyzer, name)
        assert value.__module__.startswith("intersection_analyzer."), name
        assert value.__name__ == name
        assert getattr(sys.modules[value.__module__], name) is value


def test_importing_the_package_loads_no_submodule():
    script = ("import sys, intersection_analyzer\n"
              "print(sorted(m for m in sys.modules if m.startswith('intersection_analyzer.')))\n")
    src = Path(intersection_analyzer.__file__).parents[1]
    child = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'analyse_records'"):
        intersection_analyzer.analyse_records
    assert not hasattr(intersection_analyzer, "VC_STANDARD")
