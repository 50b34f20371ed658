"""The package's public names are a listed set: a change to them is a
deliberate diff here."""

import types

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
    # Submodules become package attributes once imported; they are not exports.
    public = {
        name for name, value in vars(intersection_analyzer).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS


def test_every_export_resolves_to_a_package_definition():
    for name in sorted(EXPORTS):
        value = getattr(intersection_analyzer, name)
        assert value.__module__.startswith("intersection_analyzer."), name
        assert value.__name__ == name
