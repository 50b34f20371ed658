"""Analytics for signalized intersections under heterogeneous traffic.

From per-cycle signal timings and classified counts this package computes
PCU-normalized volumes, volume-to-capacity ratios, saturation flow by two
models, green-time splits and utilization, control delay with
level-of-service grading under three standards, and idle fuel / CO2
accounting, plus the supporting statistics (windowed aggregation,
peak-window detection, two-sample z-tests, five-number summaries).

The public names resolve on first use (PEP 562): ``import
intersection_analyzer`` loads no submodule, and ``dir()`` and ``__all__``
list the names.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "config": ("AnalysisConfig", "load_config"),
    "delay": ("DelayEstimate", "DelayInputs", "DelayPolicy", "control_delay",
              "intersection_delay", "platoon_ratio_from_delay"),
    "emissions": ("CityEstimate", "EmissionFactorTable", "EmissionReport", "FuelType",
                  "IdleRate", "IdleRateTable", "co2_from_fuel", "idle_fuel",
                  "scale_emissions"),
    "flow": ("CapacityTable", "hourly_volume", "saturation_flow_discharge",
             "saturation_flow_width", "vc_ratio"),
    "ingest": ("ingest_approaches", "ingest_cycles", "scan_cycles"),
    "los": ("LosBandTable", "LosResult", "classify_los"),
    "model": ("ApproachConfig", "CycleTable", "DayFilter", "Directionality", "VehicleClass"),
    "pcu": ("PcuFactorTable", "composition_shares", "to_pcu"),
    "pipeline": ("AnalysisResult", "analyze_records"),
    "stats": ("FiveNumberSummary", "SampleSummary", "WindowedAverage", "ZTestResult",
              "five_number", "pairwise_z_matrix", "peak_window", "summarize",
              "window_cycle_lengths", "z_test"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
