"""Analytics for signalized intersections under heterogeneous traffic.

From per-cycle signal timings and classified counts this package computes
PCU-normalized volumes, volume-to-capacity ratios, saturation flow by two
models, green-time splits and utilization, control delay with
level-of-service grading under three standards, and idle fuel / CO2
accounting, plus the supporting statistics (windowed aggregation,
peak-window detection, two-sample z-tests, five-number summaries).
"""

from .config import AnalysisConfig, load_config
from .delay import (
    DelayEstimate,
    DelayInputs,
    DelayPolicy,
    control_delay,
    intersection_delay,
    platoon_ratio_from_delay,
)
from .emissions import (
    CityEstimate,
    EmissionFactorTable,
    EmissionReport,
    FuelType,
    IdleRate,
    IdleRateTable,
    co2_from_fuel,
    idle_fuel,
    scale_emissions,
)
from .flow import (
    CapacityTable,
    hourly_volume,
    saturation_flow_discharge,
    saturation_flow_width,
    vc_ratio,
)
from .ingest import ingest_approaches, ingest_cycles, scan_cycles
from .los import (
    LosBandTable,
    LosResult,
    classify_los,
)
from .model import (
    ApproachConfig,
    CycleTable,
    DayFilter,
    Directionality,
    VehicleClass,
)
from .pcu import (
    PcuFactorTable,
    composition_shares,
    to_pcu,
)
from .pipeline import AnalysisResult, analyze_records
from .stats import (
    FiveNumberSummary,
    SampleSummary,
    WindowedAverage,
    ZTestResult,
    five_number,
    pairwise_z_matrix,
    peak_window,
    summarize,
    window_cycle_lengths,
    z_test,
)

__version__ = "0.1.0"
