"""Seeded input generator for the benchmark workloads.

Every workload is built from ``random.Random(f"{name}:{seed}")`` and written
with fixed number formats, so the same seed gives byte-identical CSVs.  The
generator also returns what the program's outputs must agree with: the
per-approach volumes a stdlib recomputation predicts, the number of
timestamps inside the 08:00-21:00 operating day, and, for the dirty file,
how many rows of each bad kind were injected.

Shapes the program relies on, kept on purpose:

- every approach stays undersaturated (mean V/C at most 0.85, so
  X*g/C < 1 and the delay model never raises ``SaturatedRegime``);
- only the four (lanes, directionality) pairs of the default capacity
  table are used;
- approaches 1 and 3 of every intersection are major, so each intersection
  has a major-only mean delay.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WEEK_START = 1704067200  # 2024-01-01 00:00 UTC, a Monday
DAY_START_S = 8 * 3600
DAY_SPAN_S = 13 * 3600  # 08:00-21:00

CLASSES = ("two_wheeler", "auto_rickshaw", "car", "lcv", "bus")
CYCLE_HEADER = ("approach_id", "cycle_length_s", "red_s", "green_s") + CLASSES + (
    "effective_green_s", "exited_pcu", "timestamp")
APPROACH_HEADER = ("approach_id", "intersection_id", "lanes", "directionality",
                   "width_m", "free_left", "is_major")

# (lanes, directionality, capacity PCU/h): the default capacity table.
LANE_CONFIGS = ((3, "oneway", 3600.0), (2, "oneway", 2400.0),
                (1, "twoway", 2400.0), (1, "oneway", 1500.0))
# Mean class mix of the traffic stream, and the PCU factor each class gets
# when its share is at or above the composition threshold (the larger of
# the two default factors), so sizing by it bounds the vehicles-mode V/C.
MIX = {"two_wheeler": 0.45, "auto_rickshaw": 0.20, "car": 0.25, "lcv": 0.06, "bus": 0.04}
MAX_FACTOR = {"two_wheeler": 0.75, "auto_rickshaw": 2.00, "car": 1.00, "lcv": 2.00, "bus": 3.70}
MAX_PCU_PER_VEHICLE = sum(MIX[c] * MAX_FACTOR[c] for c in CLASSES)

BAD_KINDS = ("not_a_number", "field_count", "negative_count",
             "timing_exceeds_cycle", "unknown_approach")
BAD_SHARE = 0.05


@dataclass(frozen=True)
class Shape:
    intersections: int
    approaches_per_intersection: int
    cycles_per_approach: int

    @property
    def approaches(self) -> int:
        return self.intersections * self.approaches_per_intersection

    @property
    def rows(self) -> int:
        return self.approaches * self.cycles_per_approach


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    shape: Shape
    counts_unit: str = "pcu"
    dirty: bool = False


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("report_long", "report", Shape(50, 4, 250)),
    Workload("report_wide_vehicles", "report", Shape(1000, 4, 5), counts_unit="vehicles"),
    Workload("validate_dirty", "validate", Shape(50, 4, 250), dirty=True),
    Workload("variability_long", "variability", Shape(50, 4, 125)),
)}

# Tiny shapes for the self-tests: the same code paths in well under a second.
TINY_SHAPES = {
    "report_long": Shape(3, 4, 40),
    "report_wide_vehicles": Shape(12, 4, 3),
    "validate_dirty": Shape(3, 4, 40),
    "variability_long": Shape(3, 4, 20),
}


@dataclass
class Inputs:
    """Paths of the generated files and the outputs they imply."""

    cycles: Path
    approaches: Path
    config: Path | None
    rows: int
    approach_count: int
    intersection_count: int
    # approach id -> (sum of count columns, sum of cycle lengths) before any corruption
    pcu_and_cycle_sums: dict[str, tuple[int, float]] = field(default_factory=dict)
    in_day_timestamps: int = 0
    bad_rows: dict[str, int] = field(default_factory=dict)

    @property
    def valid_rows(self) -> int:
        return self.rows - sum(self.bad_rows.values())


def _approach_rows(rng: random.Random, shape: Shape):
    """Yield (approach_id, intersection_id, lanes, directionality, capacity, width, is_major)."""
    for i in range(shape.intersections):
        intersection_id = f"I{i:04d}"
        for a in range(shape.approaches_per_intersection):
            lanes, directionality, capacity = rng.choice(LANE_CONFIGS)
            width = round(lanes * 3.5 + rng.uniform(0.0, 1.5) + (3.0 if directionality == "twoway" else 0.0), 1)
            yield (f"{intersection_id}A{a}", intersection_id, lanes, directionality,
                   capacity, width, a % 2 == 1)


def generate(workload: Workload, seed: int, out_dir: Path, shape: Shape | None = None) -> Inputs:
    """Write the workload's cycles, approaches and config files into ``out_dir``."""
    shape = shape or workload.shape
    rng = random.Random(f"{workload.name}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)

    approaches = list(_approach_rows(rng, shape))
    approach_lines = [",".join(APPROACH_HEADER)]
    for approach_id, intersection_id, lanes, directionality, _, width, major in approaches:
        approach_lines.append(f"{approach_id},{intersection_id},{lanes},{directionality},"
                              f"{width:.1f},0,{int(major)}")

    inputs = Inputs(
        cycles=out_dir / "cycles.csv",
        approaches=out_dir / "approaches.csv",
        config=None,
        rows=shape.rows,
        approach_count=shape.approaches,
        intersection_count=shape.intersections,
    )
    if workload.counts_unit != "pcu":
        inputs.config = out_dir / "config.json"
        inputs.config.write_text(json.dumps({"counts_unit": workload.counts_unit}) + "\n",
                                 encoding="utf-8")

    pcu_per_unit = MAX_PCU_PER_VEHICLE if workload.counts_unit == "vehicles" else 1.0
    lines = [",".join(CYCLE_HEADER)]
    for approach_id, _, _, _, capacity, width, _ in approaches:
        base_cycle = rng.uniform(60.0, 180.0)
        green_share = rng.uniform(0.2, 0.5)
        target_vc = rng.uniform(0.3, 0.8)
        discharge_per_s = 525.0 * width / 3600.0
        count_sum = 0
        cycle_sum = 0.0
        for _ in range(shape.cycles_per_approach):
            cycle = round(base_cycle * rng.uniform(0.95, 1.05), 1)
            green = round(cycle * green_share, 1)
            red = round(cycle - green - rng.uniform(2.0, 5.0), 1)
            units = target_vc * capacity * cycle / 3600.0 / pcu_per_unit
            counts = [max(0, round(units * MIX[c] * rng.uniform(0.85, 1.15))) for c in CLASSES]
            effective_green = round(green * rng.uniform(0.80, 0.98), 1)
            exited = round(discharge_per_s * effective_green * rng.uniform(0.6, 0.95), 2)
            timestamp = (WEEK_START + rng.randrange(7) * 86400
                         + DAY_START_S + rng.randrange(DAY_SPAN_S))
            lines.append(f"{approach_id},{cycle:.1f},{red:.1f},{green:.1f},"
                         + ",".join(str(n) for n in counts)
                         + f",{effective_green:.1f},{exited:.2f},{timestamp}")
            count_sum += sum(counts)
            cycle_sum += cycle
            if DAY_START_S <= timestamp % 86400 < DAY_START_S + DAY_SPAN_S:
                inputs.in_day_timestamps += 1
        inputs.pcu_and_cycle_sums[approach_id] = (count_sum, cycle_sum)

    if workload.dirty:
        inputs.bad_rows = _inject_bad_rows(rng, lines)

    inputs.approaches.write_text("\n".join(approach_lines) + "\n", encoding="utf-8")
    inputs.cycles.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return inputs


def _inject_bad_rows(rng: random.Random, lines: list[str]) -> dict[str, int]:
    """Corrupt about ``BAD_SHARE`` of the data rows in place, each with one fault."""
    injected = {kind: 0 for kind in BAD_KINDS}
    for index in range(1, len(lines)):
        if rng.random() >= BAD_SHARE:
            continue
        kind = rng.choice(BAD_KINDS)
        cells = lines[index].split(",")
        if kind == "not_a_number":
            cells[1] = "n/a"
        elif kind == "field_count":
            cells.pop()
        elif kind == "negative_count":
            cells[4 + CLASSES.index("car")] = "-3"
        elif kind == "timing_exceeds_cycle":
            cells[2] = f"{float(cells[1]) - float(cells[3]) + 5.0:.1f}"
        else:
            cells[0] = "UNKNOWN" + cells[0]
        lines[index] = ",".join(cells)
        injected[kind] += 1
    return injected
