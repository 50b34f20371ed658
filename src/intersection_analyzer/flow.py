"""Flow-side computations: hourly volume, V/C ratio and saturation flow.

Everything returns full-precision floats; report emitters round (volumes
and saturation flows to integers, ratios to two decimals).  The two-step
formulas (hourly volume, discharge saturation flow) are written once, as a
pass over columns (iterables of floats, one entry per approach) that
returns an iterator; their scalar functions check their arguments and
evaluate the same pass over one-entry columns.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, truediv
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import InputError, InvariantViolation
from .model import ApproachConfig, Directionality, _frozen

# Discharge rate supported per metre of approach width, PCU per hour.
WIDTH_FLOW_RATE = 525.0


@_frozen
class CapacityTable:
    """Capacity in PCU/hour keyed by (lane count, directionality)."""

    capacities: Mapping[tuple[int, Directionality], float]

    def __post_init__(self):
        table: dict[tuple[int, Directionality], float] = {}
        for key, value in self.capacities.items():
            if value <= 0:
                raise InvariantViolation(f"capacity for {key} must be > 0, got {value}")
            table[key] = float(value)
        object.__setattr__(self, "capacities", MappingProxyType(table))

    def capacity_for(self, config: ApproachConfig) -> float:
        key = (config.lane_count, config.directionality)
        if key not in self.capacities:
            raise InputError(
                f"no capacity entry for {config.lane_count}-lane "
                f"{config.directionality.value} (approach {config.approach_id})")
        return self.capacities[key]


def hourly_volumes(
    pcu_per_cycle: Iterable[float], cycle_length: Iterable[float],
) -> Iterator[float]:
    """pcu * 3600 / cycle for each approach."""
    return map(truediv, map(mul, pcu_per_cycle, repeat(3600.0)), cycle_length)


def discharge_flows(
    exited_pcu: Iterable[float], effective_green: Iterable[float],
) -> Iterator[float]:
    """N / g_e * 3600 for each approach."""
    return map(mul, map(truediv, exited_pcu, effective_green), repeat(3600.0))


def hourly_volume(pcu_per_cycle: float, cycle_length: float) -> float:
    """Extrapolate one cycle's PCU to an hourly flow: pcu * 3600 / cycle."""
    if cycle_length <= 0:
        raise InputError(f"cycle_length must be > 0, got {cycle_length}")
    if pcu_per_cycle < 0:
        raise InputError(f"pcu_per_cycle must be >= 0, got {pcu_per_cycle}")
    return next(hourly_volumes((pcu_per_cycle,), (cycle_length,)))


def vc_ratio(volume: float, config: ApproachConfig, table: CapacityTable) -> float:
    if volume < 0:
        raise InputError(f"volume must be >= 0, got {volume}")
    return volume / table.capacity_for(config)


def saturation_flow_discharge(exited_pcu: float, effective_green: float) -> float:
    """Saturation flow from observed discharge: N / g_e * 3600 (PCU/hour)."""
    if effective_green <= 0:
        raise InputError(
            f"effective green must be > 0, got {effective_green}")
    if exited_pcu < 0:
        raise InputError(f"exited_pcu must be >= 0, got {exited_pcu}")
    flow = next(discharge_flows((exited_pcu,), (effective_green,)))
    if not math.isfinite(flow):
        raise InputError(
            f"saturation flow is not finite: exited_pcu {exited_pcu:g} over "
            f"effective green {effective_green:g} s")
    return flow


def saturation_flow_width(width: float) -> float:
    """Saturation flow from geometry alone: 525 * width (PCU/hour)."""
    if width <= 0:
        raise InputError(f"width must be > 0, got {width}")
    flow = WIDTH_FLOW_RATE * width
    if not math.isfinite(flow):
        raise InputError(f"saturation flow is not finite: width {width:g} m")
    return flow
