"""Control-delay estimation for undersaturated signalized approaches.

The model:

    d = 6.23 + 0.5 * C * (1 - g/C)^2 / (1 - X * g/C) - 15.35 * R_p

with cycle length C, allocated green g, volume-to-capacity ratio X and
platoon ratio R_p (share of traffic arriving on green divided by the green
share of the cycle).  The correction term can push the value negative, in
which case the estimate clamps to zero and says so.  The model is written
once, as a pass over columns (one entry per approach); ``control_delay``
evaluates it over one-entry columns.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from operator import add, mul, sub, truediv
from typing import Iterable, Iterator, Mapping

from .errors import InputError, InvariantViolation, SaturatedRegime
from .model import ApproachConfig, _frozen

BASE_DELAY_S = 6.23
PLATOON_COEFFICIENT = 15.35
# X*g/C at or beyond this is treated as the saturated regime.
SATURATION_GUARD = 1e-9


@_frozen
class DelayInputs:
    """Inputs to the control-delay model.

    ``platoon_ratio`` is normally >= 0 (1.0 means random arrivals) but may
    be negative when back-solved from recorded delays, so no sign check is
    applied.
    """

    cycle_length: float
    green_time: float
    vc_ratio: float
    platoon_ratio: float

    def __post_init__(self):
        if not math.isfinite(self.cycle_length) or self.cycle_length <= 0:
            raise InvariantViolation(f"cycle_length must be > 0, got {self.cycle_length}")
        if not 0 < self.green_time <= self.cycle_length:
            raise InvariantViolation(
                f"green_time must lie in (0, cycle_length], got {self.green_time}")
        if not math.isfinite(self.vc_ratio) or self.vc_ratio < 0:
            raise InvariantViolation(f"vc_ratio must be >= 0 and finite, got {self.vc_ratio}")
        if not math.isfinite(self.platoon_ratio):
            raise InvariantViolation("platoon_ratio must be finite")


@_frozen
class DelayEstimate:
    seconds: float
    clamped: bool = False


class DelayPolicy(Enum):
    ALL_APPROACHES = "all"
    MAJOR_ONLY = "major"


def unclamped_delays(
    cycle_length: Iterable[float],
    green_ratio: Iterable[float],
    load: Iterable[float],
    platoon_ratio: Iterable[float],
) -> Iterator[float]:
    """The model's delay for each undersaturated approach, before clamping."""
    uniform = map(
        truediv,
        map(mul, map(mul, repeat(0.5), cycle_length),
            map(pow, map(sub, repeat(1.0), green_ratio), repeat(2))),
        map(sub, repeat(1.0), load))
    return map(sub, map(add, repeat(BASE_DELAY_S), uniform),
               map(mul, repeat(PLATOON_COEFFICIENT), platoon_ratio))


def control_delay(inputs: DelayInputs) -> DelayEstimate:
    """Evaluate the delay model at full precision, clamping negatives to 0."""
    green_ratio = inputs.green_time / inputs.cycle_length
    load = inputs.vc_ratio * green_ratio
    if load >= 1.0 - SATURATION_GUARD:
        raise SaturatedRegime(
            f"X*g/C = {load:.9f}: the model covers undersaturated operation only")
    (seconds,) = unclamped_delays(
        (inputs.cycle_length,), (green_ratio,), (load,), (inputs.platoon_ratio,))
    if seconds < 0.0:
        return DelayEstimate(0.0, clamped=True)
    return DelayEstimate(seconds, clamped=False)


def platoon_ratio_from_delay(
    cycle_length: float,
    green_time: float,
    vc_ratio: float,
    observed_delay: float,
) -> float:
    """Invert the delay model for R_p given an observed (unclamped) delay."""
    probe = DelayInputs(cycle_length, green_time, vc_ratio, platoon_ratio=0.0)
    at_zero = control_delay(probe)
    return (at_zero.seconds - observed_delay) / PLATOON_COEFFICIENT


def intersection_delay(
    per_approach: Mapping[str, float],
    policy: DelayPolicy,
    configs: Mapping[str, ApproachConfig],
) -> float:
    """Unweighted mean delay over the approaches selected by the policy."""
    if not per_approach:
        raise InputError("no per-approach delays given")
    if policy is DelayPolicy.MAJOR_ONLY:
        selected = [a for a in per_approach if configs[a].is_major]
        if not selected:
            raise InputError("no approach is flagged as major")
    else:
        selected = list(per_approach)
    return math.fsum(per_approach[a] for a in selected) / len(selected)
