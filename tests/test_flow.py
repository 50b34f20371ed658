import math
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from intersection_analyzer import (
    ApproachConfig,
    CycleTable,
    Directionality,
    analyze_records,
    hourly_volume,
    load_config,
    saturation_flow_discharge,
    saturation_flow_width,
    vc_ratio,
)
from intersection_analyzer.errors import InputError
from intersection_analyzer.report import round_half_up

CONFIG = load_config()
CAPACITY = CONFIG.capacity_table


def approach(lanes, directionality=Directionality.ONE_WAY):
    return ApproachConfig("A1", "X", lanes, directionality, 7.0)


def cycle(approach_id, green, cycle_length=152.0, effective_green=math.nan, pcu=0):
    """A ``CycleTable.append`` row of ``pcu`` cars."""
    return approach_id, cycle_length, cycle_length - green, green, (0, 0, pcu, 0, 0), \
        effective_green


def green_reports(*rows):
    """Each approach's green figures, in approach order, from analyzing
    ``rows`` as one intersection of three-lane one-way approaches; an absent
    figure is None."""
    table = CycleTable()
    for row in rows:
        table.append(*row)
    approaches = {approach_id: ApproachConfig(approach_id, "X", 3, Directionality.ONE_WAY, 7.0)
                  for approach_id, *_ in rows}
    a = analyze_records(table, approaches, CONFIG).by_approach
    names = ("pcu_per_cycle", "green_share", "green_to_pcu_ratio", "wastage")
    return {
        approach_id: SimpleNamespace(**{
            name: None if math.isnan(value) else value for name, value in zip(names, values)})
        for approach_id, *values in zip(a.approach_id, *(getattr(a, name) for name in names))
    }


def test_hourly_volume_values():
    assert hourly_volume(81, 152) == pytest.approx(1918.42, abs=0.005)
    assert round_half_up(hourly_volume(81, 152)) == 1918
    assert hourly_volume(87, 119) == pytest.approx(2631.93, abs=0.005)
    assert round_half_up(hourly_volume(87, 119)) == 2632
    assert hourly_volume(0, 100) == 0.0


def test_hourly_volume_zero_cycle():
    with pytest.raises(InputError, match="cycle_length must be > 0"):
        hourly_volume(10, 0)


def test_vc_ratio_values():
    assert round_half_up(vc_ratio(1206, approach(3), CAPACITY), 2) == 0.34
    assert round_half_up(vc_ratio(2027, approach(2), CAPACITY), 2) == 0.84
    assert vc_ratio(0, approach(3), CAPACITY) == 0.0


def test_vc_ratio_unknown_lane_config():
    with pytest.raises(InputError, match="no capacity entry for 7-lane"):
        vc_ratio(100, approach(7), CAPACITY)


def test_vc_ratio_linear_in_volume():
    a = approach(2)
    assert vc_ratio(600, a, CAPACITY) * 2 == pytest.approx(vc_ratio(1200, a, CAPACITY))


def test_saturation_flow_discharge_values():
    assert saturation_flow_discharge(48, 24) == 7200.0
    assert round_half_up(saturation_flow_discharge(82, 38)) == 7768
    assert saturation_flow_discharge(0, 10) == 0.0


def test_saturation_flow_discharge_zero_green():
    with pytest.raises(InputError, match="effective green must be > 0"):
        saturation_flow_discharge(10, 0)


@given(st.floats(min_value=0.1, max_value=100),
       st.floats(min_value=1.0, max_value=200),
       st.floats(min_value=0.01, max_value=50))
def test_saturation_flow_scale_invariance(n, g_e, k):
    base = saturation_flow_discharge(n, g_e)
    scaled = saturation_flow_discharge(k * n, k * g_e)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_saturation_flow_width_values():
    assert saturation_flow_width(10.5) == 5512.5
    assert round_half_up(saturation_flow_width(10.5)) == 5513
    assert saturation_flow_width(7.0) == 3675.0
    assert saturation_flow_width(1.0) == 525.0


def test_saturation_flow_width_rejects_nonpositive():
    with pytest.raises(InputError, match="width must be > 0"):
        saturation_flow_width(0.0)


def test_green_splits_shares():
    greens = green_reports(*(cycle(approach_id, green, 119.0) for approach_id, green in (
        ("TR4", 45.0), ("TR2", 40.0), ("TR1", 25.0), ("TR3", 9.0))))
    shares = {approach_id: figures.green_share for approach_id, figures in greens.items()}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["TR2"] + shares["TR4"] == pytest.approx(85 / 119)
    assert list(shares) == ["TR1", "TR2", "TR3", "TR4"]


def test_green_splits_single_approach():
    assert green_reports(cycle("A1", 30.0))["A1"].green_share == 1.0


def test_green_splits_uses_mean_green():
    greens = green_reports(cycle("A1", 20), cycle("A1", 40), cycle("A2", 30))  # A1 mean 30
    assert greens["A1"].green_share == pytest.approx(0.5)
    assert greens["A2"].green_share == pytest.approx(0.5)


def test_green_splits_empty():
    with pytest.raises(InputError, match="no cycle records to analyze"):
        green_reports()
    with pytest.raises(InputError, match="total green time across the intersection is zero"):
        green_reports(cycle("A1", 0.0), cycle("A2", 0.0))


def test_green_utilization_ratio_and_wastage():
    greens = green_reports(cycle("SR5", 28, 152, effective_green=16.0, pcu=25),
                           cycle("SR3", 12, 152, effective_green=10.0, pcu=11))
    assert greens["SR5"].green_to_pcu_ratio == pytest.approx(1.12)
    assert greens["SR5"].wastage == pytest.approx(12 / 28)
    assert greens["SR3"].green_to_pcu_ratio == pytest.approx(12 / 11)
    assert greens["SR3"].wastage == pytest.approx(2 / 12)


def test_green_utilization_no_wastage_when_fully_used():
    greens = green_reports(cycle("A1", 30, 152, effective_green=30.0, pcu=10))
    assert greens["A1"].wastage == 0.0


def test_green_utilization_zero_pcu_leaves_ratio_absent():
    greens = green_reports(cycle("A1", 30))
    assert greens["A1"].pcu_per_cycle == 0.0
    assert greens["A1"].green_to_pcu_ratio is None
    # and no effective-green observation leaves wastage absent
    assert greens["A1"].wastage is None


def test_green_utilization_zero_green():
    with pytest.raises(InputError, match="total green time across the intersection is zero"):
        green_reports(cycle("A1", 0.0, pcu=5), cycle("A2", 0.0, pcu=5))


def test_default_capacity_cells():
    table = CAPACITY.capacities
    assert table[(3, Directionality.ONE_WAY)] == 3600.0
    assert table[(2, Directionality.ONE_WAY)] == 2400.0
    assert table[(1, Directionality.TWO_WAY)] == 2400.0
    assert table[(1, Directionality.ONE_WAY)] == 1500.0


@given(st.floats(min_value=0.0, max_value=500.0),
       st.floats(min_value=1.0, max_value=400.0))
def test_hourly_volume_linearity(pcu, c):
    assert hourly_volume(2 * pcu, c) == pytest.approx(2 * hourly_volume(pcu, c), rel=1e-12)
    assert hourly_volume(pcu, 2 * c) == pytest.approx(hourly_volume(pcu, c) / 2, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=300.0), st.floats(min_value=0.0, max_value=1.0))
def test_wastage_stays_in_unit_interval(green, used_fraction):
    effective = green * used_fraction
    greens = green_reports(cycle("A1", green, 400.0, effective_green=effective, pcu=10))
    assert 0.0 <= greens["A1"].wastage <= 1.0
