import pytest
from hypothesis import given, strategies as st

from intersection_analyzer import (
    PcuFactorTable,
    VehicleClass,
    composition_shares,
    load_config,
    to_pcu,
)
from intersection_analyzer.errors import InputError, InvariantViolation

FACTORS = load_config().pcu_factors


def counts(**kwargs):
    return {VehicleClass(k): v for k, v in kwargs.items()}


def test_default_factor_selection():
    t = FACTORS
    assert t.factor_for(VehicleClass.BUS, 0.04) == 2.20
    assert t.factor_for(VehicleClass.BUS, 0.05) == 3.70  # threshold itself uses the upper column
    assert t.factor_for(VehicleClass.TWO_WHEELER, 0.59) == 0.75
    assert t.factor_for(VehicleClass.CAR, 0.01) == 1.00 == t.factor_for(VehicleClass.CAR, 0.99)


def test_bus_below_threshold():
    shares = {cls: 0.0 for cls in VehicleClass}
    shares[VehicleClass.BUS] = 0.04
    assert to_pcu(counts(bus=2), shares, FACTORS) == pytest.approx(4.4)


def test_cars_are_unit_factor():
    shares = {cls: 0.2 for cls in VehicleClass}
    assert to_pcu(counts(car=10), shares, FACTORS) == 10.0


def test_two_wheelers_above_threshold():
    shares = {cls: 0.0 for cls in VehicleClass}
    shares[VehicleClass.TWO_WHEELER] = 0.59
    assert to_pcu(counts(two_wheeler=100), shares, FACTORS) == 75.0


def test_composition_example():
    shares = composition_shares([
        counts(two_wheeler=59, car=17, bus=4, auto_rickshaw=15, lcv=5)])
    assert shares[VehicleClass.TWO_WHEELER] == pytest.approx(0.59)
    assert shares[VehicleClass.CAR] == pytest.approx(0.17)
    assert shares[VehicleClass.BUS] == pytest.approx(0.04)
    assert shares[VehicleClass.AUTO_RICKSHAW] == pytest.approx(0.15)
    assert shares[VehicleClass.LIGHT_COMMERCIAL] == pytest.approx(0.05)


def test_single_class_degenerate():
    shares = composition_shares([counts(car=7)])
    assert shares[VehicleClass.CAR] == 1.0
    assert sum(1 for v in shares.values() if v == 0.0) == 4


def test_empty_traffic():
    with pytest.raises(InputError, match="no vehicles counted in any record"):
        composition_shares([counts()])


def test_missing_classes_default_to_zero():
    shares = composition_shares([counts(car=3), counts(bus=1)])
    assert shares == {cls: 0.0 for cls in VehicleClass} | {
        VehicleClass.CAR: 0.75, VehicleClass.BUS: 0.25}
    assert to_pcu(counts(car=3), shares, FACTORS) == 3.0
    assert to_pcu({}, shares, FACTORS) == 0.0


def assert_refused(value, message):
    """Both scalar functions refuse a car count of ``value`` with ``message``."""
    for call in (lambda: to_pcu(counts(car=value), {}, FACTORS),
                 lambda: composition_shares([counts(bus=1), counts(car=value)])):
        with pytest.raises(InvariantViolation) as caught:
            call()
        assert caught.value.args == (message,)


def test_negative_count_rejected():
    assert_refused(-1, "negative count for car: -1")
    assert_refused(2**63, f"count for car exceeds {2**63 - 1}: {2**63}")


def test_non_integer_count_rejected():
    assert_refused(1.5, "count for car must be an integer, got 1.5")
    assert_refused(True, "count for car must be an integer, got True")


def test_factor_table_validation():
    bad = dict(FACTORS.factors)
    bad[VehicleClass.CAR] = (0.0, 1.0)
    with pytest.raises(InvariantViolation):
        PcuFactorTable(bad, FACTORS.composition_threshold)
    with pytest.raises(InvariantViolation):
        PcuFactorTable(FACTORS.factors, composition_threshold=1.5)


count_maps = st.fixed_dictionaries(
    {cls: st.integers(min_value=0, max_value=10_000) for cls in VehicleClass})
share_maps = st.fixed_dictionaries(
    {cls: st.floats(min_value=0.0, max_value=1.0) for cls in VehicleClass})


@given(count_maps, count_maps, share_maps)
def test_pcu_linear_in_counts(a, b, shares):
    combined = {cls: a[cls] + b[cls] for cls in VehicleClass}
    total = to_pcu(combined, shares, FACTORS)
    parts = to_pcu(a, shares, FACTORS) + to_pcu(b, shares, FACTORS)
    assert total == pytest.approx(parts, rel=1e-9, abs=1e-9)


@given(count_maps, share_maps)
def test_pcu_nonnegative_and_zero_iff_empty(a, shares):
    value = to_pcu(a, shares, FACTORS)
    assert value >= 0.0
    assert (value == 0.0) == all(v == 0 for v in a.values())


@given(st.lists(count_maps, min_size=1, max_size=6), st.integers(min_value=2, max_value=9))
def test_shares_sum_to_one_and_scale_invariant(maps, k):
    try:
        shares = composition_shares(maps)
    except InputError:
        assert all(v == 0 for m in maps for v in m.values())
        return
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    scaled = [{cls: k * m[cls] for cls in VehicleClass} for m in maps]
    rescaled = composition_shares(scaled)
    for cls in VehicleClass:
        assert rescaled[cls] == pytest.approx(shares[cls], abs=1e-12)
