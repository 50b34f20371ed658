import pytest
from hypothesis import given, strategies as st

from intersection_analyzer import (
    EmissionFactorTable,
    FuelType,
    IdleRate,
    IdleRateTable,
    VehicleClass,
    co2_from_fuel,
    idle_fuel,
    scale_emissions,
)
from intersection_analyzer.errors import InputError, InvariantViolation

FACTORS = EmissionFactorTable({
    FuelType.CNG: 2.252,
    FuelType.DIESEL: 2.640,
    FuelType.PETROL: 2.392,
})

# Hourly class flows and all-approach mean delays for the two bundled study
# intersections, recomputed from the per-cycle records.
SSC_COUNTS = {
    VehicleClass.TWO_WHEELER: 105 * 3600 / 152,
    VehicleClass.AUTO_RICKSHAW: 74 * 3600 / 152,
    VehicleClass.CAR: 52 * 3600 / 152,
    VehicleClass.LIGHT_COMMERCIAL: 11 * 3600 / 152,
    VehicleClass.BUS: 15 * 3600 / 152,
}
THC_COUNTS = {
    VehicleClass.TWO_WHEELER: 87 * 3600 / 119,
    VehicleClass.AUTO_RICKSHAW: 56 * 3600 / 119,
    VehicleClass.CAR: 23 * 3600 / 119,
    VehicleClass.LIGHT_COMMERCIAL: 21 * 3600 / 119,
    VehicleClass.BUS: 16 * 3600 / 119,
}
SSC_DELAY = 56.078
THC_DELAY = 39.825


def test_zero_delay_zero_fuel(default_config):
    fuel = idle_fuel(SSC_COUNTS, 0.0, default_config.idle_rates)
    assert all(v == 0.0 for v in fuel.values())


def test_single_class_single_fuel_exact():
    rates = IdleRateTable({
        (VehicleClass.BUS, FuelType.DIESEL): IdleRate(1.0, 0.8),
    })
    fuel = idle_fuel({VehicleClass.BUS: 120.0}, 90.0, rates)
    assert fuel[FuelType.DIESEL] == pytest.approx(120.0 * (90.0 / 3600.0) * 0.8, rel=1e-15)
    assert fuel[FuelType.PETROL] == 0.0


def test_calibrated_rates_reproduce_both_observed_fuel_rows(default_config):
    ssc = idle_fuel(SSC_COUNTS, SSC_DELAY, default_config.idle_rates)
    assert ssc[FuelType.CNG] == pytest.approx(9.42, abs=0.01)
    assert ssc[FuelType.DIESEL] == pytest.approx(6.56, abs=0.01)
    assert ssc[FuelType.PETROL] == pytest.approx(24.63, abs=0.01)

    thc = idle_fuel(THC_COUNTS, THC_DELAY, default_config.idle_rates)
    assert thc[FuelType.CNG] == pytest.approx(5.93, abs=0.01)
    assert thc[FuelType.DIESEL] == pytest.approx(8.61, abs=0.01)
    assert thc[FuelType.PETROL] == pytest.approx(11.76, abs=0.01)


def test_idle_fuel_linear_in_delay_and_counts(default_config):
    rates = default_config.idle_rates
    base = idle_fuel(SSC_COUNTS, SSC_DELAY, rates)
    doubled_delay = idle_fuel(SSC_COUNTS, 2 * SSC_DELAY, rates)
    doubled_counts = idle_fuel(
        {cls: 2 * v for cls, v in SSC_COUNTS.items()}, SSC_DELAY, rates)
    for fuel in FuelType:
        assert doubled_delay[fuel] == pytest.approx(2 * base[fuel], rel=1e-12)
        assert doubled_counts[fuel] == pytest.approx(2 * base[fuel], rel=1e-12)


def test_idle_fuel_additive_over_count_sets(default_config):
    rates = default_config.idle_rates
    combined = {cls: SSC_COUNTS[cls] + THC_COUNTS[cls] for cls in VehicleClass}
    total = idle_fuel(combined, SSC_DELAY, rates)
    parts_a = idle_fuel(SSC_COUNTS, SSC_DELAY, rates)
    parts_b = idle_fuel(THC_COUNTS, SSC_DELAY, rates)
    for fuel in FuelType:
        assert total[fuel] == pytest.approx(parts_a[fuel] + parts_b[fuel], rel=1e-12)


def test_co2_from_fuel_ratios():
    report = co2_from_fuel({FuelType.PETROL: 24.63}, FACTORS)
    assert report.co2_per_hour[FuelType.PETROL] == pytest.approx(58.91, abs=0.01)
    report = co2_from_fuel({FuelType.DIESEL: 8.61}, FACTORS)
    assert report.co2_per_hour[FuelType.DIESEL] == pytest.approx(22.73, abs=0.01)


def test_co2_zero_everywhere():
    report = co2_from_fuel({}, FACTORS)
    assert report.total_co2_per_hour == 0.0
    assert all(v == 0.0 for v in report.co2_per_hour.values())


def test_co2_identity_is_exact():
    fuel = {FuelType.CNG: 1.37, FuelType.DIESEL: 2.41, FuelType.PETROL: 9.81}
    report = co2_from_fuel(fuel, FACTORS)
    for fuel_type, quantity in fuel.items():
        assert report.co2_per_hour[fuel_type] == quantity * FACTORS.factors[fuel_type]
    assert report.total_co2_per_hour == sum(
        report.co2_per_hour[f] for f in FuelType)


def test_missing_factor():
    partial = EmissionFactorTable({FuelType.CNG: 2.252})
    with pytest.raises(InputError, match="no emission factor for petrol"):
        co2_from_fuel({FuelType.PETROL: 1.0}, partial)
    # zero quantities do not need a factor
    report = co2_from_fuel({FuelType.PETROL: 0.0}, partial)
    assert report.total_co2_per_hour == 0.0


def test_scale_with_configured_city_rate():
    estimate = scale_emissions([97.45, 64.21], 6, 13.0, city_rate_kg_per_hour=370.0)
    assert estimate.city_kg_per_hour == 370.0
    assert estimate.tons_per_day == 4.81
    assert not estimate.extrapolated


def test_scale_study_total():
    estimate = scale_emissions([97.45, 64.21], 2, 13.0)
    assert estimate.city_kg_per_hour == pytest.approx(161.66, abs=1e-9)
    assert estimate.extrapolated


def test_scale_degenerate():
    estimate = scale_emissions([0.0], 1, 13.0)
    assert estimate.tons_per_day == 0.0


def test_scale_empty_input():
    with pytest.raises(InputError, match="no per-intersection totals"):
        scale_emissions([], 3, 13.0)


def test_rate_table_fraction_budget():
    with pytest.raises(InvariantViolation):
        IdleRateTable({
            (VehicleClass.CAR, FuelType.PETROL): IdleRate(0.7, 1.0),
            (VehicleClass.CAR, FuelType.DIESEL): IdleRate(0.4, 1.0),
        })


@given(st.floats(min_value=0.0, max_value=1e4),
       st.floats(min_value=0.1, max_value=24.0))
def test_tons_per_day_identity(rate, hours):
    estimate = scale_emissions([rate], 1, hours)
    assert estimate.tons_per_day == estimate.city_kg_per_hour * hours / 1000.0
