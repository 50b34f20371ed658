import io
import json

import pytest

from intersection_analyzer import (
    DelayPolicy,
    FuelType,
    VehicleClass,
    analyze_records,
    ingest_cycles,
    load_config,
)
from intersection_analyzer.errors import InputError, SaturatedRegime

from conftest import FIXTURES

# Computed expectations for the bundled study dataset.  Where the dataset's
# own tables are internally inconsistent (rounded per-cycle PCU inputs), the
# pipeline reports the values implied by the per-cycle records.
EXPECTED = {
    #            volume  vc     delay   share      wastage
    "SR1": (1207.89, 0.34, 50.24, 32 / 152, 8 / 32),
    "SR2": (1918.42, 0.80, 56.42, 35 / 152, 4 / 35),
    "SR3": (260.53, 0.11, 60.51, 12 / 152, 2 / 12),
    "SR4": (2107.89, 0.59, 52.76, 45 / 152, 10 / 45),
    "SR5": (592.11, 0.39, 60.46, 28 / 152, 12 / 28),
    "TR1": (1028.57, 0.29, 42.44, 25 / 119, 7 / 25),
    "TR2": (2026.89, 0.84, 37.52, 40 / 119, 5 / 40),
    "TR3": (453.78, 0.19, 45.32, 9 / 119, 0.0),
    "TR4": (2631.93, 0.73, 34.02, 45 / 119, 7 / 45),
}


@pytest.fixture(scope="module")
def result(study_records, study_approaches, default_config):
    return analyze_records(study_records, study_approaches, default_config)


def report_for(result, approach_id):
    return next(r for r in result.approaches if r.approach_id == approach_id)


def test_every_approach_reported_in_sorted_order(result):
    assert [r.approach_id for r in result.approaches] == sorted(EXPECTED)


def test_volumes_and_vc(result):
    from intersection_analyzer.report import round_half_up

    for approach_id, (volume, vc, *_rest) in EXPECTED.items():
        r = report_for(result, approach_id)
        assert r.flow.hourly_volume == pytest.approx(volume, abs=0.005)
        assert round_half_up(r.flow.vc_ratio, 2) == vc


def test_delays_match_recorded_averages(result):
    for approach_id, (_v, _x, delay, *_rest) in EXPECTED.items():
        r = report_for(result, approach_id)
        assert r.delay_s == pytest.approx(delay, abs=0.01)
        assert not r.delay_clamped


def test_green_shares_and_wastage(result):
    for approach_id, (*_head, share, wastage) in EXPECTED.items():
        r = report_for(result, approach_id)
        assert r.green.green_share == pytest.approx(share, abs=1e-12)
        assert r.green.wastage == pytest.approx(wastage, abs=1e-12)


def test_saturation_flows(result):
    sr2 = report_for(result, "SR2")
    assert sr2.flow.sf_discharge == pytest.approx(77 / 31 * 3600)
    assert sr2.flow.sf_width == 3675.0
    assert sr2.flow.sf_difference == pytest.approx(
        sr2.flow.sf_discharge - sr2.flow.sf_width)


def test_intersection_means_and_grades(result):
    ssc = next(i for i in result.intersections if i.intersection_id == "SSC")
    assert ssc.mean_delay_all == pytest.approx(56.078, abs=0.005)
    assert ssc.mean_delay_major == pytest.approx(54.59, abs=0.005)
    assert ssc.major_approach_ids == ("SR2", "SR4")
    assert ssc.los_all["delay_heterogeneous"].grade == "C"
    assert ssc.los_all["delay_hcm"].grade == "E"

    thc = next(i for i in result.intersections if i.intersection_id == "THC")
    assert thc.mean_delay_all == pytest.approx(39.825, abs=0.005)
    assert thc.mean_delay_major == pytest.approx(35.77, abs=0.005)
    assert thc.los_major["delay_heterogeneous"].grade == "B"
    assert thc.los_major["delay_hcm"].grade == "D"


def test_emissions_reproduce_observed_rows(result):
    ssc = next(i for i in result.intersections if i.intersection_id == "SSC")
    fuel = ssc.emissions.fuel_per_hour
    assert fuel[FuelType.CNG] == pytest.approx(9.42, abs=1e-6)
    assert fuel[FuelType.DIESEL] == pytest.approx(6.56, abs=1e-6)
    assert fuel[FuelType.PETROL] == pytest.approx(24.63, abs=1e-6)
    assert ssc.emissions.total_co2_per_hour == pytest.approx(97.4472, abs=0.005)

    thc = next(i for i in result.intersections if i.intersection_id == "THC")
    assert thc.emissions.total_co2_per_hour == pytest.approx(64.2147, abs=0.005)

    assert result.study_total_co2_kg_per_hour == pytest.approx(161.66, abs=0.01)
    assert result.city.city_kg_per_hour == 370.0
    assert result.city.tons_per_day == 4.81
    assert not result.city.extrapolated


def test_vc_discrepancy_notes_present(result):
    thc = next(i for i in result.intersections if i.intersection_id == "THC")
    assert any("no intersection-level V/C grade" in note for note in thc.notes)
    assert any("V/C grades differ" in note for note in thc.notes)
    assert "vc_ratio" not in thc.los_all


def test_composition_uses_count_columns(result):
    sr1 = report_for(result, "SR1")
    assert sr1.composition[VehicleClass.TWO_WHEELER] == pytest.approx(23 / 51)


def test_no_records_raises():
    with pytest.raises(InputError, match="no cycle records to analyze"):
        analyze_records([], {}, load_config())


def test_emission_policy_major_without_majors(study_records, study_approaches, tmp_path):
    # strip the major flags via a config-independent approach table
    no_majors = {
        approach_id: type(cfg)(
            approach_id=cfg.approach_id,
            intersection_id=cfg.intersection_id,
            lane_count=cfg.lane_count,
            directionality=cfg.directionality,
            width=cfg.width,
            free_left=cfg.free_left,
            is_major=False,
        )
        for approach_id, cfg in study_approaches.items()
    }
    with pytest.raises(InputError, match="has no major approaches"):
        analyze_records(study_records, no_majors, load_config(),
                        emission_policy=DelayPolicy.MAJOR_ONLY)


def test_vehicles_mode_converts_counts(tmp_path, study_approaches):
    # raw vehicle counts: composition picks the at-or-above factors for every
    # class present at >= 5% of the stream
    cycles = io.StringIO(
        "approach_id,cycle_length_s,red_s,green_s,two_wheeler,auto_rickshaw,car,lcv,bus\n"
        "SR1,152,120,32,100,0,0,0,0\n")
    records = ingest_cycles(cycles, study_approaches)
    override = tmp_path / "vehicles.json"
    override.write_text(json.dumps({"counts_unit": "vehicles"}))
    config = load_config(override)
    result = analyze_records(records, study_approaches, config)
    r = result.approaches[0]
    assert r.green.pcu_per_cycle == pytest.approx(75.0)  # 100 two-wheelers at 0.75


def test_saturated_regime_propagates(study_approaches, tmp_path):
    cycles = io.StringIO(
        "approach_id,cycle_length_s,red_s,green_s,two_wheeler,auto_rickshaw,car,lcv,bus\n"
        "SR1,100,0,100,0,0,4000,0,0\n")
    records = ingest_cycles(cycles, study_approaches)
    with pytest.raises(SaturatedRegime):
        analyze_records(records, study_approaches, load_config())


@pytest.mark.parametrize("config_file", [None, FIXTURES / "vehicles_config.json"])
def test_rows_in_report_order_and_reversed_give_the_same_analysis(study_approaches,
                                                                   config_file):
    # Rows in report order are summed where they are; reversed, they are
    # sorted and gathered first.  Fractional timings make every sum inexact,
    # and an absent effective green makes a present-value mean.
    header = ("approach_id,cycle_length_s,red_s,green_s,two_wheeler,auto_rickshaw,car,lcv,"
              "bus,effective_green_s,exited_pcu\n")
    rows = [f"{a},{150 + k / 10},{100 + k / 7:.4f},{30 + k / 3:.4f},{k},{2 * k % 5},"
            f"{k % 3 + 1},{k % 2},{k // 4},{'' if k == 4 else f'{20 + k / 9:.4f}'},"
            f"{40 + k / 11:.4f}\n"
            for a in ("SR1", "SR2", "SR4") for k in range(1, 8)]
    config = load_config(config_file)
    forward, backward = (
        analyze_records(ingest_cycles(io.StringIO(header + "".join(lines)), study_approaches),
                        study_approaches, config)
        for lines in (rows, rows[::-1]))
    assert repr(forward) == repr(backward)
    assert [r.approach_id for r in forward.approaches] == ["SR1", "SR2", "SR4"]
