import io
import json
from itertools import compress

import pytest

import oracles
from intersection_analyzer import (
    CycleTable,
    DelayPolicy,
    FuelType,
    VehicleClass,
    analyze_records,
    ingest_cycles,
    load_config,
)
from intersection_analyzer.cli import ARTIFACTS
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


def at(result, approach_id):
    """The place of ``approach_id`` in ``result.by_approach``."""
    return result.by_approach.approach_id.index(approach_id)


def at_intersection(result, intersection_id):
    """The place of ``intersection_id`` in ``result.by_intersection``."""
    return result.by_intersection.intersection_id.index(intersection_id)


def test_every_approach_reported_in_sorted_order(result):
    assert result.by_approach.approach_id == sorted(EXPECTED)


def test_volumes_and_vc(result):
    from intersection_analyzer.report import round_half_up

    a = result.by_approach
    for approach_id, (volume, vc, *_rest) in EXPECTED.items():
        k = at(result, approach_id)
        assert a.hourly_volume[k] == pytest.approx(volume, abs=0.005)
        assert round_half_up(a.vc_ratio[k], 2) == vc


def test_delays_match_recorded_averages(result):
    a = result.by_approach
    for approach_id, (_v, _x, delay, *_rest) in EXPECTED.items():
        k = at(result, approach_id)
        assert a.delay_s[k] == pytest.approx(delay, abs=0.01)
        assert not a.delay_clamped[k]


def test_green_shares_and_wastage(result):
    a = result.by_approach
    for approach_id, (*_head, share, wastage) in EXPECTED.items():
        k = at(result, approach_id)
        assert a.green_share[k] == pytest.approx(share, abs=1e-12)
        assert a.wastage[k] == pytest.approx(wastage, abs=1e-12)


def test_saturation_flows(result):
    a, sr2 = result.by_approach, at(result, "SR2")
    assert a.sf_discharge[sr2] == pytest.approx(77 / 31 * 3600)
    assert a.sf_width[sr2] == 3675.0


def test_intersection_means_and_grades(result):
    i, a = result.by_intersection, result.by_approach
    ssc = at_intersection(result, "SSC")
    assert i.mean_delay_all[ssc] == pytest.approx(56.078, abs=0.005)
    assert i.mean_delay_major[ssc] == pytest.approx(54.59, abs=0.005)
    span = i.span[ssc]
    assert list(compress(a.approach_id[span], a.is_major[span])) == ["SR2", "SR4"]
    assert i.los_all["delay_heterogeneous"][ssc] == "C"
    assert i.los_all["delay_hcm"][ssc] == "E"

    thc = at_intersection(result, "THC")
    assert i.mean_delay_all[thc] == pytest.approx(39.825, abs=0.005)
    assert i.mean_delay_major[thc] == pytest.approx(35.77, abs=0.005)
    assert i.los_major["delay_heterogeneous"][thc] == "B"
    assert i.los_major["delay_hcm"][thc] == "D"


def test_emissions_reproduce_observed_rows(result):
    i = result.by_intersection
    ssc = at_intersection(result, "SSC")
    assert i.fuel_per_hour[FuelType.CNG][ssc] == pytest.approx(9.42, abs=1e-6)
    assert i.fuel_per_hour[FuelType.DIESEL][ssc] == pytest.approx(6.56, abs=1e-6)
    assert i.fuel_per_hour[FuelType.PETROL][ssc] == pytest.approx(24.63, abs=1e-6)
    assert i.total_co2_per_hour[ssc] == pytest.approx(97.4472, abs=0.005)

    thc = at_intersection(result, "THC")
    assert i.total_co2_per_hour[thc] == pytest.approx(64.2147, abs=0.005)

    assert result.study_total_co2_kg_per_hour == pytest.approx(161.66, abs=0.01)
    assert result.city.city_kg_per_hour == 370.0
    assert result.city.tons_per_day == 4.81
    assert not result.city.extrapolated


def test_vc_discrepancy_notes_present(result):
    notes = result.by_intersection.notes[at_intersection(result, "THC")]
    assert any("no intersection-level V/C grade" in note for note in notes)
    assert any("V/C grades differ" in note for note in notes)
    assert "vc_ratio" not in result.by_intersection.los_all


def test_composition_uses_count_columns(result):
    shares = result.by_approach.composition[VehicleClass.TWO_WHEELER]
    assert shares[at(result, "SR1")] == pytest.approx(23 / 51)


def test_no_records_raises():
    with pytest.raises(InputError, match="no cycle records to analyze"):
        analyze_records(CycleTable(), {}, load_config())


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
    # 100 two-wheelers at 0.75
    assert result.by_approach.pcu_per_cycle == [pytest.approx(75.0)]


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
    hours = config.city.active_hours_per_day
    for name, build in ARTIFACTS.items():
        assert build(forward, hours) == build(backward, hours), name
    # and every bit of every figure, which the artifacts round
    assert repr(oracles.as_reports(forward)) == repr(oracles.as_reports(backward))
    assert forward.by_approach.approach_id == ["SR1", "SR2", "SR4"]
