import math

import pytest
from hypothesis import given, strategies as st

import oracles

from intersection_analyzer import (
    ApproachConfig,
    DelayInputs,
    DelayPolicy,
    Directionality,
    LosBandTable,
    classify_los,
    control_delay,
    intersection_delay,
    load_config,
    platoon_ratio_from_delay,
)
from intersection_analyzer.errors import InputError, InvariantViolation, SaturatedRegime

LOS_TABLES = load_config().los_tables
DELAY_HETEROGENEOUS = LOS_TABLES["delay_heterogeneous"]
DELAY_HCM = LOS_TABLES["delay_hcm"]
VC_RATIO_BANDS = LOS_TABLES["vc_ratio"]

# Back-solved against the recorded average delays at the 2-decimal V/C values.
SR1_INPUTS = DelayInputs(152.0, 32.0, 0.34, platoon_ratio=0.45670411487070384)
TR4_INPUTS = DelayInputs(119.0, 45.0, 0.73, platoon_ratio=0.2600505519310491)


def test_control_delay_reference_rows():
    assert control_delay(SR1_INPUTS).seconds == pytest.approx(50.24, abs=0.01)
    assert control_delay(TR4_INPUTS).seconds == pytest.approx(34.02, abs=0.01)


def test_control_delay_all_green_no_platooning():
    estimate = control_delay(DelayInputs(100.0, 100.0, 0.0, platoon_ratio=0.0))
    assert estimate.seconds == pytest.approx(6.23)
    assert not estimate.clamped


def test_uniform_term_vanishes_at_full_green_for_any_undersaturated_x():
    for x in (0.0, 0.3, 0.9, 0.999):
        estimate = control_delay(DelayInputs(100.0, 100.0, x, platoon_ratio=0.0))
        assert estimate.seconds == 6.23


def test_control_delay_clamps_negative_to_zero():
    estimate = control_delay(DelayInputs(100.0, 100.0, 0.0, platoon_ratio=3.0))
    assert estimate.seconds == 0.0
    assert estimate.clamped


def test_saturated_regime_guard():
    with pytest.raises(SaturatedRegime):
        control_delay(DelayInputs(100.0, 50.0, 2.0, platoon_ratio=1.0))
    with pytest.raises(SaturatedRegime):
        control_delay(DelayInputs(100.0, 100.0, 1.0, platoon_ratio=1.0))


def test_delay_inputs_validation():
    with pytest.raises(InvariantViolation):
        DelayInputs(100.0, 0.0, 0.5, platoon_ratio=1.0)
    with pytest.raises(InvariantViolation):
        DelayInputs(100.0, 120.0, 0.5, platoon_ratio=1.0)
    with pytest.raises(InvariantViolation):
        DelayInputs(100.0, 50.0, -0.1, platoon_ratio=1.0)
    # negative platoon ratio is allowed (back-solved values can be negative)
    DelayInputs(100.0, 50.0, 0.5, platoon_ratio=-0.06)


def test_delay_monotone_in_vc():
    previous = None
    for i in range(200):
        x = 0.9 * (152.0 / 32.0) * i / 199
        seconds = control_delay(DelayInputs(152.0, 32.0, x, platoon_ratio=0.0)).seconds
        if previous is not None:
            assert seconds > previous
        previous = seconds


def test_delay_linear_decreasing_in_platoon_ratio():
    base = control_delay(DelayInputs(152.0, 32.0, 0.34, platoon_ratio=0.0)).seconds
    for rp in (0.5, 1.0, 2.0):
        seconds = control_delay(DelayInputs(152.0, 32.0, 0.34, platoon_ratio=rp)).seconds
        assert seconds == pytest.approx(base - 15.35 * rp, rel=1e-12)


admissible = st.tuples(
    st.floats(min_value=40.0, max_value=300.0),    # cycle
    st.floats(min_value=0.05, max_value=1.0),      # green fraction
    st.floats(min_value=0.0, max_value=0.95),      # load = X*g/C
    st.floats(min_value=-0.5, max_value=3.0),      # platoon ratio
)


@given(admissible)
def test_backsolve_round_trip(params):
    cycle, green_fraction, load, rp = params
    green = green_fraction * cycle
    x = load / green_fraction
    estimate = control_delay(DelayInputs(cycle, green, x, platoon_ratio=rp))
    if estimate.clamped:
        return
    recovered = platoon_ratio_from_delay(cycle, green, x, estimate.seconds)
    again = control_delay(DelayInputs(cycle, green, x, platoon_ratio=recovered))
    assert again.seconds == pytest.approx(estimate.seconds, abs=1e-9)


# --- level of service --------------------------------------------------------

def test_delay_grading_under_both_standards():
    assert classify_los(56.0, DELAY_HETEROGENEOUS).grade == "C"
    assert classify_los(56.0, DELAY_HCM).grade == "E"
    assert classify_los(36.0, DELAY_HETEROGENEOUS).grade == "B"
    assert classify_los(36.0, DELAY_HCM).grade == "D"


def test_delay_band_boundaries_upper_inclusive():
    assert classify_los(10.0, DELAY_HETEROGENEOUS).grade == "A"
    assert classify_los(10.0, DELAY_HCM).grade == "A"
    assert classify_los(45.0, DELAY_HETEROGENEOUS).grade == "B"
    assert classify_los(45.0001, DELAY_HETEROGENEOUS).grade == "C"
    assert classify_los(135.0, DELAY_HETEROGENEOUS).grade == "E"
    assert classify_los(135.01, DELAY_HETEROGENEOUS).grade == "F"


def test_vc_grading():
    assert classify_los(0.73, VC_RATIO_BANDS).grade == "C"
    assert classify_los(0.80, VC_RATIO_BANDS).grade == "D"
    assert classify_los(0.84, VC_RATIO_BANDS).grade == "D"
    assert classify_los(0.60, VC_RATIO_BANDS).grade == "B"   # lower bound inclusive
    assert classify_los(0.599, VC_RATIO_BANDS).grade == "A"
    assert classify_los(1.0, VC_RATIO_BANDS).grade == "F"
    assert classify_los(4.2, VC_RATIO_BANDS).grade == "F"


@given(st.floats(min_value=0.0, max_value=300.0), st.floats(min_value=0.0, max_value=300.0))
def test_grading_monotone(a, b):
    low, high = sorted((a, b))
    for table in (DELAY_HETEROGENEOUS, DELAY_HCM, VC_RATIO_BANDS):
        assert classify_los(low, table).grade <= classify_los(high, table).grade


@given(st.floats(min_value=0.0, max_value=300.0))
def test_hcm_never_kinder_than_heterogeneous(delay):
    assert classify_los(delay, DELAY_HCM).grade >= classify_los(delay, DELAY_HETEROGENEOUS).grade


def test_band_table_validation():
    with pytest.raises(InvariantViolation):
        LosBandTable("bad", ((10.0, "A"), (5.0, "B"), (65.0, "C"),
                             (100.0, "D"), (135.0, "E"), (None, "F")))
    with pytest.raises(InvariantViolation):
        LosBandTable("bad", ((10.0, "A"), (45.0, "B"), (65.0, "C"),
                             (100.0, "D"), (135.0, "F"), (None, "E")))
    with pytest.raises(InvariantViolation):
        LosBandTable("bad", ((10.0, "A"), (45.0, "B"), (65.0, "C"),
                             (100.0, "D"), (135.0, "E"), (200.0, "F")))


def test_classify_rejects_nan_and_negative_values():
    assert len(LOS_TABLES) == 3
    for table in LOS_TABLES.values():
        for value in (math.nan, -math.nan, -0.01, -math.inf):
            with pytest.raises(InputError, match="classified value must be >= 0"):
                table.classify(value)
        assert table.classify(math.inf).grade == "F"
        assert table.classify(0.0).grade == "A"


# Both kinds of band, with bounds that are not integers.
BAND_TABLES = (
    DELAY_HETEROGENEOUS, DELAY_HCM, VC_RATIO_BANDS,
    LosBandTable("lower", ((0.1, "A"), (0.25, "B"), (1.0, "C"), (7.5, "D"),
                           (1e6, "E"), (None, "F")), upper_inclusive=False),
    LosBandTable("upper", ((0.1, "A"), (0.25, "B"), (1.0, "C"), (7.5, "D"),
                           (1e6, "E"), (None, "F"))),
)


def test_column_grades_match_classify_at_every_bound():
    for table in BAND_TABLES:
        values = [0.0, math.inf]
        for bound, _ in table.bands[:-1]:
            values += [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
        expected = [oracles.classify(table, value).grade for value in values]
        assert table.grades(values) == expected
        assert [table.classify(value).grade for value in values] == expected
        assert len(set(expected)) == 6


@given(st.lists(st.floats(min_value=0.0, allow_nan=False), max_size=20))
def test_column_grades_match_classify(values):
    for table in BAND_TABLES:
        assert table.grades(values) == [oracles.classify(table, v).grade for v in values]


def test_column_grading_rejects_nan_and_negative_values_as_classify_does():
    for table in BAND_TABLES:
        for bad in (math.nan, -math.nan, -0.01, -5e-324, -math.inf):
            with pytest.raises(InputError) as single:
                table.classify(bad)
            with pytest.raises(InputError) as column:
                table.grades([0.5, math.inf, bad, -1.0])
            assert str(column.value) == str(single.value)
            assert str(single.value) == f"classified value must be >= 0, got {bad}"


# --- intersection aggregation ------------------------------------------------

CONFIGS = {
    "SR1": ApproachConfig("SR1", "SSC", 3, Directionality.ONE_WAY, 10.5, is_major=False),
    "SR2": ApproachConfig("SR2", "SSC", 2, Directionality.ONE_WAY, 7.0, is_major=True),
    "SR3": ApproachConfig("SR3", "SSC", 1, Directionality.TWO_WAY, 3.5, is_major=False),
    "SR4": ApproachConfig("SR4", "SSC", 3, Directionality.ONE_WAY, 10.5, is_major=True),
    "SR5": ApproachConfig("SR5", "SSC", 1, Directionality.ONE_WAY, 3.5, is_major=False),
    "TR2": ApproachConfig("TR2", "THC", 2, Directionality.ONE_WAY, 7.0, is_major=True),
    "TR4": ApproachConfig("TR4", "THC", 3, Directionality.ONE_WAY, 10.5, is_major=True),
}


def test_intersection_delay_all_approaches():
    delays = {"SR1": 50.24, "SR2": 56.42, "SR3": 60.51, "SR4": 52.76, "SR5": 60.46}
    mean = intersection_delay(delays, DelayPolicy.ALL_APPROACHES, CONFIGS)
    assert mean == pytest.approx(56.078, abs=1e-9)
    assert round(mean) == 56


def test_intersection_delay_major_only():
    delays = {"TR2": 37.52, "TR4": 34.02}
    mean = intersection_delay(delays, DelayPolicy.MAJOR_ONLY, CONFIGS)
    assert mean == pytest.approx(35.77, abs=1e-9)
    assert round(mean) == 36


def test_intersection_delay_single_approach():
    assert intersection_delay({"SR1": 42.0}, DelayPolicy.ALL_APPROACHES, CONFIGS) == 42.0


def test_intersection_delay_no_majors():
    with pytest.raises(InputError, match="no approach is flagged as major"):
        intersection_delay({"SR1": 42.0}, DelayPolicy.MAJOR_ONLY, CONFIGS)


def test_intersection_delay_empty():
    with pytest.raises(InputError, match="no per-approach delays given"):
        intersection_delay({}, DelayPolicy.ALL_APPROACHES, CONFIGS)
