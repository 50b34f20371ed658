"""The column-at-a-time analysis against the approach-by-approach one it
replaced (kept in ``tests/oracles.py``): the same artifact bytes, the same
column entry for every report field and, on failing inputs, the same first
error.  The oracle's
artifacts are written by ``csv.writer``, so the ids, which hold every
character it quotes, also pin the package's own CSV writer."""

import decimal
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from intersection_analyzer import (
    ApproachConfig,
    CapacityTable,
    CycleTable,
    DelayPolicy,
    Directionality,
    EmissionFactorTable,
    FuelType,
    analyze_records,
    load_config,
)
from intersection_analyzer.cli import ARTIFACTS
from intersection_analyzer.errors import AnalyzerError

FIXTURES = Path(__file__).parent / "fixtures"
PCU = load_config()
VEHICLES = load_config(FIXTURES / "vehicles_config.json")
# With the threshold at 0.5 most classes fall below it and take the factors
# 0.5, 1.0, 1.2, 1.4 and 2.2, whose products with a class total are inexact,
# so a rounded running sum of them could differ from the exact ``math.fsum``
# both analyses take.
SPARSE_VEHICLES = oracles.replace(VEHICLES, pcu_factors=oracles.replace(
    VEHICLES.pcu_factors, composition_threshold=0.5))
NO_DIESEL = oracles.replace(PCU, emission_factors=EmissionFactorTable(
    {FuelType.CNG: 2.252, FuelType.PETROL: 2.392}))
# A capacity so small that an ordinary volume over it is an infinite V/C.
TINY_CAPACITY = oracles.replace(PCU, capacity_table=CapacityTable({
    **PCU.capacity_table.capacities, (1, Directionality.ONE_WAY): 1e-308}))

# artifact -> its text from an oracle result, as ``cli.ARTIFACTS`` builds it
ORACLE_BUILDERS = {
    "flow.csv": lambda result, hours: oracles.flow_csv(result),
    "saturation.csv": lambda result, hours: oracles.saturation_csv(result),
    "composition.csv": lambda result, hours: oracles.composition_csv(result),
    "green.csv": lambda result, hours: oracles.green_csv(result),
    "green_series.csv": lambda result, hours: oracles.green_series_csv(result),
    "delay_los.csv": lambda result, hours: oracles.delay_csv(result),
    "intersections.csv": lambda result, hours: oracles.intersections_csv(result),
    "emissions.csv": lambda result, hours: oracles.emissions_csv(result),
    "emissions_summary.csv": oracles.emissions_summary_csv,
    "summary.txt": oracles.summary_text,
}

# Capacity-table keys of the shipped defaults, and one they lack.
KEYS = [(1, Directionality.ONE_WAY), (1, Directionality.TWO_WAY),
        (2, Directionality.ONE_WAY), (3, Directionality.ONE_WAY)]
MISSING_KEY = (2, Directionality.TWO_WAY)


def settle(analyze, table, approaches, config, policy):
    try:
        return analyze(table, approaches, config, emission_policy=policy)
    except AnalyzerError as err:
        return type(err), str(err)


def assert_same_analysis(table, approaches, config, policy):
    """Same error, or the same report fields and artifact bytes, as the oracle."""
    result = settle(analyze_records, table, approaches, config, policy)
    expected = settle(oracles.analyze_records, table, approaches, config, policy)
    if isinstance(expected, tuple):
        assert result == expected
        return result
    assert not isinstance(result, tuple), result
    # The oracle's Decimal rounding needs the digits of the largest figures.
    with decimal.localcontext(decimal.Context(prec=400)):
        # Compared by repr: a float prints as itself, so every bit counts.
        reports = oracles.as_reports(result)
        assert len(reports.approaches) == len(expected.approaches)
        for report, oracle_report in zip(reports.approaches, expected.approaches):
            assert repr(report) == repr(oracle_report)
        assert len(reports.intersections) == len(expected.intersections)
        for report, oracle_report in zip(reports.intersections, expected.intersections):
            assert repr(report) == repr(oracle_report)
        assert result.study_total_co2_kg_per_hour == expected.study_total_co2_kg_per_hour
        assert result.city == expected.city
        hours = config.city.active_hours_per_day
        for name, build in ARTIFACTS.items():
            assert build(result, hours) == ORACLE_BUILDERS[name](expected, hours), name
    return result


@st.composite
def row(draw, approach_id, faulty):
    """One cycle row; a ``faulty`` one may hold the values each domain error needs."""
    cycle = draw(st.floats(30.0, 200.0))
    green = draw(st.floats(1.0, cycle / 2))
    if faulty:
        # no green, or the slack a row may take past its cycle
        green = draw(st.sampled_from([green, green, green, 0.0, cycle + 5e-10]))
    red = 0.0 if green >= cycle else draw(st.floats(0.0, cycle - green))
    effective = draw(st.one_of(st.just(math.nan), st.floats(0.0, green)))
    if faulty and draw(st.integers(0, 5)) == 0:
        effective = 1e-310  # discharge over it overflows
    exited = draw(st.one_of(st.just(math.nan), st.floats(0.0, 60.0)))
    counts = draw(st.one_of(
        st.lists(st.integers(0, 12), min_size=5, max_size=5),
        st.lists(st.integers(0, 12), min_size=5, max_size=5),
        st.just([0] * 5),
        st.lists(st.integers(0, 400 if faulty else 12), min_size=5, max_size=5),
    ))
    return approach_id, cycle, red, green, counts, effective, exited


# Ids whose cells the CSV writer must quote on some Python version, or must
# leave as they are: a comma, a quote, a line break, a carriage return,
# inner spaces and non-ASCII text.
APPROACH_IDS = ["N1", "S,2", 'E"3', "W\n4", "N\r5", "S 6", "É7", 'W8,"', "Q9", "A0", "Ω 1", "K2"]
INTERSECTION_IDS = ["M", "B,1", 'X"', "C\nD", "R\rS", "in ner", "Zürich"]


@st.composite
def study(draw):
    """Shuffled rows of 1-3 intersections of 1-4 approaches with 1-4 rows each,
    in one of four studies out of three drawn to fail."""
    faulty = draw(st.sampled_from([False, True, False, True]))
    approach_ids = iter(draw(st.permutations(APPROACH_IDS)))
    approaches, rows = {}, []
    for intersection_id in draw(st.lists(st.sampled_from(INTERSECTION_IDS), min_size=1,
                                         max_size=3, unique=True)):
        for _ in range(draw(st.integers(1, 4))):
            approach_id = next(approach_ids)
            lanes, directionality = draw(st.sampled_from(KEYS * 6 + [MISSING_KEY] * faulty))
            width = draw(st.floats(2.0, 15.0))
            if faulty and draw(st.integers(0, 24)) == 0:
                width = 1e306  # its saturation flow overflows
            approaches[approach_id] = ApproachConfig(
                approach_id, intersection_id, lanes, directionality, width,
                is_major=draw(st.booleans()))
            rows += [draw(row(approach_id, faulty)) for _ in range(draw(st.integers(1, 4)))]
    table = CycleTable()
    for approach_id, cycle, red, green, counts, effective, exited in draw(st.permutations(rows)):
        table.append(approach_id, cycle, red, green, counts, effective, exited)
    # NO_DIESEL in a clean study too: a faulty one almost always fails a
    # check that comes before the missing emission factor.
    config = draw(st.sampled_from(
        [PCU, VEHICLES, SPARSE_VEHICLES, NO_DIESEL] + [TINY_CAPACITY] * faulty))
    policy = draw(st.sampled_from(DelayPolicy))
    return table, approaches, config, policy


@settings(max_examples=300, deadline=None)
@given(study())
def test_columns_match_the_approach_by_approach_analysis(case):
    assert_same_analysis(*case)


def clean(approach_id, **cells):
    values = dict(cycle=100.0, red=40.0, green=50.0, counts=(6, 4, 5, 2, 1),
                  effective=45.0, exited=20.0)
    values.update(cells)
    return (approach_id, values["cycle"], values["red"], values["green"], values["counts"],
            values["effective"], values["exited"])


# Each kind of domain error, in intersection M: intersection B before it
# passes, and X after it fails too (saturated), so only M's error may show.
# kind -> (part of the message, M's rows, M's geometry changes, config, policy)
ERRORS = {
    "zero mean green": ("green_time must lie in (0, cycle_length]",
                        [clean("M1"), clean("M2", green=0.0, effective=math.nan)],
                        {}, PCU, "all"),
    "too-large mean green": ("green_time must lie in (0, cycle_length]",
                             [clean("M1", red=0.0, green=100.0 + 5e-10)], {}, PCU, "all"),
    "no capacity entry": ("no capacity entry for 2-lane twoway (approach M1)",
                          [clean("M1")], {"lane_count": 2, "directionality": Directionality.TWO_WAY},
                          PCU, "all"),
    "non-finite discharge": ("saturation flow is not finite",
                             [clean("M1", effective=1e-310, exited=50.0)], {}, PCU, "all"),
    "saturated": ("the model covers undersaturated operation only",
                  [clean("M1", counts=(200,) * 5)], {}, PCU, "all"),
    "no vehicles": ("no vehicles counted in any record",
                    [clean("M1", counts=(0,) * 5)], {}, VEHICLES, "all"),
    "no major approach": ("has no major approaches", [clean("M1")], {"is_major": False},
                          PCU, "major"),
    "no emission factor": ("no emission factor for diesel",
                           [clean("M1", counts=(3, 3, 3, 3, 3))], {}, NO_DIESEL, "all"),
    "infinite V/C": ("vc_ratio must be >= 0 and finite, got inf",
                     [clean("M1")], {}, TINY_CAPACITY, "all"),
    "no green": ("total green time across the intersection is zero",
                 [clean("M1", green=0.0, effective=math.nan),
                  clean("M2", green=0.0, effective=math.nan)], {}, PCU, "all"),
    "infinite width flow": ("saturation flow is not finite: width 1e+306 m",
                            [clean("M1")], {"width": 1e306}, PCU, "all"),
    # M1's last check fails before M2's first: approach by approach, not
    # check by check.
    "approach before check": ("the model covers undersaturated operation only",
                              [clean("M1", counts=(200,) * 5),
                               clean("M2", green=0.0, effective=math.nan)], {}, PCU, "all"),
}


@pytest.mark.parametrize("kind", ERRORS)
def test_each_domain_error_is_the_first_one_the_oracle_raises(kind):
    message, rows, changes, config, policy = ERRORS[kind]
    # B and X use a capacity key every configuration holds, and burn no diesel.
    rows = [clean("B1", counts=(6, 4, 5, 0, 0)), *rows,
            clean("X1", counts=(200, 200, 200, 0, 0))]
    approaches = {}
    for approach_id, *_ in rows:
        intersection_id = approach_id[0]
        approaches[approach_id] = ApproachConfig(
            approach_id, intersection_id, 1, Directionality.TWO_WAY, 3.5, is_major=True)
        if intersection_id == "M":
            approaches[approach_id] = oracles.replace(approaches[approach_id], **(
                {"lane_count": 1, "directionality": Directionality.ONE_WAY} | changes))
    table = CycleTable()
    for cells in reversed(rows):
        table.append(*cells)
    outcome = assert_same_analysis(table, approaches, config, DelayPolicy(policy))
    assert isinstance(outcome, tuple) and message in outcome[1], outcome
    assert "X1" not in outcome[1]
