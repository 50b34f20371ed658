import copy
import io
import itertools
import math
import pickle

import pytest

import oracles
from intersection_analyzer import (
    ApproachConfig,
    CycleTable,
    Directionality,
    scan_cycles,
)
from intersection_analyzer.errors import InvariantViolation
from intersection_analyzer.model import _frozen, timing_faults
from intersection_analyzer.stats import SampleSummary


NO_COUNTS = (0,) * 5


def test_cycle_timing_invariant():
    table = CycleTable()
    table.append("A1", 152.0, 120.0, 32.0, NO_COUNTS)  # red + green == cycle is fine
    with pytest.raises(InvariantViolation):
        table.append("A1", 152.0, 140.0, 30.0, NO_COUNTS)
    assert len(table) == 1  # a refused row is not added


def test_effective_green_bounded_by_green():
    table = CycleTable()
    table.append("A1", 152.0, 120.0, 32.0, NO_COUNTS, effective_green=24.0)
    assert table.effective_green[0] == 24.0
    with pytest.raises(InvariantViolation):
        table.append("A1", 152.0, 120.0, 32.0, NO_COUNTS, effective_green=33.0)
    assert len(table) == 1


def test_nonpositive_cycle_rejected():
    with pytest.raises(InvariantViolation):
        CycleTable().append("A1", 0.0, 0.0, 0.0, NO_COUNTS)


# (cycle, red, green, effective green, exited PCU; NaN is absent) -> the
# message of the first timing check the row fails
TIMING_FAULTS = {
    "cycle": ((0.0, 0.0, 0.0, math.nan, math.nan), "cycle_length must be > 0, got 0.0"),
    "red": ((100.0, -1.0, 50.0, math.nan, math.nan), "red_time and green_time must be >= 0"),
    "green": ((100.0, 40.0, -1.0, math.nan, math.nan),
              "red_time and green_time must be >= 0"),
    "red + green": ((100.0, 60.0, 50.0, math.nan, math.nan),
                    "red + green = 110.0 exceeds cycle length 100.0"),
    "effective green": ((100.0, 40.0, 50.0, -1.0, math.nan), "effective_green must be >= 0"),
    "effective over green": ((100.0, 40.0, 50.0, 51.0, math.nan),
                             "effective_green = 51.0 exceeds green_time = 50.0"),
    "exited": ((100.0, 40.0, 50.0, 45.0, -1.0), "exited_pcu must be >= 0"),
    # a row that fails two checks reports the earlier one
    "red + green and exited": ((100.0, 60.0, 50.0, 45.0, -2.0),
                               "red + green = 110.0 exceeds cycle length 100.0"),
    "cycle and effective over green": ((-5.0, 0.0, 10.0, 20.0, math.nan),
                                       "cycle_length must be > 0, got -5.0"),
}


def scan_row(*values):
    cells = ",".join("" if math.isnan(value) else repr(value) for value in values)
    table, errors = scan_cycles(io.StringIO(
        f"approach_id,cycle_length_s,red_s,green_s,effective_green_s,exited_pcu\nA1,{cells}\n"))
    assert len(table) == 0 and len(errors) == 1
    assert errors[0].row == 2
    raise errors[0]


def append_row(cycle, red, green, effective, exited):
    CycleTable().append("A1", cycle, red, green, NO_COUNTS, effective, exited)


@pytest.mark.parametrize("entry", [scan_row, append_row],
                         ids=["scan_cycles", "CycleTable.append"])
@pytest.mark.parametrize("fault", TIMING_FAULTS)
def test_each_timing_fault_has_its_message(entry, fault):
    values, message = TIMING_FAULTS[fault]
    with pytest.raises(InvariantViolation) as caught:
        entry(*values)
    assert caught.value.args == (message,)


SLACK = 1e-9  # the tolerance of the two sum checks, as in oracles._check_cycle
INF = math.inf
# Where red + green, or the effective green, lies against its bound.
PLACES = {
    "at the bound": lambda bound: bound,
    "within the slack": lambda bound: bound + SLACK / 2,
    "past bound + slack": lambda bound: math.nextafter(bound + SLACK, INF),
}


def slack_rows(place, cycle):
    """(cycle, red, green, effective green, exited PCU; NaN is absent) rows
    whose red + green, then whose effective green, lies at ``place``."""
    over, green = PLACES[place](cycle), cycle / 2
    return [(cycle, 0.0, over, math.nan, math.nan),
            (cycle, cycle / 4, over - cycle / 4, math.nan, math.nan),
            (cycle, over / 2, over / 2, 0.0, 1.0),
            (cycle, green / 2, green, PLACES[place](green), math.nan)]


# Columns of rows at each place against the bound, for cycle lengths whose
# spacing lies below and above the slack; then all of them mixed with rows
# holding NaN or infinities in every column.
TIMING_COLUMNS = {
    f"{place}, cycle {cycle:g}": slack_rows(place, cycle)
    for place in PLACES for cycle in (1.0, 100.0, 152.0, 1e6, 1e9)}
TIMING_COLUMNS["mixed with NaN and infinities"] = [
    row for rows in zip(itertools.chain(*TIMING_COLUMNS.values()), itertools.cycle([
        (math.nan, 1.0, 2.0, math.nan, math.nan), (INF, 1.0, 2.0, 3.0, 1.0),
        (INF, INF, 1.0, math.nan, math.nan), (100.0, INF, -INF, math.nan, math.nan),
        (100.0, 1.0, math.nan, 5.0, math.nan), (100.0, 40.0, 50.0, INF, -INF),
        (100.0, 40.0, INF, INF, math.nan), (-INF, 0.0, 0.0, -INF, INF),
        (100.0, math.nan, 50.0, 60.0, math.nan), (100.0, 40.0, 50.0, math.nan, INF),
    ])) for row in rows]


@pytest.mark.parametrize("name", TIMING_COLUMNS)
def test_timing_faults_match_the_row_by_row_checks(name):
    rows, expected = TIMING_COLUMNS[name], {}
    for j, (cycle, red, green, *optional) in enumerate(rows):
        try:
            oracles._check_cycle(cycle, red, green,
                                 *(None if math.isnan(value) else value for value in optional))
        except InvariantViolation as err:
            expected[j] = str(err)
    assert timing_faults(*zip(*rows)) == expected
    # only a value past bound + slack fails
    assert bool(expected) != name.startswith(("at", "within"))


def test_approach_config_invariants():
    ApproachConfig("A1", "X", 2, Directionality.ONE_WAY, 7.0)
    with pytest.raises(InvariantViolation):
        ApproachConfig("A1", "X", 0, Directionality.ONE_WAY, 7.0)
    with pytest.raises(InvariantViolation):
        ApproachConfig("A1", "X", 2, Directionality.ONE_WAY, 0.0)


# --- the frozen-record decorator -----------------------------------------------

@_frozen
class Pair:
    first: int
    second: str = "b"


@_frozen
class OtherPair:
    first: int
    second: str = "b"


@_frozen(slots=True)
class Checked:
    value: float
    unit: str = "s"

    def __post_init__(self):
        if self.value < 0:
            raise InvariantViolation(f"negative value {self.value}")


def test_a_record_prints_its_fields_in_order():
    assert repr(Pair(1)) == "Pair(first=1, second='b')"
    assert repr(Checked(2.5, unit="m")) == "Checked(value=2.5, unit='m')"
    assert repr(ApproachConfig("A1", "X", 2, Directionality.ONE_WAY, 7.0)) == (
        "ApproachConfig(approach_id='A1', intersection_id='X', lane_count=2, "
        "directionality=<Directionality.ONE_WAY: 'oneway'>, width=7.0, free_left=False, "
        "is_major=False)")


def test_a_record_equals_only_records_of_its_class():
    assert Pair(1, "c") == Pair(first=1, second="c") == Pair(second="c", first=1)
    assert Pair(1) != Pair(2)
    assert Pair(1) != OtherPair(1)
    assert Pair(1).__eq__(OtherPair(1)) is NotImplemented
    assert Pair(1) != (1, "b")


def test_a_record_hashes_its_field_tuple():
    assert hash(Pair(1, "c")) == hash((1, "c"))
    assert hash(Checked(2.0)) == hash((2.0, "s"))
    assert len({Pair(1), Pair(1), Pair(2)}) == 2


@pytest.mark.parametrize("change", [
    lambda p: setattr(p, "first", 2),
    lambda p: setattr(p, "third", 3),
    lambda p: delattr(p, "first"),
])
@pytest.mark.parametrize("record", [Pair(1), Checked(1.0)], ids=["dict", "slots"])
def test_a_record_refuses_assignment_and_deletion(record, change):
    before = repr(record)
    with pytest.raises(AttributeError):
        change(record)
    assert repr(record) == before


@pytest.mark.parametrize("record", [Pair(1), Checked(1.0), SampleSummary(2, 1.0, 0.5),
                                    ApproachConfig("A1", "X", 2, Directionality.ONE_WAY, 7.0)],
                         ids=lambda record: type(record).__name__)
def test_a_record_copies_and_pickles(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("make", [
    lambda: Pair(),
    lambda: Pair(second="c"),
    lambda: Pair(1, "c", 3),
    lambda: Pair(1, third=3),
    lambda: Pair(1, first=2),
])
def test_a_missing_or_unknown_argument_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_defaults_fill_the_fields_not_given():
    assert (Pair(1).first, Pair(1).second) == (1, "b")
    assert Checked(1.0).unit == "s"
    config = ApproachConfig("A1", "X", 2, Directionality.ONE_WAY, 7.0, is_major=True)
    assert (config.free_left, config.is_major) == (False, True)


def test_post_init_checks_every_construction():
    with pytest.raises(InvariantViolation, match="negative value -1"):
        Checked(-1.0)
    with pytest.raises(InvariantViolation, match="negative value -1"):
        Checked(value=-1.0, unit="m")


def test_a_record_matches_by_position():
    match Pair(1, "c"):
        case Pair(first, second):
            assert (first, second) == (1, "c")
        case _:
            pytest.fail("no positional match")


@pytest.mark.parametrize("record", [
    Checked(1.0),
    SampleSummary(2, 1.0, 0.5),
], ids=lambda record: type(record).__name__)
def test_slotted_records_have_no_dict(record):
    assert not hasattr(record, "__dict__")
