import copy
import pickle

import pytest

from intersection_analyzer import (
    ApproachConfig,
    ClassifiedCount,
    Directionality,
    SignalCycleRecord,
    VehicleClass,
)
from intersection_analyzer.errors import InvariantViolation
from intersection_analyzer.model import _frozen
from intersection_analyzer.stats import SampleSummary


def make_counts(**kwargs):
    counts = {VehicleClass(k): v for k, v in kwargs.items()}
    return ClassifiedCount("A1", counts)


def test_missing_classes_default_to_zero():
    c = make_counts(car=3)
    assert c.counts[VehicleClass.BUS] == 0
    assert c.total() == 3
    assert len(c.counts) == 5


def test_negative_count_rejected():
    with pytest.raises(InvariantViolation):
        make_counts(car=-1)
    with pytest.raises(InvariantViolation, match="exceeds"):
        make_counts(car=2**63)


def test_non_integer_count_rejected():
    with pytest.raises(InvariantViolation):
        make_counts(car=1.5)


def test_counts_mapping_is_read_only():
    c = make_counts(car=3)
    with pytest.raises(TypeError):
        c.counts[VehicleClass.CAR] = 9


def test_cycle_timing_invariant():
    counts = ClassifiedCount("A1", {})
    SignalCycleRecord("A1", 152.0, 120.0, 32.0, counts)  # red + green == cycle is fine
    with pytest.raises(InvariantViolation):
        SignalCycleRecord("A1", 152.0, 140.0, 30.0, counts)


def test_effective_green_bounded_by_green():
    counts = ClassifiedCount("A1", {})
    record = SignalCycleRecord("A1", 152.0, 120.0, 32.0, counts, effective_green=24.0)
    assert record.effective_green == 24.0
    with pytest.raises(InvariantViolation):
        SignalCycleRecord("A1", 152.0, 120.0, 32.0, counts, effective_green=33.0)


def test_nonpositive_cycle_rejected():
    counts = ClassifiedCount("A1", {})
    with pytest.raises(InvariantViolation):
        SignalCycleRecord("A1", 0.0, 0.0, 0.0, counts)


def test_counts_approach_must_match_record():
    counts = ClassifiedCount("B9", {})
    with pytest.raises(InvariantViolation):
        SignalCycleRecord("A1", 100.0, 50.0, 40.0, counts)


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
                                    ClassifiedCount("A1", {})],
                         ids=lambda record: type(record).__name__)
def test_a_record_copies_and_pickles(record):
    assert copy.copy(record) == record
    if type(record) is not ClassifiedCount:  # its counts are a mappingproxy, which never pickles
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
    ClassifiedCount("A1", {}),
    SignalCycleRecord("A1", 100.0, 50.0, 40.0, ClassifiedCount("A1", {})),
    SampleSummary(2, 1.0, 0.5),
], ids=lambda record: type(record).__name__)
def test_slotted_records_have_no_dict(record):
    assert not hasattr(record, "__dict__")
