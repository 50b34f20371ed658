import pytest

from intersection_analyzer import (
    ApproachConfig,
    ClassifiedCount,
    Directionality,
    SignalCycleRecord,
    VehicleClass,
)
from intersection_analyzer.errors import InvariantViolation


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
