"""Byte-for-byte comparison of CLI output against the committed snapshots."""

import builtins
import math

import pytest

from golden_cases import CASES, read_golden, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = read_golden(name)
    actual = run_case(name)
    assert sorted(actual) == sorted(expected)
    for filename in expected:
        assert actual[filename] == expected[filename], f"{name}/{filename} differs"


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` of Python 3.12 on: floats are added with
    Neumaier's compensation, anything else with ``+``."""
    total, compensation = start, 0.0
    for value in iterable:
        if type(value) is float and type(total) in (int, float):
            total = float(total)
            step = total + value
            if abs(total) >= abs(value):
                compensation += (total - step) + value
            else:
                compensation += (value - step) + total
            total = step
        else:
            total = total + value
    if type(total) is float and compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_output_does_not_depend_on_which_sum_python_has(monkeypatch):
    """Every float total is a ``math.fsum``, so a float-compensating
    builtin ``sum`` changes no byte of any snapshot."""
    assert compensated_sum([0.1] * 10) == 1.0  # a rounded running sum gives 0.999...
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    differing = []
    for name in sorted(CASES):
        actual, expected = run_case(name), read_golden(name)
        differing += [f"{name}/{filename}" for filename in sorted({*actual, *expected})
                      if actual.get(filename) != expected.get(filename)]
    assert differing == []
