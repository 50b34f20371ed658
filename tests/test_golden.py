"""Byte-for-byte comparison of CLI output against the committed snapshots."""

import pytest

from golden_cases import CASES, read_golden, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = read_golden(name)
    actual = run_case(name)
    assert sorted(actual) == sorted(expected)
    for filename in expected:
        assert actual[filename] == expected[filename], f"{name}/{filename} differs"
