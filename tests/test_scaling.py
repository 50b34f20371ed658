"""Row-scaling guard: the work that groups a table's rows after ingest runs
at C level, so the Python and C calls it makes do not grow with the rows.

Each check counts the ``call`` and ``c_call`` events ``sys.setprofile``
sees while one step runs over a table of R rows per approach and over one
of 4R, with the same approaches and the same time-of-day windows.  A
per-row Python loop, or a builtin called once per row from Python, makes
the counts differ by at least one call for each of the 2,700 extra rows;
C-level passes (``map``, ``sorted``, ``math.fsum``) count as one call each,
whatever their length.
"""

import sys

import pytest

from intersection_analyzer import cli
from intersection_analyzer.cli import main
from intersection_analyzer.model import CycleTable
from intersection_analyzer.pipeline import analyze_records
from intersection_analyzer.stats import window_cycle_lengths

from conftest import STUDY_APPROACHES, STUDY_CYCLES

ROWS = 100  # R rows per approach; the larger table has 4R
# Calls the two counts may differ by: none is known to, but a call made once
# per window or per approach depends on nothing else, and this leaves room.
SLACK = 10
MONDAY = 1704067200  # 2024-01-01 00:00 UTC


def table(rows_per_approach: int, approach_ids, grouped: bool) -> CycleTable:
    """Rows for each approach, grouped by approach or interleaved.  Row k of
    an approach falls on day k % 7, in window k % 26 of the half-hour
    windows from 08:00, so both sizes fill the same 7 x 26 windows."""
    keys = [(a, k) for a in approach_ids for k in range(rows_per_approach)]
    if not grouped:
        keys.sort(key=lambda key: key[1])
    n = len(keys)
    result = CycleTable()
    result.extend(
        [a for a, _ in keys], [150.0 + k % 5 for _, k in keys], [40.0] * n,
        [[k % 7 for _, k in keys], [2] * n, [3] * n, [1] * n, [k % 2 for _, k in keys]],
        [30.0 + k % 3 for _, k in keys], [20.0] * n,
        [MONDAY + k % 7 * 86400 + 28800 + k % 26 * 1800 + k % 97 for _, k in keys])
    return result


def calls(function, *args) -> int:
    """How many Python and C calls ``function(*args)`` makes, after a first
    call has filled caches (such as ``re``'s) and made lazy imports."""
    function(*args)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return count


@pytest.fixture(scope="module", params=[True, False], ids=["grouped", "interleaved"])
def tables(request, study_approaches):
    return [table(rows, list(study_approaches), request.param) for rows in (ROWS, 4 * ROWS)]


def test_windowing_calls_do_not_grow_with_the_rows(tables):
    small, large = (calls(window_cycle_lengths, t, 1800.0) for t in tables)
    assert abs(large - small) <= SLACK, (small, large)


def test_analysis_calls_do_not_grow_with_the_rows(tables, study_approaches, default_config):
    small, large = (calls(analyze_records, t, study_approaches, default_config)
                    for t in tables)
    assert abs(large - small) <= SLACK, (small, large)


def test_variability_calls_do_not_grow_with_the_rows(tables, study_approaches, tmp_path,
                                                     monkeypatch, capsys):
    # Everything after ingest: the samples, their tests and summaries, and
    # the artifacts, which hold one line per approach or pair.
    monkeypatch.setattr(cli, "_load_approaches", lambda args: study_approaches)
    counts = []
    for t in tables:
        monkeypatch.setattr(cli, "_load_records", lambda args, approaches, t=t: t)
        counts.append(calls(main, ["variability", "--cycles", str(STUDY_CYCLES),
                                   "--approaches", str(STUDY_APPROACHES),
                                   "--out", str(tmp_path)]))
    small, large = counts
    assert abs(large - small) <= SLACK, (small, large)
