"""Fixed reference task that measures how fast this machine is right now.

The benchmark runs it as a child process right after every timed run of
the analyzer and reports the analyzer's wall time in units of this task's
wall time.  On a shared host the speed of allocation-heavy Python code
drifts by tens of percent over minutes; the task does the same kind of
work as the analyzer (CSV parsing, validated frozen records, grouping,
means and variances, sorting, formatting) with the stdlib alone, so the
ratio cancels most of that drift.  It never imports the analyzer: a change
to the program cannot move it.

Prints one line, ``reference ok <checksum>``.
"""

from __future__ import annotations

import csv
import io
import random
import statistics
from dataclasses import dataclass

ROWS = 30000
GROUPS = 200


@dataclass(frozen=True)
class Row:
    key: str
    cycle: float
    green: float
    count: int

    def __post_init__(self):
        if self.green > self.cycle or self.count < 0:
            raise ValueError(f"bad row {self}")


def main() -> None:
    rng = random.Random(12345)
    text = "\n".join(
        f"K{rng.randrange(GROUPS)},{rng.uniform(60, 180):.1f},{rng.uniform(10, 55):.1f},"
        f"{rng.randrange(50)}"
        for _ in range(ROWS))
    rows = [Row(key, float(cycle), float(green), int(count))
            for key, cycle, green, count in csv.reader(io.StringIO(text))]
    groups: dict[str, list[Row]] = {}
    for row in rows:
        groups.setdefault(row.key, []).append(row)
    summary = sorted(
        (key, statistics.fmean(r.cycle for r in members),
         statistics.variance([r.green for r in members]), sum(r.count for r in members))
        for key, members in groups.items())
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        (key, f"{mean:.3f}", f"{var:.3f}", total) for key, mean, var, total in summary)
    print(f"reference ok {sum(total for *_, total in summary)} {len(out.getvalue())}")


if __name__ == "__main__":
    main()
