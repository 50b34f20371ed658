"""Benchmark of the ``analyze`` command line, end to end and layer by layer.

    python3 bench/run.py --workload report_long --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 0

Run from the repository root.  The workloads, and why each exists, are
listed in BENCHMARK.json; their inputs are generated from ``--seed`` by
``workloads.py`` into ``bench/.work/`` and removed afterwards.

``--trace 0`` is a closed loop with one client: one
``python -m intersection_analyzer`` child at a time, the next started when
the previous exits, until ``--seconds`` have passed.  Each timed child is
followed by one set-up child and one run of the fixed reference task of
``reference.py``.  It reports

- ``wall_rel``: median over timed runs of the child's wall time (spawn to
  exit) divided by the wall time of the reference task run right after it.
  Raw seconds drift by up to half between minutes on a shared host; the
  ratio stays within a few percent.  Raw ``wall_s`` is printed to stderr;
- ``rows_per_ref``: cycle rows in the input divided by ``wall_rel``;
- ``peak_rss_mb``: median over runs of the child's peak resident memory;
- ``setup_s``: median wall time of ``analyze los --delay 1`` with the
  workload's config (interpreter start, imports, argparse, config load);
- ``success_rate``: 1 - failed/attempted.  The error rate itself is
  ``failed/attempted`` of the result line; it is reported inverted so the
  metric is never 0.

``--trace 1`` runs ``cli.main(argv)`` in this process, once untraced and
once with the wrappers of ``tracing.py`` installed, and reports the
per-layer metrics of ``tracing.METRICS``; the spans of the last traced run
are written to ``bench/.work/spans-<workload>.json``.

Every run is checked: the exit code, the artifact set, the SHA-256 of the
artifacts (identical across runs; PYTHONHASHSEED is left unpinned, so this
also checks determinism across hash seeds) and workload-specific counts.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a human-readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads
from workloads import Inputs, Shape, Workload

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
PACKAGE = "intersection_analyzer"
WORK_DIR = BENCH_DIR / ".work"

# A run must end within 180 s; children still running at this point are killed.
RUN_DEADLINE_S = 170.0
MIN_SETUP_RUNS = 5

END_TO_END = {"wall_rel": "ref", "rows_per_ref": "rows/ref", "peak_rss_mb": "MB",
              "setup_s": "s", "success_rate": "ratio"}
REPORT_ARTIFACTS = frozenset({
    "flow.csv", "saturation.csv", "composition.csv", "green.csv",
    "green_series.csv", "delay_los.csv", "intersections.csv", "emissions.csv",
    "emissions_summary.csv", "summary.txt", "windowed.csv",
})
VARIABILITY_ARTIFACTS = frozenset({"pvalues.csv", "boxplot.csv", "inflow_comparison.csv"})
VALIDATE_SUMMARY = re.compile(r"^(\d+) valid record\(s\), (\d+) problem\(s\)$", re.M)


@dataclass
class Outcome:
    """One invocation of the analyzer and what its checks found."""

    exit_code: int
    wall_s: float
    stdout: str
    peak_rss_kb: int = 0
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    """Environment of an analyzer child: the working tree's sources, no
    config-directory fallback, and a fresh hash seed per process."""
    env = dict(os.environ)
    env.pop("ANALYZER_CONFIG_DIR", None)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], work: Path, deadline: float) -> Outcome:
    """Run ``python -m intersection_analyzer argv`` and wait for it with wait4.

    ``RUSAGE_CHILDREN`` is a running maximum over every child so far, so the
    peak RSS of this one child is read from its own wait4 rusage.
    """
    stdout_path = work / "stdout.txt"
    with open(stdout_path, "wb") as stdout, open(work / "stderr.txt", "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", PACKAGE, *argv], cwd=work,
                                env=child_env(), stdout=stdout, stderr=stderr)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, stdout_path.read_text(encoding="utf-8"),
                   usage.ru_maxrss)


def call_in_process(main, argv: list[str]) -> Outcome:
    """Call ``main(argv)`` here, capturing what it prints.

    A crash is the program's failure, not the benchmark's: it is recorded
    as a failed run with its traceback.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code if isinstance(exit.code, int) else 1
        except Exception:
            code, crash = -1, traceback.format_exc()
        wall = time.perf_counter() - start
    outcome = Outcome(code, wall, stdout.getvalue())
    if crash:
        outcome.problems.append(f"crashed: {crash}")
    return outcome


def analyzer_argv(workload: Workload, inputs: Inputs, out_dir: Path) -> list[str]:
    argv = [workload.subcommand, "--cycles", str(inputs.cycles),
            "--approaches", str(inputs.approaches)]
    if inputs.config is not None:
        argv += ["--config", str(inputs.config)]
    if workload.subcommand != "validate":
        argv += ["--out", str(out_dir)]
    return argv


def setup_argv(inputs: Inputs) -> list[str]:
    argv = ["los", "--delay", "1"]
    if inputs.config is not None:
        argv += ["--config", str(inputs.config)]
    return argv


# --- output checks -----------------------------------------------------------

def read_csv_rows(path: Path) -> list[list[str]]:
    """Data rows of an emitted CSV: the schema comment and header skipped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[2:] if line]


def artifact_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def check(workload: Workload, inputs: Inputs, outcome: Outcome, out_dir: Path) -> str | None:
    """Check one run's outputs; return a digest of them, comparable across runs."""
    try:
        return _check(workload, inputs, outcome, out_dir)
    except (OSError, ValueError, IndexError) as err:
        outcome.problems.append(f"unreadable output: {err!r}")
        return None


def _check(workload: Workload, inputs: Inputs, outcome: Outcome, out_dir: Path) -> str | None:
    problems = outcome.problems
    expected_code = 2 if any(inputs.bad_rows.values()) else 0
    if outcome.exit_code != expected_code:
        problems.append(f"exit code {outcome.exit_code}, expected {expected_code}")
        return None

    if workload.subcommand == "validate":
        found = VALIDATE_SUMMARY.search(outcome.stdout)
        bad = sum(inputs.bad_rows.values())
        if bad and (found is None or (int(found[1]), int(found[2])) != (inputs.valid_rows, bad)):
            problems.append(f"validate summary {found and found[0]!r}, expected "
                            f"{inputs.valid_rows} valid and {bad} problems")
        return hashlib.sha256(outcome.stdout.encode()).hexdigest()

    expected = REPORT_ARTIFACTS if workload.subcommand == "report" else VARIABILITY_ARTIFACTS
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if present != expected:
        problems.append(f"artifacts {sorted(present)}, expected {sorted(expected)}")
        return None

    intersections, approaches = inputs.intersection_count, inputs.approach_count
    if workload.subcommand == "variability":
        per_intersection = approaches // intersections
        expected_rows = {
            "pvalues.csv": intersections * per_intersection * (per_intersection - 1) // 2,
            "boxplot.csv": approaches + intersections,
            "inflow_comparison.csv": intersections * (intersections - 1) // 2,
        }
        for name, count in expected_rows.items():
            rows = len(read_csv_rows(out_dir / name))
            if rows != count:
                problems.append(f"{name}: {rows} rows, expected {count}")
        return artifact_digest(out_dir)

    flow = read_csv_rows(out_dir / "flow.csv")
    if len(flow) != approaches:
        problems.append(f"flow.csv: {len(flow)} rows, expected {approaches}")
    if workload.counts_unit == "pcu":
        # Mean PCU per cycle over mean cycle length, recomputed from the generator's sums.
        for row in flow:
            count_sum, cycle_sum = inputs.pcu_and_cycle_sums.get(row[0], (0, 1.0))
            expected_volume = count_sum * 3600.0 / cycle_sum
            if abs(int(row[5]) - expected_volume) > 1.0:
                problems.append(f"flow.csv {row[0]}: volume {row[5]}, "
                                f"expected {expected_volume:.1f}")
                break
        samples = sum(int(row[3]) for row in read_csv_rows(out_dir / "windowed.csv"))
        if samples != inputs.in_day_timestamps:
            problems.append(f"windowed.csv: {samples} samples, "
                            f"expected {inputs.in_day_timestamps}")
    return artifact_digest(out_dir)


# --- measurement ---------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    digest: str | None = None
    problems: list[str] = field(default_factory=list)

    def record(self, outcome: Outcome, digest: str | None = None, compare: bool = True) -> None:
        self.attempted += 1
        if compare and not outcome.problems:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                outcome.problems.append("outputs differ from the first run's")
        if outcome.problems:
            self.failed += 1
            self.problems.extend(outcome.problems)


def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    return path


def reference_wall(work: Path, deadline: float) -> float:
    """Wall time of one run of the fixed reference task (see reference.py)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(BENCH_DIR / "reference.py")], cwd=work,
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    wall = time.perf_counter() - start
    if done.returncode != 0 or not done.stdout.startswith("reference ok"):
        raise RuntimeError(f"reference task failed: {done.stderr[-500:]}")
    return wall


def measure_end_to_end(workload: Workload, inputs: Inputs, work: Path,
                       seconds: float, deadline: float, tally: Tally) -> dict[str, float]:
    """Cycle through a timed run, a set-up run and a reference run until
    ``seconds`` have passed.

    Each timed run is divided by the reference run that follows it, so a
    slow spell of the machine weighs on both sides of the ratio alike.
    """
    walls, ratios, rss, setup_times = [], [], [], []

    def set_up_once():
        outcome = spawn(setup_argv(inputs), work, deadline)
        if outcome.exit_code != 0 or not outcome.stdout.startswith("delay 1 s:"):
            outcome.problems.append(f"set-up run: exit {outcome.exit_code}, "
                                    f"stdout {outcome.stdout[:80]!r}")
        tally.record(outcome, compare=False)
        setup_times.append(outcome.wall_s)

    start = time.monotonic()
    while not walls or (time.monotonic() - start < seconds and time.monotonic() < deadline):
        out_dir = fresh_dir(work, "out")
        outcome = spawn(analyzer_argv(workload, inputs, out_dir), work, deadline)
        tally.record(outcome, check(workload, inputs, outcome, out_dir))
        walls.append(outcome.wall_s)
        rss.append(outcome.peak_rss_kb / 1024.0)
        set_up_once()
        ratios.append(outcome.wall_s / reference_wall(work, deadline))
    while len(setup_times) < MIN_SETUP_RUNS and time.monotonic() < deadline:
        set_up_once()

    wall = statistics.median(walls)
    wall_rel = statistics.median(ratios)
    print(f"  {len(walls)} timed run(s), {len(setup_times)} set-up run(s)\n"
          f"  wall_s {' '.join(f'{w:.3f}' for w in walls)}\n"
          f"  wall_rel {' '.join(f'{r:.3f}' for r in ratios)}\n"
          f"  raw: wall_s {wall:.4f} s, rows_per_s {inputs.rows / wall:.1f} rows/s", file=sys.stderr)
    return {
        "wall_rel": wall_rel,
        "rows_per_ref": inputs.rows / wall_rel,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup_times),
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }


def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("ANALYZER_CONFIG_DIR", None)
    import intersection_analyzer.cli as cli
    return cli


def measure_layers(workload: Workload, inputs: Inputs, work: Path,
                   seconds: float, tally: Tally) -> dict[str, float]:
    cli = import_cli()
    runs: list[dict[str, float]] = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        out_dir = fresh_dir(work, "out")
        argv = analyzer_argv(workload, inputs, out_dir)
        plain = call_in_process(cli.main, argv)
        tally.record(plain, check(workload, inputs, plain, out_dir))

        out_dir = fresh_dir(work, "out")
        argv = analyzer_argv(workload, inputs, out_dir)
        tracer = tracing.Tracer(PACKAGE)
        tracer.install()
        try:
            traced = call_in_process(tracer.span(tracing.ROOT, cli.main), argv)
        finally:
            tracer.uninstall()
        tally.record(traced, check(workload, inputs, traced, out_dir))
        runs.append(tracer.metrics(plain.wall_s))

    tracer.write(WORK_DIR / f"spans-{workload.name}.json")
    if tracer.absent:
        print(f"  absent layers (reported as 0): {', '.join(tracer.absent)}", file=sys.stderr)
    print(f"  {len(runs)} traced run(s), {len(tracer.spans)} spans in the last", file=sys.stderr)
    return {name: statistics.median(run[name] for run in runs) for name in tracing.METRICS}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 shape: Shape | None = None) -> dict:
    """Generate the workload's inputs, measure it and return the result object."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK_DIR))
    try:
        inputs = workloads.generate(workload, seed, work / "inputs", shape)
        tally = Tally()
        print(f"{workload.name} seed {seed}: {inputs.rows} rows, {inputs.approach_count} "
              f"approaches, {inputs.intersection_count} intersections"
              + (f", bad rows injected {inputs.bad_rows}" if inputs.bad_rows else ""),
              file=sys.stderr)
        if trace:
            values = measure_layers(workload, inputs, work, seconds, tally)
            units = tracing.METRICS
        else:
            values = measure_end_to_end(workload, inputs, work, seconds, deadline, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in dict.fromkeys(tally.problems):
        print(f"  FAILED CHECK: {problem}", file=sys.stderr)
    print(f"  error_rate {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:28s} {value:>16.6f} {units[name]}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / PACKAGE / "__main__.py").is_file():
        print(f"error: the analyzer sources are missing: {SRC / PACKAGE}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    else:
        results = {name: run_workload(workload, args.seed, args.seconds, bool(args.trace))
                   for name, workload in workloads.WORKLOADS.items()}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
