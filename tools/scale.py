"""Wall time and peak RSS of ``analyze`` at growing row counts.

    python3 tools/scale.py
    python3 tools/scale.py --src parent=../parent/src --src change=src --rounds 5

Run from the repository root.  For each row count (``--rows``, default 10k,
100k and 1M) a child process writes ``report_long``-shaped inputs with
``bench/workloads.py`` (50 intersections x 4 approaches, ``rows // 200``
cycles each) in three orders: *grouped*, as the generator writes them,
*time*, the same rows stably sorted by timestamp, as a detector export
lists them, and *quoted*, the grouped cycle and approach files with every
field quoted (``csv.QUOTE_ALL``), as a spreadsheet may write them.
``analyze report``, ``variability`` and ``peak-hours`` then run on each, once
per round for each tree given by ``--src``, the trees alternating which goes
first.

Each run is started with ``os.posix_spawn`` and reaped with ``os.wait4``,
from this launcher, which holds none of the generated data and imports
little: a spawned child's peak RSS (``ru_maxrss``) starts at its parent's,
so the launcher's own peak, which the output records, must stay below a
child's.  Every timed run is followed by one run of ``bench/reference.py``,
and its wall time divided by the reference's is ``wall_rel``, as in the
benchmark, so rounds compare across host drift.  Every tree is
byte-compiled before the first run.

Every run must exit 0, and a tree's stdout and artifacts for a command must
be byte-identical in every round and for every order of a row count.  Each
run also records whether they are those of the first tree.  The runs and
their medians go to ``--out`` (default ``BENCH_scale.json``); the exit
status is 1 if a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REPO = TOOLS.parent
BENCH = REPO / "bench"

SEED = 301
ORDERS = ("grouped", "time", "quoted")
COMMANDS = ("report", "variability", "peak-hours")


def write_inputs(directory: str, rows: int, seed: int) -> None:
    """Write ``report_long``-shaped inputs of ``rows`` rows into
    ``directory/grouped``, the same rows, stably sorted by timestamp, into
    ``directory/time``, and the grouped files with every field quoted into
    ``directory/quoted``.  Run in a child of the launcher."""
    import csv
    import workloads

    grouped, time_ordered, quoted = (Path(directory, order) for order in ORDERS)
    shape = workloads.Shape(50, 4, rows // 200)
    inputs = workloads.generate(workloads.WORKLOADS["report_long"], seed, grouped, shape)
    time_ordered.mkdir()
    shutil.copy(inputs.approaches, time_ordered / inputs.approaches.name)
    header, *lines = inputs.cycles.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.sort(key=lambda line: int(line.rsplit(",", 1)[1]))
    (time_ordered / inputs.cycles.name).write_text(header + "".join(lines), encoding="utf-8")
    quoted.mkdir()
    for path in (inputs.cycles, inputs.approaches):
        with open(path, newline="", encoding="utf-8") as plain, \
                open(quoted / path.name, "w", newline="", encoding="utf-8") as out:
            csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
                csv.reader(plain))


def spawn(argv: list[str], cwd: Path, env: dict[str, str]) -> tuple[int, float, int]:
    """Run ``argv`` in ``cwd`` with stdout and stderr in files there; its
    exit code, wall seconds and peak RSS in kB."""
    actions = [(os.POSIX_SPAWN_OPEN, fd, str(cwd / name), os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644) for fd, name in ((1, "stdout.txt"), (2, "stderr.txt"))]
    previous = os.getcwd()
    os.chdir(cwd)  # posix_spawn has no working-directory argument before 3.13
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


def same_output(run_dir: Path, kept: Path) -> bool:
    """Whether a run's stdout and artifacts hold the bytes of those kept."""
    names = sorted(os.listdir(run_dir / "out"))
    return names == sorted(os.listdir(kept / "out")) and all(
        (run_dir / name).read_bytes() == (kept / name).read_bytes()
        for name in ["stdout.txt", *(os.path.join("out", name) for name in names)])


def env_for(*pythonpath: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)))
    env.pop("ANALYZER_CONFIG_DIR", None)
    return env


def parse_src(value: str) -> tuple[str, Path]:
    label, _, path = value.rpartition("=")
    path = Path(path).resolve()
    if not (path / "intersection_analyzer" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no intersection_analyzer package under {path}")
    return label or path.parent.name, path


def summarize(runs: list[dict]) -> list[dict]:
    import statistics  # only once every child has run: it adds to this process's RSS

    keys = sorted({(run["tree"], run["rows"], run["order"], run["command"]) for run in runs},
                  key=lambda key: (key[1], key[3], key[2], key[0]))
    summary = []
    for tree, rows, order, command in keys:
        own = [run for run in runs if (run["tree"], run["rows"], run["order"], run["command"])
               == (tree, rows, order, command)]
        walls = [run["wall_s"] for run in own]
        peaks = [run["peak_rss_mb"] for run in own]
        summary.append({
            "tree": tree, "rows": rows, "order": order, "command": command, "runs": len(own),
            "wall_s_median": round(statistics.median(walls), 3),
            "wall_s_range": [min(walls), max(walls)],
            "wall_rel_median": round(statistics.median(run["wall_rel"] for run in own), 3),
            "peak_rss_mb_median": round(statistics.median(peaks), 1),
            "peak_rss_mb_range": [min(peaks), max(peaks)],
            "same_as_first_tree": all(run["same_as_first_tree"] for run in own),
        })
    return summary


def timed(label: str, src: Path, rows: int, order: str, command: str, inputs: Path,
          work: Path, kept: dict, problems: list[str]) -> dict:
    """One timed run of ``command`` and the reference task after it.

    The first run of each tree, and of any tree, at a row count keeps its
    output in ``kept``; each later run is compared with those two."""
    run_dir = work / "run"
    run_dir.mkdir()
    try:
        argv = [sys.executable, "-m", "intersection_analyzer", command, "--out", "out",
                "--cycles", str(inputs / "cycles.csv"),
                "--approaches", str(inputs / "approaches.csv")]
        code, wall, peak_kb = spawn(argv, run_dir, env_for(src))
        if code != 0 or not (run_dir / "out").is_dir():
            problems.append(f"{label}: {command} at {rows} {order} rows exited {code}: "
                            f"{(run_dir / 'stderr.txt').read_text()[-500:]}")
            same_as_first_run = same_as_first_tree = False
        else:
            own, first = kept.get((label, rows, command)), kept.get((rows, command))
            same_as_first_run = own is None or same_output(run_dir, own)
            same_as_first_tree = first is None or same_output(run_dir, first)
            if not same_as_first_run:
                problems.append(f"{label}: {command} at {rows} rows: outputs differ between "
                                f"runs or row orders")
            if own is None:
                own = run_dir.rename(work / f"kept-{len(kept)}")
                kept[label, rows, command] = own
                kept.setdefault((rows, command), own)
        ref_code, ref_wall, _ = spawn([sys.executable, str(BENCH / "reference.py")], work,
                                      env_for())
        if ref_code != 0:
            problems.append(f"reference task exited {ref_code}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"tree": label, "rows": rows, "order": order, "command": command, "exit_code": code,
            "wall_s": round(wall, 4), "reference_s": round(ref_wall, 4),
            "wall_rel": round(wall / ref_wall, 4), "peak_rss_mb": round(peak_kb / 1024, 2),
            "same_as_first_run": same_as_first_run, "same_as_first_tree": same_as_first_tree}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", default="10000,100000,1000000",
                        help="comma-separated row counts, each a multiple of 200")
    parser.add_argument("--src", action="append", type=parse_src, metavar="[LABEL=]PATH",
                        help="a tree's src directory (repeatable; default: this repo's src)")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--out", type=Path, default=Path("BENCH_scale.json"))
    args = parser.parse_args(argv)
    sizes = [int(rows) for rows in args.rows.split(",")]
    if any(rows < 200 or rows % 200 for rows in sizes):
        parser.error("--rows must be multiples of 200")
    trees = dict(args.src or [parse_src(str(REPO / "src"))])

    runs: list[dict] = []
    problems: list[str] = []
    kept: dict = {}  # (tree, rows, command) and (rows, command) -> a kept run directory
    with tempfile.TemporaryDirectory(prefix="scale-") as work:
        work = Path(work)
        for path in trees.values():
            if spawn([sys.executable, "-m", "compileall", "-q", str(path)], work,
                     env_for())[0] != 0:
                raise SystemExit(f"could not byte-compile {path}")
        for rows in sizes:
            inputs = work / str(rows)
            inputs.mkdir()
            code, _, _ = spawn(
                [sys.executable, "-c", f"import scale; scale.write_inputs({str(inputs)!r}, "
                                       f"{rows}, {args.seed})"],
                work, env_for(TOOLS, BENCH))
            if code != 0:
                raise SystemExit(f"generating {rows} rows failed: "
                                 f"{(work / 'stderr.txt').read_text()}")
            for round_number in range(args.rounds):
                order = list(trees.items())
                if round_number % 2:
                    order.reverse()
                for files in ORDERS:
                    for command in COMMANDS:
                        for label, src in order:
                            runs.append(timed(label, src, rows, files, command,
                                              inputs / files, work, kept, problems))
            shutil.rmtree(inputs)
    launcher_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "tool": "tools/scale.py",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seed": args.seed,
        "rounds": args.rounds,
        "trees": list(trees),
        # A child's peak RSS is at least this: the launcher's own peak.
        "launcher_peak_rss_mb": round(launcher_kb / 1024, 1),
        "problems": problems,
        "summary": summarize(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for entry in report["summary"]:
        print(f"{entry['tree']:>10} {entry['rows']:>8} {entry['order']:>7} "
              f"{entry['command']:>11}  {entry['wall_s_median']:7.3f} s  "
              f"rel {entry['wall_rel_median']:6.3f}  {entry['peak_rss_mb_median']:6.1f} MB",
              file=sys.stderr)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
