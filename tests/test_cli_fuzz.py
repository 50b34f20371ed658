"""Fuzz the command line: mutated CSVs, config JSON and flag values must end
in exit 0 or in a typed error with its JSON record, never a traceback, whose
row, if any, is a line of the input it names, and a failed run must leave an
earlier run's artifacts as they were."""

import contextlib
import io
import json
import math
import string
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from intersection_analyzer import cli, ingest_approaches
from intersection_analyzer.cli import main
from intersection_analyzer.errors import AnalyzerError

from conftest import (
    FIXTURES,
    SPREAD_APPROACHES,
    SPREAD_CYCLES,
    STUDY_APPROACHES,
    STUDY_CYCLES,
    WEEK_APPROACHES,
    WEEK_CYCLES,
)
from test_config import declared_objects
from test_errors import EXIT_CODES

INPUTS = [(STUDY_CYCLES, STUDY_APPROACHES), (SPREAD_CYCLES, SPREAD_APPROACHES),
          (WEEK_CYCLES, WEEK_APPROACHES)]
CONFIGS = [FIXTURES / "vehicles_config.json",
           Path(cli.__file__).parent / "data" / "default_config.json"]
EARLIER_RUN = [*cli.ARTIFACTS, cli.WINDOWED, "pvalues.csv", "boxplot.csv",
               "inflow_comparison.csv"]

MUTATION_BYTES = b',"\n\r-.019ex \xff\x00'
EDIT_COUNTS = st.sampled_from([0, 0, 0, 1, 2, 3])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after a few edits of the lines below its first and of its
    bytes, often none."""
    lines = data.splitlines(keepends=True)
    for _ in range(draw(EDIT_COUNTS) if len(lines) > 1 else 0):
        at = draw(st.integers(1, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "swap"]))
        if edit == "drop":
            del lines[at]
            if len(lines) == 1:
                break
        elif edit == "repeat":
            lines.insert(at, lines[at])
        else:
            lines[1], lines[at] = lines[at], lines[1]
    data = bytearray(b"".join(lines))
    for _ in range(draw(EDIT_COUNTS)):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(MUTATION_BYTES))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or at == len(data):
            data.insert(at, byte)
        elif edit == "replace":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


@st.composite
def config_text(draw) -> bytes:
    """A shipped config with one section replaced, or with its bytes mutated."""
    base = draw(st.sampled_from(CONFIGS)).read_bytes()
    if draw(st.booleans()):
        return draw(mutated(base))
    config = json.loads(base)
    config[draw(st.sampled_from(sorted(config)))] = draw(json_values)
    return json.dumps(config).encode()


@st.composite
def runs(draw):
    """One command line, and the bytes of the files it names."""
    command = draw(st.sampled_from(sorted(cli.SUBCOMMANDS)))
    spec = cli.SUBCOMMANDS[command]
    cycles, approaches = draw(st.sampled_from(INPUTS))
    files = {}
    argv = [command]
    for flag in spec.flags:
        if flag in spec.optional and draw(st.booleans()):
            continue
        if flag in ("delay", "vc"):
            for value in draw(st.lists(st.floats(), max_size=2)):
                argv += [f"--{flag}", repr(value)]
            continue
        if flag == "config" and draw(st.booleans()):
            continue
        value = "{" + flag + "}"  # a path, filled in by the test, unless set below
        if flag == "cycles":
            files[flag] = draw(mutated(cycles.read_bytes()))
        elif flag == "approaches":
            files[flag] = draw(mutated(approaches.read_bytes()))
        elif flag == "config":
            files[flag] = draw(config_text())
        elif flag == "window":
            value = repr(draw(st.floats(min_value=60)))
        elif flag == "span":
            value = str(draw(st.integers(1, 8)))
        elif flag in ("policy", "format", "day"):
            value = draw(st.sampled_from(cli.FLAGS[flag]["choices"]))
        argv += [f"--{flag}", value]
    return argv, files


def snapshot(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_every_run_ends_in_success_or_a_typed_error_record(run):
    argv, files = run
    with tempfile.TemporaryDirectory() as work:
        paths = {"out": Path(work) / "out"}
        paths["out"].mkdir()
        for name in EARLIER_RUN:
            (paths["out"] / name).write_text(f"earlier run: {name}\n")
        before = snapshot(paths["out"])
        for flag, data in files.items():
            paths[flag] = Path(work) / flag
            paths[flag].write_bytes(data)
        argv = [word.format(**paths) for word in argv]

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)

        assert code in (0, 2, 3, 4)
        if code:
            record = json.loads(stderr.getvalue().splitlines()[-1])
            assert record["error"] in EXIT_CODES
            assert record["exit_code"] == code == EXIT_CODES[record["error"]]
            assert snapshot(paths["out"]) == before
            if record["row"] is not None:
                assert 1 <= record["row"] <= line_count(paths[source_of_rows(paths)])


def source_of_rows(paths: dict[str, Path]) -> str:
    """The input a run's row number refers to: the approach file, which is
    read before the cycle file, if it has a bad row, else the cycle file."""
    if "approaches" in paths:
        try:
            with open(paths["approaches"], encoding="utf-8-sig", newline="") as handle:
                ingest_approaches(handle)
        except AnalyzerError:
            return "approaches"
    return "cycles"


def line_count(path: Path) -> int:
    with open(path, encoding="utf-8", errors="replace", newline="") as handle:
        return sum(1 for _ in handle)


SHIPPED_CONFIG = json.loads(CONFIGS[1].read_text())  # default_config.json
# Extremes for one numeric leaf of a config; 10**400 fits no double.
EXTREMES = [1e308, -1e308, 5e-324, 0, -0.0, 2**63, 10**400]


def numeric_leaves(value, path=()):
    """The paths of the numbers in a JSON value, booleans apart."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numeric_leaves(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from numeric_leaves(item, (*path, index))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


LEAVES = list(numeric_leaves(SHIPPED_CONFIG))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(LEAVES), st.sampled_from(EXTREMES),
       st.sampled_from(["pcu", "vehicles"]))
def test_an_extreme_config_leaf_ends_in_finite_figures_or_a_typed_error(leaf, value, unit):
    config = json.loads(json.dumps(SHIPPED_CONFIG))
    config["counts_unit"] = unit
    parent = config
    for key in leaf[:-1]:
        parent = parent[key]
    parent[leaf[-1]] = value
    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work) / "config.json", Path(work) / "out"
        path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["report", "--cycles", str(STUDY_CYCLES), "--approaches",
                         str(STUDY_APPROACHES), "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in stdout.getvalue() + stderr.getvalue()
        if code:
            record = json.loads(stderr.getvalue().splitlines()[-1])
            assert record["exit_code"] == code == EXIT_CODES[record["error"]]
            return
        for artifact in out.iterdir():
            text = artifact.read_text()
            if artifact.suffix == ".csv":
                cells = [cell for line in text.splitlines()[2:] for cell in line.split(",")]
            else:
                cells = text.replace(",", " ").split()
            for cell in cells:
                try:
                    number = float(cell.strip("%:;()[]"))
                except ValueError:
                    continue
                assert math.isfinite(number), (artifact.name, cell)


DECLARED_OBJECTS = [path for path, _ in declared_objects(SHIPPED_CONFIG)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(DECLARED_OBJECTS),
       st.text(string.ascii_letters + string.digits + "_ .-", min_size=1, max_size=8),
       json_values)
def test_an_undeclared_key_in_a_declared_object_is_a_config_error_naming_it(at, key, value):
    config = json.loads(json.dumps(SHIPPED_CONFIG))
    parent = config
    for step in at:
        parent = parent[step]
    assume(key not in parent and not key.startswith("_"))  # a "_" key is a note
    parent[key] = value
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["los", "--delay", "5", "--config", str(path)])
    record = json.loads(stderr.getvalue())
    assert (code, record["error"], record["exit_code"]) == (2, "ConfigError", 2)
    steps = (*at, key)
    label = "".join(f"[{step}]" if type(step) is int else f".{step}" for step in steps)[1:]
    assert record["message"] == (
        f"invalid configuration: section {steps[0]!r}: unknown key {label!r}")
