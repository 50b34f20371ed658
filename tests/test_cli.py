import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from intersection_analyzer import CycleTable, cli, ingest_approaches, scan_cycles, stats
from intersection_analyzer.cli import main
from intersection_analyzer.errors import InvariantViolation
from intersection_analyzer.stats import z_test

from conftest import (
    FIXTURES,
    SPREAD_APPROACHES,
    SPREAD_CYCLES,
    STUDY_APPROACHES,
    STUDY_CYCLES,
    WEEK_APPROACHES,
    WEEK_CYCLES,
)

STUDY = ["--cycles", str(STUDY_CYCLES), "--approaches", str(STUDY_APPROACHES)]
WEEK = ["--cycles", str(WEEK_CYCLES), "--approaches", str(WEEK_APPROACHES)]

REPORT_FILES = {
    "flow.csv", "saturation.csv", "composition.csv", "green.csv",
    "green_series.csv", "delay_los.csv", "intersections.csv",
    "emissions.csv", "emissions_summary.csv", "summary.txt",
}


def read(path: Path) -> str:
    return path.read_text()


def test_validate_ok(capsys):
    assert main(["validate", "--cycles", str(STUDY_CYCLES),
                 "--approaches", str(STUDY_APPROACHES)]) == 0
    assert "OK: 9 record(s)" in capsys.readouterr().out


def test_validate_reports_every_bad_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "approach_id,cycle_length_s,red_s,green_s,car\n"
        "SR1,152,120,32,3\n"
        "SR1,152,140,30,3\n"
        "SR1,152,120,32,-1\n")
    code = main(["validate", "--cycles", str(bad),
                 "--approaches", str(STUDY_APPROACHES)])
    captured = capsys.readouterr()
    assert code == 2
    assert "row 3" in captured.out
    assert "row 4" in captured.out
    assert "1 valid record(s), 2 problem(s)" in captured.out
    record = json.loads(captured.err)
    assert record["exit_code"] == 2
    assert record["subcommand"] == "validate"


def test_validate_counts_rows_without_building_a_table(monkeypatch, capsys):
    dirty = FIXTURES / "dirty_cycles.csv"
    with open(STUDY_APPROACHES, newline="") as handle:
        approaches = ingest_approaches(handle)
    with open(dirty, newline="") as handle:
        table, errors = scan_cycles(handle, approaches)
    expected = [f"{type(err).__name__}: {err}" for err in errors]
    expected.append(f"{len(table)} valid record(s), {len(errors)} problem(s)")

    def refuse(*args):
        raise AssertionError("validate built a table")

    monkeypatch.setattr(CycleTable, "extend", refuse)
    code = main(["validate", "--cycles", str(dirty), "--approaches", str(STUDY_APPROACHES)])
    captured = capsys.readouterr()
    assert code == 2 and len(table) == 2
    assert captured.out.splitlines() == expected
    assert json.loads(captured.err)["message"] == str(errors[0])


def test_peak_hours_finds_midday_window(capsys):
    assert main(["peak-hours", "--cycles", str(WEEK_CYCLES),
                 "--window", "1800", "--span", "4", "--day", "weekday"]) == 0
    assert "peak window: 11:00-13:00" in capsys.readouterr().out


def test_peak_hours_writes_windowed_csv(tmp_path, capsys):
    assert main(["peak-hours", "--cycles", str(WEEK_CYCLES), "--day", "weekday",
                 "--out", str(tmp_path)]) == 0
    windowed = read(tmp_path / "windowed.csv")
    assert windowed.startswith("# schema: intersection-analyzer/windowed-cycle-lengths v1\n")
    assert "11:00" in windowed


def test_variability_outputs(tmp_path, capsys):
    assert main(["variability", *WEEK, "--out", str(tmp_path)]) == 0
    pvalues = read(tmp_path / "pvalues.csv")
    assert "NX,N2,N1" in pvalues
    boxplot = read(tmp_path / "boxplot.csv")
    # schema line + header + two approaches + one pooled intersection group
    assert boxplot.count("\n") == 5
    assert "NX," in boxplot


def test_variability_does_not_depend_on_how_rows_are_grouped(tmp_path, capsys):
    # The week's N1 and N2 rows alternate; sorted by approach, each
    # approach's rows are contiguous and its sample is a slice of them.
    header, *rows = WEEK_CYCLES.read_text().splitlines(keepends=True)
    assert [row[:2] for row in rows[:3]] == ["N1", "N2", "N1"]
    grouped = tmp_path / "grouped.csv"
    grouped.write_text(header + "".join(sorted(rows, key=lambda row: row.split(",")[0])))
    outputs = []
    for cycles in (WEEK_CYCLES, grouped):
        out = tmp_path / cycles.stem
        assert main(["variability", "--cycles", str(cycles),
                     "--approaches", str(WEEK_APPROACHES), "--out", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] and len(outputs[0]) == 2


def test_variability_needs_repeated_cycles(tmp_path, capsys):
    code = main(["variability", *STUDY, "--out", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "InputError"
    assert record["message"].endswith("got 1 and 1")


def test_flow_artifacts(tmp_path, capsys):
    assert main(["flow", *STUDY, "--out", str(tmp_path)]) == 0
    flow = read(tmp_path / "flow.csv")
    assert "SR2,SSC,2,oneway,2400,1918,0.80" in flow
    saturation = read(tmp_path / "saturation.csv")
    assert "SR1,SSC,10.5,24,48,7200,5513,1688" in saturation


def test_green_artifacts(tmp_path, capsys):
    assert main(["green", *STUDY, "--out", str(tmp_path)]) == 0
    green = read(tmp_path / "green.csv")
    assert "TR2,THC,40,0.3361,67,0.60,0.125" in green
    series = read(tmp_path / "green_series.csv")
    assert "SR4,45,89" in series


def test_delay_artifacts(tmp_path, capsys):
    assert main(["delay", *STUDY, "--out", str(tmp_path)]) == 0
    delay = read(tmp_path / "delay_los.csv")
    assert "SR1,SSC,152,32,0.34,0.4533,50.24,0,D,C,A" in delay
    intersections = read(tmp_path / "intersections.csv")
    assert "SSC,all,5,56.08,E,C" in intersections
    assert "THC,major,2,35.77,D,B" in intersections


def test_emissions_artifacts(tmp_path, capsys):
    assert main(["emissions", *STUDY, "--out", str(tmp_path)]) == 0
    emissions = read(tmp_path / "emissions.csv")
    assert "SSC,56.08,9.42,6.56,24.63,21.21,17.32,58.91,97.45" in emissions
    summary = read(tmp_path / "emissions_summary.csv")
    assert "study_intersections,161.66" in summary
    assert "city,370.00,4.81,13,configured_rate" in summary


def test_los_subcommand(capsys):
    assert main(["los", "--delay", "56", "--delay", "36",
                 "--vc", "0.73", "--vc", "0.84"]) == 0
    out = capsys.readouterr().out
    assert "delay 56 s: delay_hcm=E delay_heterogeneous=C" in out
    assert "delay 36 s: delay_hcm=D delay_heterogeneous=B" in out
    assert "vc 0.73: vc_ratio=C" in out
    assert "vc 0.84: vc_ratio=D" in out


def test_los_without_values_errors(capsys):
    assert main(["los"]) == 2


def test_report_writes_all_families(tmp_path, capsys):
    assert main(["report", *STUDY, "--out", str(tmp_path)]) == 0
    assert {p.name for p in tmp_path.iterdir()} == REPORT_FILES
    summary = read(tmp_path / "summary.txt")
    assert "Citywide (configured rate): 370.00 kg CO2/h, 4.81 t/day" in summary


def test_report_includes_windowed_when_timestamps_present(tmp_path, capsys):
    assert main(["report", *WEEK, "--out", str(tmp_path), "--day", "weekday"]) == 0
    assert (tmp_path / "windowed.csv").exists()


def test_report_reruns_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["report", *STUDY, "--out", str(first)]) == 0
    assert main(["report", *STUDY, "--out", str(second)]) == 0
    for name in REPORT_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["flow", "--cycles", str(tmp_path / "nope.csv"),
                 "--approaches", str(STUDY_APPROACHES), "--out", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "InputError"


def test_empty_cycles_is_no_data(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("approach_id,cycle_length_s,red_s,green_s,car\n")
    code = main(["report", "--cycles", str(empty),
                 "--approaches", str(STUDY_APPROACHES), "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InputError"


def test_saturated_regime_exits_3(tmp_path, capsys):
    cycles = tmp_path / "saturated.csv"
    cycles.write_text(
        "approach_id,cycle_length_s,red_s,green_s,car\n"
        "SR1,100,0,100,4000\n")
    code = main(["delay", "--cycles", str(cycles),
                 "--approaches", str(STUDY_APPROACHES), "--out", str(tmp_path)])
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SaturatedRegime"
    assert record["exit_code"] == 3


def test_a_saturation_flow_past_1e28_prints_every_digit(tmp_path, capsys):
    cycles = tmp_path / "cycles.csv"
    cycles.write_text(
        "approach_id,cycle_length_s,red_s,green_s,car,effective_green_s,exited_pcu\n"
        "SR1,152,120,32,3,1e-20,1000000\n")
    out = tmp_path / "out"
    assert main(["flow", "--cycles", str(cycles), "--approaches", str(STUDY_APPROACHES),
                 "--out", str(out)]) == 0
    row = read(out / "saturation.csv").splitlines()[2].split(",")
    # 3.6e29 PCU/h, printed as the integer value of the double
    assert row[5] == row[7] == "360000000000000046564961681408"


def test_a_non_finite_saturation_flow_is_an_input_error(tmp_path, capsys):
    cycles = tmp_path / "cycles.csv"
    cycles.write_text(
        "approach_id,cycle_length_s,red_s,green_s,car,effective_green_s,exited_pcu\n"
        "SR1,152,120,32,3,1e-20,1e300\n")
    out = tmp_path / "out"
    code = main(["flow", "--cycles", str(cycles), "--approaches", str(STUDY_APPROACHES),
                 "--out", str(out)])
    record = json.loads(capsys.readouterr().err)
    assert code == 2
    assert (record["error"], record["subcommand"]) == ("InputError", "flow")
    assert "1e+300" in record["message"] and "1e-20" in record["message"]
    assert not out.exists()


def test_write_failure_exits_4(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["flow", *STUDY, "--out", str(blocker)])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "IoFailure"


def test_failed_run_leaves_existing_outputs_untouched(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["flow", *STUDY, "--out", str(out)]) == 0
    before = read(out / "flow.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("approach_id,cycle_length_s,red_s,green_s,car\nZZ9,100,50,40,1\n")
    code = main(["flow", "--cycles", str(bad),
                 "--approaches", str(STUDY_APPROACHES), "--out", str(out)])
    assert code == 2
    assert read(out / "flow.csv") == before
    assert not list(out.glob("*.tmp"))


def snapshot(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_a_failed_later_artifact_leaves_nothing_behind(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["report", *STUDY, "--out", str(out)]) == 0
    before = snapshot(out)
    other = tmp_path / "other.csv"  # a run whose every artifact differs
    other.write_text(read(STUDY_CYCLES).replace(",152,", ",160,"))

    def fail(result, hours):
        raise InvariantViolation("summary failed")

    # summary.txt is built last: every other artifact is staged before it fails.
    monkeypatch.setattr(cli.rpt, "summary_text", fail)
    for out_dir in (out, tmp_path / "fresh" / "out"):
        code = main(["report", "--cycles", str(other), "--approaches", str(STUDY_APPROACHES),
                     "--out", str(out_dir)])
        assert code == 2
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["message"] == "summary failed"
    assert snapshot(out) == before
    assert not (tmp_path / "fresh" / "out").exists()


def test_an_unwritable_artifact_leaves_no_temp_files(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.txt").mkdir(parents=True)
    (out / "summary.txt" / "keep").write_text("a directory where a file goes")
    assert main(["report", *STUDY, "--out", str(out)]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "IoFailure"
    assert not [path for path in out.iterdir() if path.name.endswith(".tmp")]


def test_an_infinite_width_saturation_flow_is_an_input_error(tmp_path, capsys):
    approaches = tmp_path / "approaches.csv"
    approaches.write_text(read(STUDY_APPROACHES).replace("SR3,SSC,1,twoway,3.5",
                                                         "SR3,SSC,1,twoway,1e306"))
    code = main(["flow", "--cycles", str(STUDY_CYCLES), "--approaches", str(approaches),
                 "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err)
    assert code == 2
    assert (record["error"], record["subcommand"]) == ("InputError", "flow")
    assert record["message"] == "saturation flow is not finite: width 1e+306 m"


def test_cycle_lengths_summing_past_the_largest_float_are_an_input_error(tmp_path, capsys):
    cycles = tmp_path / "cycles.csv"
    cycles.write_text("approach_id,cycle_length_s,red_s,green_s,car\n"
                      "SR1,152,120,32,3\n"
                      "SR2,1e308,120,32,3\n"
                      "SR2,1e308,120,32,3\n")
    code = main(["flow", "--cycles", str(cycles), "--approaches", str(STUDY_APPROACHES),
                 "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err)
    assert code == 2
    assert record["error"] == "InputError"
    assert record["message"] == (
        "the cycle_length_s values of approach 'SR2' add up past the largest float")


_CYCLE_HEADER = "approach_id,cycle_length_s,red_s,green_s,car\n"
_TIMED_HEADER = "approach_id,cycle_length_s,red_s,green_s,car,timestamp\n"
_HUGE_CAPACITIES = [{"lanes": lanes, "directionality": directionality, "pcu_per_hour": 1.7e308}
                    for lanes, directionality in ((3, "oneway"), (2, "oneway"), (1, "twoway"))]
_HUGE_PCU_FACTORS = {"composition_threshold": 0.05, "factors": {
    "two_wheeler": [0.5, 0.75], "car": [1e308, 1e308], "auto_rickshaw": [1.2, 2.0],
    "lcv": [1.4, 2.0], "bus": [1e308, 1e308]}}

# site -> (subcommand and flags, cycle CSV or None for the study's, config, message).
# Every total below adds finite values past the largest double.
OVERFLOWING_TOTALS = {
    "class PCUs": (
        ["flow"], "approach_id,cycle_length_s,red_s,green_s,car,bus\nSR1,152,120,32,1,1\n",
        {"counts_unit": "vehicles", "pcu_factors": _HUGE_PCU_FACTORS},
        "the class PCUs of approach 'SR1'"),
    "green total": (
        ["flow"],
        _CYCLE_HEADER + "".join(f"SR{k},1.7e308,1e307,1.6e308,3\n" for k in (1, 2, 3)),
        {}, "the mean greens of intersection 'SSC'"),
    # 7.2e307 cars an hour on each approach, within a huge capacity
    "hourly counts": (
        ["emissions"],
        _CYCLE_HEADER + "".join(f"SR{k},5e-305,4e-305,1e-305,1\n" for k in (1, 2, 3)),
        {"capacity_table": _HUGE_CAPACITIES}, "the hourly car counts of intersection 'SSC'"),
    "intersection CO2": (
        ["emissions"], None,
        {"emission_factors": {"cng": 1.5e307, "diesel": 1.5e307, "petrol": 2.392}},
        "the CO2 rates of intersection 'SSC'"),
    "study CO2": (
        ["emissions"], None,
        {"emission_factors": {"cng": 1.5e307, "diesel": 2.64, "petrol": 2.392}},
        "the intersections' CO2 rates of the study"),
    "window sum": (
        ["peak-hours", "--span", "1"],
        _TIMED_HEADER + "N1,1e308,0,1,1,1704096000\nN2,1e308,0,1,1,1704096600\n",
        None, "the cycle lengths of the window from second 28800"),
    "peak-window run": (
        ["peak-hours", "--span", "2"],
        _TIMED_HEADER + "N1,1e308,0,1,1,1704096000\nN2,1e308,0,1,1,1704097800\n",
        None, "the mean cycle lengths of the run of windows from second 28800"),
}


@pytest.mark.parametrize("site", OVERFLOWING_TOTALS)
def test_an_exact_total_past_the_largest_float_is_an_input_error(site, tmp_path, capsys):
    command, cycles_text, config, message = OVERFLOWING_TOTALS[site]
    cycles = STUDY_CYCLES
    if cycles_text is not None:
        cycles = tmp_path / "cycles.csv"
        cycles.write_text(cycles_text)
    argv = [*command, "--cycles", str(cycles)]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--approaches", str(STUDY_APPROACHES), "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out")]
    code = main(argv)
    captured = capsys.readouterr()
    record = json.loads(captured.err)
    assert code == 2
    assert (record["error"], record["subcommand"]) == ("InputError", command[0])
    assert record["message"] == f"{message} add up past the largest float"
    assert "Traceback" not in captured.out + captured.err


def test_byte_order_mark_in_inputs_is_accepted(tmp_path, capsys):
    cycles = tmp_path / "cycles.csv"
    approaches = tmp_path / "approaches.csv"
    config = tmp_path / "config.json"
    cycles.write_bytes(b"\xef\xbb\xbf" + STUDY_CYCLES.read_bytes())
    approaches.write_bytes(b"\xef\xbb\xbf" + STUDY_APPROACHES.read_bytes())
    config.write_bytes(b"\xef\xbb\xbf" + b'{"version": 1}\n')
    assert main(["validate", "--cycles", str(cycles), "--approaches", str(approaches)]) == 0
    assert "OK: 9 record(s)" in capsys.readouterr().out
    assert main(["flow", *STUDY, "--out", str(tmp_path / "plain")]) == 0
    assert main(["flow", "--cycles", str(cycles), "--approaches", str(approaches),
                 "--config", str(config), "--out", str(tmp_path / "bom")]) == 0
    for name in ("flow.csv", "saturation.csv"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_crlf_and_byte_order_mark_inputs_give_the_same_report(tmp_path, capsys):
    assert main(["report", *STUDY, "--out", str(tmp_path / "lf")]) == 0
    expected = {path.name: path.read_bytes() for path in (tmp_path / "lf").iterdir()}
    for name, prefix in (("crlf", b""), ("bom_crlf", b"\xef\xbb\xbf")):
        inputs = []
        for source in (STUDY_CYCLES, STUDY_APPROACHES):
            inputs.append(tmp_path / f"{name}_{source.name}")
            inputs[-1].write_bytes(prefix + source.read_bytes().replace(b"\n", b"\r\n"))
        out = tmp_path / name
        assert main(["report", "--cycles", str(inputs[0]), "--approaches", str(inputs[1]),
                     "--out", str(out)]) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == expected


def test_a_present_mean_past_the_largest_float_names_the_first_approach(tmp_path, capsys):
    """SR1's exited PCU overflows only once its blanks read as 0; SR2's, later
    in output order, overflows as it is.  The error names SR1."""
    cycles = tmp_path / "cycles.csv"
    cycles.write_text(
        "approach_id,cycle_length_s,red_s,green_s,car,effective_green_s,exited_pcu\n"
        + "SR1,152,120,32,3,20,\nSR1,152,120,32,3,20,5e307\n" * 4
        + "SR2,152,120,32,3,20,5e307\n" * 4)
    code = main(["report", "--cycles", str(cycles), "--approaches", str(STUDY_APPROACHES),
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    record = json.loads(captured.err)
    assert code == 2
    assert (record["error"], record["message"]) == (
        "InputError", "the exited_pcu values of approach 'SR1' add up past the largest float")
    assert not (tmp_path / "out").exists()


def _idle_rate_past_the_largest_float() -> dict:
    config = json.loads((Path(cli.__file__).parent / "data" / "default_config.json").read_text())
    config["idle_rates"]["entries"][0]["rate_per_hour"] = 1e308  # auto-rickshaws on CNG
    return {"idle_rates": config["idle_rates"]}


NON_FINITE_FIGURES = {
    "CNG emission factor": (
        {"emission_factors": {"cng": 1e308, "diesel": 2.64, "petrol": 2.392}},
        "InputError", "the cng CO2 rate of intersection 'SSC' is not finite: inf"),
    "idle rate": (
        _idle_rate_past_the_largest_float(),
        "InputError", "the cng idle burn of intersection 'SSC' is not finite: inf"),
    "active hours": (
        {"city": {"intersection_count": 6, "active_hours_per_day": 1e308,
                  "co2_kg_per_hour": 370.0}},
        "InputError", "the daily CO2 of the study is not finite: inf"),
    "configured city rate": (
        {"city": {"intersection_count": 6, "active_hours_per_day": 13,
                  "co2_kg_per_hour": 1e308}},
        "InputError", "the daily CO2 of the city is not finite: inf"),
    "extrapolated city rate": (
        {"city": {"intersection_count": 10**307, "active_hours_per_day": 13,
                  "co2_kg_per_hour": None}},
        "InputError", "the CO2 rate of the city is not finite: inf"),
    "intersection count": (
        {"city": {"intersection_count": 10**400, "active_hours_per_day": 13,
                  "co2_kg_per_hour": None}},
        "ConfigError", "city.intersection_count is an integer past the largest float"),
}


@pytest.mark.parametrize("case", NON_FINITE_FIGURES)
def test_a_config_that_makes_an_emission_figure_non_finite_is_a_typed_error(
        case, tmp_path, capsys):
    config, error, message = NON_FINITE_FIGURES[case]
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = main(["emissions", *STUDY, "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    record = json.loads(captured.err)
    assert code == 2
    assert (record["error"], record["message"]) == (error, message)
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def test_undecodable_inputs_are_input_errors(tmp_path, capsys):
    cycles = tmp_path / "cycles.csv"
    config = tmp_path / "config.json"
    cycles.write_bytes(STUDY_CYCLES.read_bytes().replace(b"SR3", b"SR\xe9"))
    config.write_bytes(b'{"version": 1, "_note": "caf\xe9"}')
    assert main(["validate", "--cycles", str(cycles)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InputError"
    assert main(["flow", *STUDY, "--config", str(config), "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("city", [
    {"intersection_count": 0, "active_hours_per_day": 13},
    {"intersection_count": 6, "active_hours_per_day": 0},
    {"intersection_count": 6, "active_hours_per_day": -2},
])
def test_non_positive_city_scaling_is_a_config_error(tmp_path, capsys, city):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"city": city}))
    code = main(["report", *STUDY, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rate, code, line", [
    (-1, 2, None),
    (0, 0, "city,0.00,0.00,13,configured_rate"),
    (-0.0, 0, "city,0.00,0.00,13,configured_rate"),
])
def test_a_negative_city_co2_rate_is_a_config_error(tmp_path, capsys, rate, code, line):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"city": {"intersection_count": 6, "active_hours_per_day": 13,
                                           "co2_kg_per_hour": rate}}))
    out = tmp_path / "out"
    assert main(["emissions", *STUDY, "--config", str(config), "--out", str(out)]) == code
    if line is None:
        record = json.loads(capsys.readouterr().err)
        assert (record["error"], record["message"], record["exit_code"]) == (
            "ConfigError", "city.co2_kg_per_hour must be >= 0, got -1", 2)
        assert not out.exists()
    else:
        assert line in read(out / "emissions_summary.csv")


@pytest.mark.parametrize("section", [
    {"platoon_ratios": []},
    {"idle_rates": []},
    {"los_bands": []},
    {"emission_factors": []},
    {"pcu_factors": {"factors": []}},
    {"city": {"intersection_count": float("inf"), "active_hours_per_day": 13}},
    {"city": {"intersection_count": 2.7, "active_hours_per_day": 13, "co2_kg_per_hour": None}},
    {"city": {"intersection_count": True, "active_hours_per_day": 13}},
    {"capacity_table": [{"lanes": 3.9, "directionality": "oneway", "pcu_per_hour": 1800}]},
    {"capacity_table": [{"lanes": True, "directionality": "oneway", "pcu_per_hour": 1800}]},
    {"version": 1.5},
    {"version": False},
    {"default_platoon_ratio": True},
], ids=["platoon_ratios", "idle_rates", "los_bands", "emission_factors", "pcu_factors",
        "infinite_count", "fractional_count", "bool_count", "fractional_lanes", "bool_lanes",
        "fractional_version", "bool_version", "bool_platoon_ratio"])
def test_a_config_section_of_the_wrong_type_is_a_config_error(tmp_path, capsys, section):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(section))
    assert main(["los", "--delay", "5", "--config", str(config)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    name = next(iter(section))
    assert record["message"].startswith(f"invalid configuration: section {name!r}: ")


def test_peak_hours_on_a_far_future_timestamp_exits_cleanly(tmp_path, capsys):
    cycles = tmp_path / "cycles.csv"
    cycles.write_text(WEEK_CYCLES.read_text() + "N1,118,85,30,14,6,5,2,1,1e300\n")
    assert main(["peak-hours", "--cycles", str(cycles), "--span", "1"]) == 0
    assert "peak window:" in capsys.readouterr().out


def test_variability_runs_one_pooled_z_test_per_intersection_pair(tmp_path, capsys, monkeypatch):
    approaches = tmp_path / "approaches.csv"
    approaches.write_text(
        "approach_id,intersection_id,lanes,directionality,width_m,free_left,is_major\n"
        "N1,NX,2,oneway,7.0,0,1\n"
        "N2,NY,1,oneway,3.5,0,0\n")
    calls = []
    monkeypatch.setattr(cli, "z_test", lambda a, b: calls.append((a, b)) or z_test(a, b))
    assert main(["variability", "--cycles", str(WEEK_CYCLES), "--approaches", str(approaches),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    pooled_a, pooled_b = calls[0]
    assert len(pooled_a) + len(pooled_b) == len(WEEK_CYCLES.read_text().splitlines()) - 1


def test_variability_summarises_each_sample_once(tmp_path, capsys, monkeypatch):
    # 3 intersections x 3 approaches x 6 cycles: each approach sample is in 2
    # pairwise tests and each pooled sample in 2 inflow tests
    sizes = []
    variance = stats.variance
    monkeypatch.setattr(stats, "variance",
                        lambda data: sizes.append(len(data)) or variance(data))
    assert main(["variability", "--cycles", str(SPREAD_CYCLES),
                 "--approaches", str(SPREAD_APPROACHES), "--out", str(tmp_path)]) == 0
    assert sorted(sizes) == [6] * 9 + [18] * 3


OVERSIZED_CELL = "9" * 140_000  # over the csv module's 131,072-character field limit


def test_validate_lists_a_row_csv_cannot_split(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "approach_id,cycle_length_s,red_s,green_s,car\n"
        f"SR1,152,120,32,{OVERSIZED_CELL}\n"
        "SR1,152,120,32,3\n")
    code = main(["validate", "--cycles", str(bad), "--approaches", str(STUDY_APPROACHES)])
    captured = capsys.readouterr()
    assert code == 2
    assert ("SchemaViolation: row 2: unreadable CSV row: field larger than field limit"
            in captured.out)
    assert "1 valid record(s), 1 problem(s)" in captured.out
    record = json.loads(captured.err)
    assert (record["error"], record["row"], record["exit_code"]) == ("SchemaViolation", 2, 2)


def test_oversized_approach_cell_is_a_schema_violation(tmp_path, capsys):
    approaches = tmp_path / "approaches.csv"
    approaches.write_text(
        "approach_id,intersection_id,lanes,directionality,width_m,free_left,is_major\n"
        "N1,NX,2,oneway,7.0,0,1\n"
        f"N2,{OVERSIZED_CELL},1,oneway,3.5,0,0\n")
    code = main(["variability", "--cycles", str(WEEK_CYCLES), "--approaches", str(approaches),
                 "--out", str(tmp_path / "out")])
    record = json.loads(capsys.readouterr().err)
    assert code == 2
    assert (record["error"], record["row"]) == ("SchemaViolation", 3)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("window", ["nan", "inf", "1e-300", "0.5"])
@pytest.mark.parametrize("command", ["peak-hours", "report"])
def test_window_must_be_finite_seconds_of_at_least_one(tmp_path, capsys, command, window):
    out = tmp_path / "out"
    code = main([command, *WEEK, "--window", window, "--out", str(out)])
    record = json.loads(capsys.readouterr().err)
    assert code == 2
    assert (record["error"], record["exit_code"]) == ("InputError", 2)
    assert record["message"] == (
        f"--window must be a finite number of seconds >= 1, got {float(window):g}")
    assert not out.exists()


@pytest.mark.parametrize("values", [
    ["--delay", "nan"], ["--vc", "nan"], ["--delay", "inf"], ["--vc=-inf"],
    ["--delay", "56", "--vc", "nan"],
])
def test_los_rejects_non_finite_values(capsys, values):
    assert main(["los", *values]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "InputError"
    assert record["message"].startswith("classified values must be finite, got ")


@pytest.mark.parametrize("argv", [
    ["validate", *STUDY, "--policy", "major"],
    ["variability", *WEEK, "--config", "x.json"],
    ["flow", *STUDY, "--window", "60"],
    ["peak-hours", "--cycles", str(WEEK_CYCLES), "--format", "text"],
    ["report", *STUDY, "--span", "2"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, _, last = captured.err.rstrip("\n").rpartition("\n")
    assert usage.startswith("usage: analyze")
    record = json.loads(last)
    assert (record["error"], record["exit_code"]) == ("InputError", 2)
    assert record["subcommand"] == argv[0]
    assert record["message"].startswith("unrecognized arguments: ")


@pytest.mark.parametrize("argv, subcommand", [
    ([], None),
    (["bogus"], None),
    (["flow", "--cycles", str(STUDY_CYCLES)], "flow"),
    (["report", *STUDY, "--window", "ten"], "report"),
])
def test_a_usage_error_ends_in_a_json_record(capsys, argv, subcommand):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: analyze")
    record = json.loads(err.splitlines()[-1])
    assert (record["error"], record["subcommand"]) == ("InputError", subcommand)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["flow", "--help"])
    assert exit_info.value.code == 0
    assert "--cycles" in capsys.readouterr().out


def test_an_empty_intersection_id_is_rejected(tmp_path, capsys):
    # Blank ids once pooled their approaches into one nameless intersection.
    approaches = tmp_path / "approaches.csv"
    approaches.write_text(
        "approach_id,intersection_id,lanes,directionality,width_m,free_left,is_major\n"
        "N1,X,1,oneway,3.5,0,1\n"
        "A1,,1,oneway,3.5,0,1\n"
        "A2, ,1,oneway,3.5,0,1\n")
    cycles = tmp_path / "cycles.csv"
    cycles.write_text("approach_id,cycle_length_s,red_s,green_s,car\n"
                      "N1,100,40,50,5\nA1,100,40,50,5\nA2,100,40,50,5\n")
    out = tmp_path / "out"
    code = main(["report", "--cycles", str(cycles), "--approaches", str(approaches),
                 "--out", str(out)])
    record = json.loads(capsys.readouterr().err)
    assert code == 2 and not out.exists()
    assert record == {"subcommand": "report", "error": "SchemaViolation",
                      "message": "row 3: empty intersection_id", "row": 3, "exit_code": 2}


def test_the_cli_imports_no_stdlib_module_it_does_not_need():
    # dataclasses (with inspect), statistics (with fractions) and decimal
    # cost more to import than the whole package; decimal is imported only
    # to round values too large for a float's fixed-point format.  The
    # shipped config is read without importlib.resources, tempfile (with
    # random) is imported only to stage an artifact and struct only to add
    # rows to a table, neither of which `los` does.
    script = (
        "import sys\n"
        "from intersection_analyzer.cli import main\n"
        "unused = {'dataclasses', 'inspect', 'statistics', 'fractions', 'decimal',\n"
        "          'importlib.resources', 'tempfile', 'struct'}\n"
        "print(sorted(unused & set(sys.modules)))\n"
        "main(['los', '--delay', '1'])\n"
        "print(sorted(unused & set(sys.modules)))\n")
    src = Path(cli.__file__).parents[1]
    child = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [
        "[]", "delay 1 s: delay_hcm=A delay_heterogeneous=A", "[]"]
