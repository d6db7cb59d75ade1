"""Output parsing and the check against reference values."""

import math

import pytest

from make_reference import build
from outputs import check_operation, deviation, read_file, step_fields


def test_deviation_is_relative_above_one_and_absolute_below():
    assert deviation(200.0, 100.0) == 1.0
    assert deviation(0.3, 0.1) == pytest.approx(0.2)
    assert deviation(5, 5.0) == 0.0
    assert deviation("a0-b1", "a0-b1") == 0.0
    assert deviation("a0+b1", "a0-b1") == 1.0
    assert deviation(True, 1) == 1.0
    assert deviation(float("inf"), float("inf")) == 0.0
    assert deviation(float("nan"), float("nan")) == 0.0
    assert deviation(float("nan"), 0.5) == 1.0


def test_values_off_the_reference_are_a_deviation_not_a_failure():
    ref = {"values": {"x": 1.0, "s": "ok"}, "present": ["sweeps"]}
    dev, problems = check_operation({"x": 1.0 + 1e-9, "s": "ok", "sweeps": 3}, ref)
    assert problems == [] and 0 < dev < 1e-8
    dev, problems = check_operation({"x": 1.1, "s": "ok", "sweeps": 30}, ref)
    assert problems == [] and dev == pytest.approx(0.1)


def test_check_operation_reports_each_failure():
    ref = {"values": {"x": 1.0, "y": 2.0, "s": "ok"}, "present": ["sweeps"]}
    dev, problems = check_operation({"x": "oops", "s": "no", "passed": False}, ref)
    # criterion failed, sweeps missing, x not a number, y missing; s only differs
    assert len(problems) == 4
    assert dev == 1.0


def test_reference_keeps_work_counts_and_seed_dependent_fields_by_name():
    runs = [
        {"mott": {"summary.json.energy": -1.0, "summary.json.sweeps": 55, "density.csv[0].label": "MI(1)"}},
        {"mott": {"summary.json.energy": -1.0, "summary.json.sweeps": 55, "density.csv[0].label": "SF"}},
    ]
    assert build(runs) == {"mott": {
        "values": {"summary.json.energy": -1.0},
        "present": ["summary.json.sweeps", "density.csv[0].label"],
    }}


def test_csv_json_and_text_outputs(tmp_path):
    (tmp_path / "a.csv").write_text("t,label\n0.5,MI(1)\n1.5,SF\n")
    (tmp_path / "summary.json").write_text('{"e": -1.25, "list": [1, 2]}')
    (tmp_path / "rows.txt").write_text("sx,1 110\nsz,9 010\n")
    (tmp_path / "resolved_config.json").write_text('{"seed": 3}')
    fields = step_fields("qc-x", str(tmp_path))["qc-x"]
    assert fields == {
        "a.csv[0].t": 0.5, "a.csv[0].label": "MI(1)", "a.csv[1].t": 1.5, "a.csv[1].label": "SF",
        "rows.txt[0]": "sx,1 110", "rows.txt[1]": "sz,9 010",
        "summary.json.e": -1.25, "summary.json.list[0]": 1, "summary.json.list[1]": 2,
    }


def test_ragged_csv_is_unparsable(tmp_path):
    (tmp_path / "bad.csv").write_text("a,b\n1\n")
    try:
        read_file(str(tmp_path / "bad.csv"))
    except ValueError:
        return
    raise AssertionError("ragged CSV accepted")


def test_accept_report_splits_into_criteria(tmp_path):
    (tmp_path / "accept_report.json").write_text(
        '{"passed": false, "criteria": ['
        '{"criterion": "ramsey", "passed": true, "details": {"pair_dev": 0.0}},'
        '{"criterion": "syndrome-table", "passed": false, "details": {"mismatched_rows": 4}}]}'
    )
    ops = step_fields("accept", str(tmp_path))
    assert ops == {
        "accept.ramsey": {"passed": True, "details.pair_dev": 0.0},
        "accept.syndrome-table": {"passed": False, "details.mismatched_rows": 4},
    }
