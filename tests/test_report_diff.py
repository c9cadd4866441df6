"""Tests for the report comparison of tools/report_diff.py (the CLI runs
themselves are not exercised here)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_SPEC = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


def _report(measured, seconds=0.5):
    return {"suite": "eh-verify", "n_fail": 0, "timing_seconds": seconds,
            "checks": [{"name": "scaling-pullback", "measured": measured,
                        "expected": 0.0, "tolerance": 1e-12}],
            "environment": {"python": "3.11.7"}}


def test_reports_equal_apart_from_timing():
    assert report_diff.compare_reports(_report(1e-15, 0.5),
                                       _report(1e-15, 2.0)) == []


def test_report_differences_name_their_fields():
    parent, change = _report(1e-15), _report(2e-15)
    change["environment"]["numpy"] = "2.4.6"
    assert report_diff.compare_reports(parent, change) == [
        ".checks[0].measured: 1e-15 != 2e-15",
        ".environment.numpy: '<absent>' != '2.4.6'"]


def test_values_compare_as_serialized():
    # an int is not its float, a NaN is equal to a NaN, and lists are
    # compared item by item and in length
    assert report_diff.json_diff(1, 1.0) == [".: 1 != 1.0"]
    assert report_diff.json_diff([float("nan")], [float("nan")]) == []
    assert report_diff.json_diff([1, 2, 3], [1, 5]) == [
        "[1]: 2 != 5", ".: 3 items != 2 items"]


def test_runs_compare_exit_code_and_csv():
    run = {"code": 0, "stderr": "", "report": _report(0.0), "csv": b"r,k\n"}
    assert report_diff.compare_runs(run, dict(run)) == []
    assert report_diff.compare_runs(run, dict(run, csv=b"r,k\r\n")) == [
        "CSV files differ"]
    assert report_diff.compare_runs(
        run, dict(run, code=2, stderr="configuration error", report=None)) == [
        "exit code: 0 != 2 (configuration error)", "no report on one side"]
