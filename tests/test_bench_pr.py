"""Tests for the summary of tools/bench_pr.py (the runs themselves are not
exercised here)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pr.py"
_SPEC = importlib.util.spec_from_file_location("bench_pr", _PATH)
bench_pr = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pr)


def test_summary_of_a_clear_gain():
    parent = [8.0, 7.5, 8.2, 7.9, 8.1, 7.7, 8.3, 7.6, 8.0, 7.8]
    change = [2.8, 2.9, 2.7, 3.0, 2.8, 2.6, 2.9, 2.8, 2.7, 9.0]
    out = bench_pr.summarize(list(zip(parent, change)), "lower", 0.25)
    assert (out["pairs"], out["won"], out["lost"], out["ties"]) == (10, 9, 1, 0)
    assert out["parent"]["median"] == pytest.approx(7.95)
    assert out["change"]["median"] == pytest.approx(2.8)
    assert out["parent"]["q1"] == pytest.approx(7.675)
    assert out["parent"]["q3"] == pytest.approx(8.125)
    assert out["parent_iqr"] == pytest.approx(0.45)
    assert out["median_gain"] == pytest.approx(5.15)
    assert out["gain_holds"] and out["within_bound"]
    assert out["parent"]["runs"] == parent


def test_summary_ties_losses_and_bound():
    # equal runs tie; a 30 % worse median breaks a 0.25 bound
    out = bench_pr.summarize([(1.0, 1.0), (1.0, 1.3), (1.0, 1.3)],
                             "lower", 0.25)
    assert (out["won"], out["lost"], out["ties"]) == (0, 2, 1)
    assert out["relative_worsening"] == pytest.approx(0.3)
    assert not out["gain_holds"] and not out["within_bound"]


def test_summary_higher_is_better_and_gap_within_spread():
    # 9 of 10 won, but the median gap is inside the parent's spread
    parent = [100.0, 110.0, 90.0, 120.0, 80.0, 100.0, 110.0, 90.0, 120.0, 80.0]
    change = [p + 1.0 for p in parent[:9]] + [79.0]
    out = bench_pr.summarize(list(zip(parent, change)), "higher", 0.05)
    assert (out["won"], out["lost"]) == (9, 1)
    assert out["median_gain"] == pytest.approx(1.0)
    assert out["parent_iqr"] > out["median_gain"]
    assert not out["gain_holds"] and out["within_bound"]


def test_summary_unresolved_where_the_parent_spread_exceeds_the_bound():
    # the parent's quartiles span 0.3 of its median against a 0.05 bound:
    # a median 2 % worse is within the bound but cannot be read
    parent = [100.0, 110.0, 90.0, 120.0, 80.0, 100.0, 110.0, 90.0, 120.0, 80.0]
    change = [p + 2.0 for p in parent]
    out = bench_pr.summarize(list(zip(parent, change)), "lower", 0.05)
    assert out["parent_iqr"] / out["parent"]["median"] > 0.05
    assert out["within_bound"] and out["unresolved"]
    # unless every change run beats every parent run
    out = bench_pr.summarize(list(zip(parent, [70.0] * 10)), "lower", 0.05)
    assert out["gain_holds"] and not out["unresolved"]
    # a clear gain with a spread inside the bound is resolved
    out = bench_pr.summarize([(8.0 + 0.01 * i, 3.0) for i in range(10)],
                             "lower", 0.25)
    assert not out["unresolved"]


def test_summary_rejects_an_unknown_direction():
    with pytest.raises(ValueError):
        bench_pr.summarize([(1.0, 1.0), (2.0, 2.0)], "faster", 0.25)
