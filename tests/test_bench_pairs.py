"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quantile_interpolates_between_order_statistics():
    assert bench_pairs.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert bench_pairs.quantile([4.0, 1.0, 3.0, 2.0], 0.25) == 1.75
    assert bench_pairs.quantile([7.0], 0.75) == 7.0


def test_summary_counts_wins_and_gates_the_gain():
    base_ms = [40.0, 41.0, 39.0, 42.0, 40.5, 38.0, 41.5, 40.0, 39.5, 43.0]
    change_ms = [35.0, 36.0, 34.0, 37.0, 35.5, 33.0, 36.5, 40.0, 34.5, 44.0]
    base_ops = [25.0] * 10
    change_ops = [25.0] * 9 + [26.0]
    pairs = [{"base": {"op_ms_p50": b, "ops_per_s": bo},
              "change": {"op_ms_p50": c, "ops_per_s": co}}
             for b, c, bo, co in zip(base_ms, change_ms, base_ops, change_ops)]
    summary = bench_pairs.summarize(pairs, {"op_ms_p50": "lower", "ops_per_s": "higher",
                                            "setup_s": "lower"})

    assert set(summary) == {"op_ms_p50", "ops_per_s"}  # setup_s was not measured
    ms = summary["op_ms_p50"]
    # one tie (40.0) and one loss (44.0 > 43.0): 8 of 10 won, short of 9
    assert (ms["pairs"], ms["change_wins"], ms["gain"]) == (10, 8, False)
    assert ms["base"] == {"median": 40.25, "q1": 39.625, "q3": 41.375}
    assert ms["change"]["median"] == 35.75
    ops = summary["ops_per_s"]
    # one win in ten, the rest ties
    assert (ops["change_wins"], ops["gain"], ops["better"]) == (1, False, "higher")

    pairs[7]["change"]["op_ms_p50"] = 39.0
    pairs[9]["change"]["op_ms_p50"] = 42.0
    ms = bench_pairs.summarize(pairs, {"op_ms_p50": "lower"})["op_ms_p50"]
    assert (ms["change_wins"], ms["gain"]) == (10, True)


def test_no_gain_when_the_medians_are_within_the_base_spread():
    base = [10.0, 20.0, 30.0, 40.0]
    pairs = [{"base": {"op_ms_p50": b}, "change": {"op_ms_p50": b - 1.0}} for b in base]
    ms = bench_pairs.summarize(pairs, {"op_ms_p50": "lower"})["op_ms_p50"]
    assert ms["change_wins"] == 4
    assert ms["change"]["median"] == pytest.approx(24.0)
    assert ms["gain"] is False  # 1 ms ahead against a 15 ms interquartile distance
