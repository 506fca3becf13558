"""tools/bench.py reduces paired runs to the figures a BENCH file reports."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("bench_tool", os.path.join(ROOT, "tools", "bench.py"))
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

METRICS = [{"name": "ref_ops_per_s", "better": "higher", "bound": 0.2},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def run(ops, rss):
    return {"metrics": {"ref_ops_per_s": {"value": ops}, "peak_rss_mb": {"value": rss}}}


def test_spread_is_median_and_inclusive_quartiles():
    assert bench.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_summarize_counts_wins_in_each_metric_direction():
    pairs = [
        {"base": run(100.0, 50.0), "change": run(110.0, 49.0)},
        {"base": run(100.0, 50.0), "change": run(90.0, 51.0)},
        {"base": run(100.0, 50.0), "change": run(100.0, 50.0)},
        {"base": {"error": "exit 2"}, "change": run(120.0, 40.0)},
    ]
    aa = {"first": run(100.0, 50.0), "second": run(95.0, 50.0)}
    out = bench.summarize(pairs, aa, METRICS)
    ops, rss = out["ref_ops_per_s"], out["peak_rss_mb"]
    # the pair whose base run failed counts for neither side; a tie wins nothing
    assert ops["pairs"] == rss["pairs"] == 3
    assert ops["ratios"] == [1.1, 0.9, 1.0] and ops["wins"] == 1
    assert rss["ratios"] == [0.98, 1.02, 1.0] and rss["wins"] == 1
    assert ops["base"]["median"] == 100.0 and ops["change"]["median"] == 100.0
    assert ops["aa_ratio"] == pytest.approx(0.95)
    assert rss["aa_ratio"] == 1.0
