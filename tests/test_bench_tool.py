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


def test_within_bound_reads_the_median_ratio_in_the_better_direction():
    metrics = METRICS + [{"name": "setup_s", "better": "lower", "bound": 0.25}]

    def pair(ops, rss):
        return {"base": run(100.0, 50.0), "change": run(ops, rss)}

    aa = {"first": run(100.0, 50.0), "second": run(100.0, 50.0)}
    # median ratios 0.8 (ops, at its bound) and 1.12 (rss, past its 0.1 bound)
    out = bench.summarize([pair(80.0, 56.0), pair(79.0, 55.0), pair(90.0, 60.0)], aa, metrics)
    assert out["ref_ops_per_s"]["median_ratio"] == pytest.approx(0.8)
    assert out["ref_ops_per_s"]["within_bound"] is True
    assert out["peak_rss_mb"]["within_bound"] is False
    assert out["setup_s"]["pairs"] == 0 and out["setup_s"]["within_bound"] is None
    line = bench.verdict("circuit-train", out)
    assert line.startswith("circuit-train: OUTSIDE A BOUND: ")
    assert "ref_ops_per_s 0.800 (>= 0.8)" in line
    assert "peak_rss_mb 1.120 (<= 1.1, outside)" in line
    assert "setup_s no pairs" in line
    # a faster, smaller change is inside every bound; a slower one just past 0.8 is not
    good = bench.summarize([pair(130.0, 40.0)], aa, METRICS)
    assert [e["within_bound"] for e in good.values()] == [True, True]
    assert bench.verdict("w", good).startswith("w: within bounds: ")
    slow = bench.summarize([pair(79.9, 55.0)], aa, METRICS)
    assert slow["ref_ops_per_s"]["within_bound"] is False and slow["peak_rss_mb"]["within_bound"] is True
