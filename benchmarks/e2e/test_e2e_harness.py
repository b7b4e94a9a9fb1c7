"""Tests of the end-to-end benchmark harness itself.

The arithmetic (self time, percentiles, the answer key, the compare
verdicts) is tested directly; one smoke pass runs every workload for
about a second against a real server and checks that it fails no op
and emits every metric ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from e2e_probe import REFERENCE_SPEED, HostMeter
from e2e_spans import SpanRecorder
from e2e_stats import (
    ReachClosure,
    covered_length,
    judge,
    latency_summary,
    percentile,
    percentile_supported,
    relative_spread,
    scaled_rate,
    self_time,
)
from e2e_trace import Spans, attribute

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    # children overlap on [20, 30]: covered 10..50 = 40, not 20 + 30
    assert self_time(0, 100, [(10, 30), (20, 50)]) == 60


def test_self_time_counts_nested_and_duplicate_children_once():
    assert self_time(0, 100, [(10, 60), (20, 30), (10, 60)]) == 50


def test_self_time_clips_children_to_the_parent():
    assert self_time(100, 200, [(50, 120), (190, 400)]) == 70
    assert self_time(100, 200, [(0, 50)]) == 100


def test_covered_length_of_disjoint_and_touching_intervals():
    assert covered_length([(0, 10), (10, 20), (30, 35)]) == 25
    assert covered_length([]) == 0
    assert covered_length([(5, 5), (8, 3)]) == 0


def test_attribution_parts_add_up_to_the_round_trip():
    # one client call [0, 1000] with codec children, served by a
    # handler process: decode [100, 150], handle [160, 700] holding
    # engine [200, 600] holding the kernel [300, 500], encode [710, 760]
    client = Spans([
        [0, "client.call", 0, 1000, -1, "t1", 0, 0, "query_batch"],
        [1, "client.encode", 10, 40, 0, "t1", 0, 0, None],
        [2, "client.decode", 900, 950, 0, "t1", 0, 0, None],
    ])
    handler = Spans([
        [0, "protocol.decode", 100, 150, -1, "t1", 0, 0, None],
        [1, "server.handle", 160, 700, -1, "t1", 0, 0, "query_batch"],
        [2, "engine.query_many", 200, 600, 1, "t1", 0, 0, None],
        [3, "labeling.query_many", 300, 500, 2, "t1", 0, 0, None],
        [4, "protocol.encode", 710, 760, -1, "t1", 0, 0, None],
        [5, "server.handle", 2000, 2100, -1, "other", 0, 0, "stats"],
    ])
    table = attribute([client.spans[0]], client, [handler])
    row = table["query_batch"]
    assert row["requests"] == 1
    assert row["client.codec"] == 80
    assert row["server.handle"] == 140
    assert row["engine.query_many"] == 200
    assert row["labeling.query_many"] == 200
    assert row["server.gaps"] == 20  # 150..160 and 700..710
    assert row["wire"] == 1000 - 80 - (760 - 100)
    parts = sum(v for k, v in row.items() if k not in ("requests", "rtt"))
    assert parts == row["rtt"] == 1000


def test_recorder_nests_spans_and_inherits_the_trace_id():
    class Layer:
        def outer(self, trace_id):
            return self.inner()

        def inner(self):
            return 7

    recorder = SpanRecorder()
    recorder.wrap(Layer, "outer", "outer", trace_in=lambda a, k: a[1])
    recorder.wrap(Layer, "inner", "inner", count_of=lambda a, k, r: r)
    try:
        assert Layer().outer("abc") == 7
    finally:
        Layer.outer = Layer.outer.__wrapped__
        Layer.inner = Layer.inner.__wrapped__
    inner, outer = recorder.spans  # a span is recorded when it ends
    assert inner[1] == "inner" and outer[1] == "outer"
    assert inner[4] == outer[0] and outer[4] == -1
    assert inner[5] == outer[5] == "abc"
    assert inner[6] == 7
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]


# ---------------------------------------------------------------------------
# percentiles and the sample-count rule
# ---------------------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert percentile_supported(200, 95)
    assert not percentile_supported(199, 95)
    assert percentile_supported(1000, 99)
    assert not percentile_supported(999, 99)


def test_scaled_rate_counts_reference_seconds():
    completions = [(0.5 + second, 100) for second in range(4)]
    completions.append((9.0, 100))  # after the interval
    assert scaled_rate(completions, 0.0, 4.0) == pytest.approx(100.0)
    # the host ran twice as fast in the first two seconds: they count
    # as four reference seconds, so 400 items took 6
    assert scaled_rate(completions, 0.0, 4.0, [2.0, 2.0, 1.0, 1.0]) == (
        pytest.approx(400 / 6))
    # a partial last slice counts by its length
    assert scaled_rate(completions, 0.0, 2.5, [1.0, 1.0, 2.0]) == (
        pytest.approx(300 / 3.0))


def test_host_meter_averages_per_cpu_medians_and_widens_short_spans(tmp_path):
    meter = HostMeter(tmp_path)
    meter.samples = [
        [(t / 10, 600.0) for t in range(100)],
        [(t / 10, 800.0 if t < 50 else 400.0) for t in range(100)],
    ]
    assert meter.speed(0.0, 4.9) == pytest.approx(700.0)
    assert meter.speed(5.0, 9.9) == pytest.approx(500.0)
    # a 0.1 s set-up is judged by the second around it
    assert meter.speed(2.0, 2.1) == pytest.approx(700.0)
    assert meter.scale(0.0, 4.9) == pytest.approx(700.0 / REFERENCE_SPEED)
    assert meter.scales(4.0, 6.0) == pytest.approx(
        [700.0 / REFERENCE_SPEED, 500.0 / REFERENCE_SPEED])
    assert meter.speed(50.0, 60.0) is None
    assert meter.scale(50.0, 60.0) == 1.0


def test_latency_summary_leaves_out_unsupported_percentiles():
    summary = latency_summary([i / 1000 for i in range(500)])
    assert summary["samples"] == 500
    assert summary["p50_ms"] == pytest.approx(249.0)
    assert summary["p95_ms"] == pytest.approx(474.0)
    assert "p99_ms" not in summary
    assert summary["max_ms"] == pytest.approx(499.0)
    assert latency_summary([]) == {"samples": 0}


# ---------------------------------------------------------------------------
# the answer key
# ---------------------------------------------------------------------------


def test_closure_matches_bfs_on_a_small_run():
    from e2e_workloads import make_run, sample_execution

    from repro.graphs.reachability import descendants_of

    run, mismatches = make_run(seed=7, index=0, size=150)
    assert mismatches == 0
    execution = sample_execution(seed=7, index=0, size=150)
    graph = execution.replay()
    assert run.vids == [ins.vid for ins in execution.insertions]
    for source in run.vids:
        reachable = descendants_of(graph, source)
        for target in run.vids:
            assert run.closure.reaches(source, target) == (target in reachable)


def test_closure_is_reflexive_and_follows_predecessors():
    closure = ReachClosure([(1, []), (2, [1]), (3, [1]), (4, [2, 3]), (5, [])])
    assert closure.reaches(1, 1) and closure.reaches(1, 4)
    assert not closure.reaches(4, 1)
    assert not closure.reaches(2, 3)
    assert not closure.reaches(5, 4)
    assert closure.answers([[1, 4], [5, 1]]) == [True, False]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_judge_flags_a_regression_beyond_the_bound():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    worse = [115.0, 116.0, 114.0, 115.5, 114.5]
    assert judge("latency_p50_ms", "lower", 0.10, base, worse)["verdict"] == "worse"
    assert judge("throughput_per_s", "higher", 0.10, base, worse)["verdict"] == "better"
    near = [105.0, 106.0, 104.0, 105.5, 104.5]
    assert judge("latency_p50_ms", "lower", 0.10, base, near)["verdict"] == "ok"


def test_judge_reports_unresolved_when_the_spread_exceeds_the_bound():
    base = [80.0, 100.0, 120.0, 90.0, 110.0]
    change = [85.0, 104.0, 125.0, 95.0, 112.0]
    assert relative_spread(base) > 0.10
    assert judge("latency_p50_ms", "lower", 0.10, base, change)["verdict"] == (
        "unresolved")


def test_judge_resolves_a_wide_spread_when_every_run_is_worse():
    base = [80.0, 100.0, 120.0, 90.0, 110.0]
    change = [200.0, 230.0, 260.0, 210.0, 240.0]
    assert judge("latency_p50_ms", "lower", 0.10, base, change)["verdict"] == "worse"


def test_judge_applies_the_absolute_floor_on_setup_time():
    base = [0.30, 0.31, 0.29, 0.30, 0.30]
    slower = [0.42, 0.43, 0.41, 0.42, 0.42]  # +40%, but only 0.12 s
    assert judge("setup_s", "lower", 0.25, base, slower)["verdict"] == "ok"
    assert judge("recovery_s", "lower", 0.25, base, slower)["verdict"] == "worse"
    much = [0.50, 0.51, 0.49, 0.50, 0.50]  # 0.2 s: beyond the floor
    assert judge("setup_s", "lower", 0.25, base, much)["verdict"] == "worse"


# ---------------------------------------------------------------------------
# smoke
# ---------------------------------------------------------------------------


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0.5",
         "--seed", "3", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_smoke_every_workload_emits_every_metric(tmp_path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    out = tmp_path / "runs.jsonl"
    traced = _run("--trace", "1", "--out", str(out))
    assert traced.returncode == 0, traced.stdout + traced.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["workload"] for r in records] == [
        w["name"] for w in benchmark["workloads"]]
    for record in records:
        assert record["failed"] == 0, record["diagnostics"]["failures"]
        assert record["correct"] and record["attempted"] > 0
        assert {k: v["unit"] for k, v in record["metrics"].items()} == end_to_end
        assert {k: v["unit"] for k, v in record["layers"].items()} == per_layer
        assert all(v["value"] > 0 for v in record["metrics"].values())
        assert record["provenance"]["seed"] == 3
        assert record["diagnostics"]["gen_cpu_frac"] <= 0.9
    untraced = _run("--workload", "read-hot", "--trace", "0")
    assert untraced.returncode == 0, untraced.stdout + untraced.stderr
    line = json.loads(untraced.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == end_to_end
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())
