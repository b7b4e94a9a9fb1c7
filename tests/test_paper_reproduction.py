"""The Section 7 evaluation, asserted on the experiment drivers' rows.

Every driver of :mod:`repro.bench.figures` runs once at a small scale
(:data:`SMALL`: the 1K..4K ladder, one sampled run per size, 5,000
query pairs) and the shape claims are asserted on its rows.  The
committed record ``BENCH_paper.json`` is checked for completeness, and
each of its verdicts is recomputed from its own rows.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from repro.bench.figures import EXPERIMENTS
from repro.bench.harness import REPEATS, BenchConfig, Timings, med
from repro.schemes import registry as scheme_registry

SMALL = BenchConfig(scale=0.125, samples=1, queries=5000)
RECORD = Path(__file__).resolve().parents[1] / "BENCH_paper.json"
PAPER_ARTIFACTS = {
    "fig01", "thm1", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "fig20", "fig21", "fig22", "tab2",
}


@pytest.fixture(scope="module")
def small():
    """``small(name)``: the experiment's table at :data:`SMALL`, run once."""
    tables = {}

    def table(name):
        if name not in tables:
            tables[name] = EXPERIMENTS[name].driver(SMALL)
        return tables[name]

    return table


def series(rows, column):
    return [med(row[column]) for row in rows]


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_driver_yields_rows_and_one_verdict(small, name):
    table = small(name)
    assert table.id == name
    assert table.rows
    assert EXPERIMENTS[name].verdict(table.rows)["verdict"] in (
        "holds", "diverges")


def test_every_paper_artifact_is_an_experiment():
    assert PAPER_ARTIFACTS <= set(EXPERIMENTS)


def test_fig01_rows_sit_in_their_figure_1_class(small):
    rows = {r["graph_class"]: r for r in small("fig01").rows}
    assert len(rows) == 6
    n = rows["DAG (dynamic)"]["n"]
    # Theta(n) rows
    assert rows["tree (dynamic, unbounded depth)"]["max_label_bits"] >= n // 2
    assert rows["DAG (dynamic)"]["max_label_bits"] == n - 1
    # Theta(log n) rows stay within a constant factor of log2(n)
    for key in ("tree (dynamic, bounded depth)", "run, non-recursive (dynamic)",
                "run, linear recursive (dynamic)"):
        assert rows[key]["max_label_bits"] <= 8 * math.log2(n)
    # the recursive (nonlinear) row sits far above the logarithmic rows
    assert (rows["run, recursive (dynamic)"]["max_label_bits"]
            > rows["run, linear recursive (dynamic)"]["max_label_bits"])


def test_thm1_labels_grow_linearly(small):
    rows = small("thm1").rows
    first, last = rows[0], rows[-1]
    size_ratio = last["run_size"] / first["run_size"]
    bits_ratio = last["drl_one_r_bits"] / max(first["drl_one_r_bits"], 1)
    assert bits_ratio >= size_ratio / 4  # clearly super-logarithmic
    assert last["drl_one_r_bits"] > 6 * math.log2(last["run_size"])


def test_fig14_label_length_is_logarithmic(small):
    rows = small("fig14").rows
    assert len(rows) >= 2
    maxima = series(rows, "max_bits")
    # doubling the run size costs only a few bits
    for prev, cur in zip(maxima, maxima[1:]):
        assert cur - prev < 15, f"label length not logarithmic: +{cur - prev}"
    doublings = math.log2(rows[-1]["run_size"] / rows[0]["run_size"])
    assert maxima[-1] - maxima[0] <= 6 * doublings
    # the average sits below the maximum, by a bounded constant
    for row in rows:
        assert med(row["avg_bits"]) <= med(row["max_bits"])
        assert med(row["max_bits"]) - med(row["avg_bits"]) <= 20


def test_fig15_per_vertex_cost_is_roughly_flat(small):
    per_vertex = series(small("fig15").rows, "per_vertex_us")
    assert max(per_vertex) <= 40 * min(per_vertex)


def test_fig16_query_time_is_near_constant(small):
    rows = small("fig16").rows
    for column in ("drl_tcl_us", "drl_bfs_us"):
        values = series(rows, column)
        assert max(values) <= 6 * min(values) + 2


def test_fig17_sub_workflow_size_costs_few_bits(small):
    rows = small("fig17").rows
    assert [r["sub_workflow_size"] for r in rows] == [10, 20, 40, 80, 160]
    # 16x the sub-workflow size costs a bounded number of bits
    maxima = series(rows, "max_bits")
    assert maxima[-1] - maxima[0] < 60


def test_fig18_depth_grows_labels_linearly(small):
    rows = small("fig18").rows
    assert [r["nesting_depth"] for r in rows] == [5, 10, 15, 20, 25]
    maxima = series(rows, "max_bits")
    assert all(b > a for a, b in zip(maxima, maxima[1:]))
    steps = [b - a for a, b in zip(maxima, maxima[1:])]
    assert max(steps) <= 4 * min(steps) + 8


def test_fig19_nonlinear_labels_are_longer_yet_practical(small):
    for row in small("fig19").rows:
        assert med(row["nonlinear_bits"]) >= med(row["linear_bits"])
        # well below the naive n-1 bits
        assert med(row["nonlinear_bits"]) < row["run_size"] / 4


def test_fig20_skl_slope_exceeds_drl_slope(small):
    rows = small("fig20").rows
    assert len(rows) >= 2
    drl_growth = med(rows[-1]["drl_bits"]) - med(rows[0]["drl_bits"])
    skl_growth = med(rows[-1]["skl_bits"]) - med(rows[0]["skl_bits"])
    assert skl_growth > drl_growth
    assert skl_growth >= 2 * (len(rows) - 1)  # slope ~3 per doubling


def test_fig21_skl_builds_simpler_labels(small):
    for row in small("fig21").rows:
        assert med(row["skl_ms"]) <= 3 * med(row["drl_execution_ms"])


def test_fig22_query_time_order(small):
    rows = small("fig22").rows

    def mean(column):
        return sum(series(rows, column)) / len(rows)

    # SKL(TCL) decodes a simpler label: never much slower than DRL(TCL)
    assert mean("skl_tcl_us") <= 2 * mean("drl_tcl_us")
    # BFS skeletons cost more than TCL skeletons on average
    assert mean("skl_bfs_us") >= mean("skl_tcl_us")


def test_skeleton_search_costs_more_on_the_global_specification():
    """The Section 7.4 order-of-magnitude claim, at the skeleton step: a
    query that falls through to it makes SKL(BFS) search the *global*
    specification where DRL(BFS) searches one small sub-workflow."""
    from repro.datasets import bioaid
    from repro.graphs.reachability import reaches
    from repro.labeling.skl import GlobalSpecification
    from repro.workflow.specification import START_KEY

    spec = bioaid(recursive=False)
    rng = random.Random(22)

    def searches(graph):
        vertices = sorted(graph.vertices())
        pairs = [(rng.choice(vertices), rng.choice(vertices))
                 for _ in range(200)]
        return lambda: [reaches(graph, a, b) for a, b in pairs]

    timings = Timings()
    timings.time({
        "global": searches(GlobalSpecification(spec).graph),
        "template": searches(spec.graph(START_KEY).dag),
    })
    assert (timings.cell("global")["median"]
            > 3 * timings.cell("template")["median"])


def test_tab2_skl_labels_a_larger_specification(small):
    rows = {r["scheme"]: r for r in small("tab2").rows}
    assert list(rows) == ["DRL(TCL)", "SKL(TCL)"]
    assert (rows["SKL(TCL)"]["total_space_bits"]
            > 3 * rows["DRL(TCL)"]["total_space_bits"])


def test_r_node_compression_never_loses(small):
    for row in small("abl-r").rows:
        assert med(row["with_R_bits"]) <= med(row["without_R_bits"]) + 8


def test_logged_mode_costs_at_most_name_mode(small):
    for row in small("abl-exec").rows:
        assert med(row["logged_mode_ms"]) <= 2.5 * med(row["name_mode_ms"])


def test_drl_labels_beat_general_indexes(small):
    for row in small("abl-baselines").rows:
        # DRL labels stay far below the naive linear labels ...
        assert row["drl_max_bits"] < row["naive_max_bits"] / 4
        # ... and below the chain index once forks widen the run
        if row["run_size"] >= 2000:
            assert row["drl_max_bits"] < row["chain_max_bits"]


def test_every_registered_scheme_is_measured(small):
    rows = small("schemes").rows
    measured = [row for row in rows if row["skip"] is None]
    assert {row["scheme"] for row in measured} == set(
        scheme_registry.available())
    for row in measured:
        assert med(row["reaches_ns"]) > 0
        assert med(row["query_many_ns"]) > 0
        assert row["total_bits"] > 0
    for size in {row["run_size"] for row in measured
                 if row["family"] == "bioaid-norec"}:
        bits = {row["scheme"]: row["total_bits"] for row in measured
                if row["family"] == "bioaid-norec" and row["run_size"] == size}
        assert bits["drl"] < bits["naive"] / 4


def test_kernels_compare_packed_with_reference(small):
    rows = {row["scheme"]: row for row in small("kernels").rows}
    assert set(rows) == {"drl", "drl-reference"}
    assert med(rows["drl"]["query_many_ns"]) > 0


# ---------------------------------------------------------------------------
# the committed record
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


def test_the_record_is_complete(record):
    assert {"git_sha", "python", "cpu_count"} <= set(record)
    assert record["config"]["repeats"] == REPEATS
    assert {"scale", "samples", "queries", "seed"} <= set(record["config"])
    assert set(record["experiments"]) == set(EXPERIMENTS)
    for name, entry in record["experiments"].items():
        assert entry["rows"], name
        assert entry["verdict"] in ("holds", "diverges"), name
        for row in entry["rows"]:
            assert list(row) == entry["columns"], name
            for column, value in row.items():
                if column.endswith(("_ms", "_us", "_ns")) and value is not None:
                    assert value["n"] == REPEATS, (name, column)
                if isinstance(value, dict):
                    assert value["q1"] <= value["median"] <= value["q3"], (
                        name, column)


def test_each_committed_verdict_follows_from_its_rows(record):
    for name, entry in record["experiments"].items():
        assert EXPERIMENTS[name].verdict(entry["rows"]) == {
            "measured": entry["measured"], "verdict": entry["verdict"],
        }, name
