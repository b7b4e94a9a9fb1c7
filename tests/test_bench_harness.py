"""Tests for the benchmark harness: config, the timing primitive, cells,
tables, the ``repro bench`` command and the kernel gates."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.bench.__main__ import run
from repro.bench.harness import (
    REPEATS,
    BenchConfig,
    Table,
    Timings,
    cell,
    default_config,
    fit,
    format_table,
    run_ladder,
    sampled_runs,
)
from repro.cli import main as cli_main

TINY = BenchConfig(scale=0.05, samples=1, queries=200)


@pytest.fixture
def tiny_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    monkeypatch.setenv("REPRO_SAMPLES", "1")
    monkeypatch.setenv("REPRO_QUERIES", "200")


class TestConfig:
    def test_default_config_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        monkeypatch.setenv("REPRO_SAMPLES", "7")
        monkeypatch.setenv("REPRO_QUERIES", "123")
        config = default_config()
        assert config.scale == 0.5
        assert config.samples == 7
        assert config.queries == 123

    def test_default_config_defaults_to_the_dataclass(self, monkeypatch):
        for name in ("REPRO_SCALE", "REPRO_SAMPLES", "REPRO_QUERIES"):
            monkeypatch.delenv(name, raising=False)
        assert default_config() == BenchConfig()

    def test_run_ladder_doubles(self):
        config = BenchConfig(scale=0.25)  # max 8000
        assert run_ladder(config) == [1000, 2000, 4000, 8000]

    def test_run_ladder_minimum(self):
        config = BenchConfig(scale=0.001)
        assert run_ladder(config) == [1000]

    def test_sampled_runs_deterministic(self, running_spec):
        a = sampled_runs(running_spec, 150, TINY, tag=1)
        b = sampled_runs(running_spec, 150, TINY, tag=1)
        assert [r.run_size() for r in a] == [r.run_size() for r in b]


class TestTimings:
    def test_repeats_interleave_across_a_rows_calls(self, monkeypatch):
        import gc

        order = []
        monkeypatch.setattr(gc, "collect", lambda: order.append("gc"))
        results = Timings().time({
            "a": lambda: order.append("a") or 1,
            "b": lambda: order.append("b") or 2,
        })
        assert results == {"a": 1, "b": 2}
        assert order == ["gc"] + ["gc", "a", "gc", "b"] * REPEATS
        assert gc.get_freeze_count() == 0

    def test_a_row_sums_its_calls_per_repeat(self):
        timings = Timings()
        timings.time({"x": lambda: None})
        once = list(timings.seconds["x"])
        timings.time({"x": lambda: None})
        assert len(timings.seconds["x"]) == REPEATS
        assert all(b >= a for a, b in zip(once, timings.seconds["x"]))
        summary = timings.cell("x", 1e3)
        assert summary["n"] == REPEATS
        assert summary["q1"] <= summary["median"] <= summary["q3"]

    def test_cell_is_median_and_quartiles(self):
        assert cell([5, 1, 3, 2, 4]) == {
            "median": 3, "q1": 2, "q3": 4, "n": 5}
        assert cell([7], scale=2) == {"median": 14, "q1": 14, "q3": 14, "n": 1}

    def test_fit_slope_and_r2(self):
        rows = [{"x": x, "y": 2 * x + 1} for x in (1, 2, 3, 4)]
        slope, r2 = fit(rows, "x", "y")
        assert slope == pytest.approx(2)
        assert r2 == pytest.approx(1)


class TestTable:
    def test_add_keys_rows_by_column(self):
        table = Table(id="t", title="demo", columns=["a", "b"])
        table.add(1, 2.5)
        assert table.rows == [{"a": 1, "b": 2.5}]

    def test_arity_mismatch_rejected(self):
        table = Table(id="t", title="demo", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_format_table_shows_cells_with_their_quartiles(self):
        table = Table(id="t", title="demo", columns=["name", "value"])
        table.add("row1", cell([3.0, 3.14159, 3.5]))
        text = format_table(table)
        assert "## t: demo" in text
        assert "row1" in text
        assert "3.14 [3.07, 3.32]" in text


class TestBenchCli:
    def test_unknown_experiment_exits_2(self, capsys):
        assert run(["fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_selected_experiment_prints_its_verdict(self, capsys, tiny_env):
        assert cli_main(["bench", "tab2"]) == 0
        out = capsys.readouterr().out
        assert "## tab2" in out
        assert "verdict: " in out

    def test_nothing_is_written_without_output(
        self, capsys, tiny_env, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["bench", "tab2"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_output_writes_the_json_record(self, capsys, tiny_env, tmp_path):
        path = tmp_path / "record.json"
        assert cli_main(["bench", "tab2", "--output", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        record = json.loads(path.read_text())
        assert {"git_sha", "python", "cpu_count"} <= set(record)
        assert record["config"] == {
            "scale": 0.05, "samples": 1, "queries": 200, "seed": 2011,
            "repeats": REPEATS,
        }
        entry = record["experiments"]["tab2"]
        assert entry["verdict"] in ("holds", "diverges")
        assert entry["rows"][0]["construction_ms"]["n"] == REPEATS

    def test_output_without_path_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["bench", "--output"])
        assert exit_info.value.code == 2

    def test_module_entry_point_uses_the_cli_parser(self):
        done = subprocess.run(
            [sys.executable, "-m", "repro.bench", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0
        assert "usage: repro bench" in done.stdout


class TestKernelGates:
    """``schemes`` and ``kernels`` exit 1 when a kernel disagrees."""

    @pytest.fixture
    def wrong_batch(self, monkeypatch):
        from repro.schemes.adapters import DRLScheme

        answer = DRLScheme.query_many

        def flipped(self, pairs):
            answers = answer(self, pairs)
            return [not answers[0], *answers[1:]]

        monkeypatch.setattr(DRLScheme, "query_many", flipped)

    @pytest.fixture
    def wrong_packed(self, monkeypatch):
        from repro.labeling.compact import CompactDRL

        query, many = CompactDRL.query, CompactDRL.query_many_from
        monkeypatch.setattr(
            CompactDRL, "query", lambda self, a, b: not query(self, a, b))
        monkeypatch.setattr(
            CompactDRL, "query_many_from",
            lambda self, labels, pairs: [
                not answer for answer in many(self, labels, pairs)])

    @pytest.fixture
    def unmeasured_scheme(self, monkeypatch):
        from repro.schemes import registry
        from repro.schemes.adapters import NaiveScheme

        class Unmeasured(NaiveScheme):
            name = "unmeasured"

            @classmethod
            def supports(cls, workload):
                return "labels no workload"

        # beside one real scheme, so the run stays short
        monkeypatch.setattr(registry, "_REGISTRY",
                            {"naive": NaiveScheme, "unmeasured": Unmeasured})

    @pytest.mark.parametrize("experiment, fault, message", [
        ("kernels", "wrong_batch", "query_many disagrees with reaches"),
        ("schemes", "wrong_batch", "query_many disagrees with reaches"),
        ("kernels", "wrong_packed", "packed drl disagrees"),
        ("schemes", "unmeasured_scheme", "never measured"),
    ])
    def test_a_disagreeing_kernel_exits_1(
        self, request, capsys, tiny_env, experiment, fault, message
    ):
        request.getfixturevalue(fault)
        assert cli_main(["bench", experiment]) == 1
        assert message in capsys.readouterr().out
