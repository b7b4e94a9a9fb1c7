"""Tests for the command-line interface (invoked in-process)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestInfo:
    def test_builtin_spec(self, capsys):
        code, out = run_cli(capsys, "info", "running-example")
        assert code == 0
        assert "linear-recursive" in out
        assert "naming conditions: satisfied" in out

    def test_spec_from_file(self, capsys, tmp_path, running_spec):
        from repro.io import save_specification_json

        path = tmp_path / "spec.json"
        save_specification_json(running_spec, path)
        code, out = run_cli(capsys, "info", str(path))
        assert code == 0
        assert "running-example" in out

    def test_unknown_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["info", "no-such-spec"])


class TestPipeline:
    def test_derive_label_query_round_trip(self, capsys, tmp_path):
        exec_path = tmp_path / "run.json"
        labels_path = tmp_path / "labels.json"

        code, out = run_cli(
            capsys, "derive", "running-example", "-o", str(exec_path),
            "--size", "300", "--seed", "5",
        )
        assert code == 0
        assert "derived run" in out

        code, out = run_cli(
            capsys, "label", "running-example", str(exec_path),
            "-o", str(labels_path), "--mode", "logged",
        )
        assert code == 0
        assert "labeled" in out

        events = json.loads(exec_path.read_text())["insertions"]
        first, last = events[0]["vid"], events[-1]["vid"]
        code, out = run_cli(
            capsys, "query", "running-example", str(labels_path),
            str(first), str(last),
        )
        assert code == 0  # reachable -> exit 0
        assert "True" in out
        code, out = run_cli(
            capsys, "query", "running-example", str(labels_path),
            str(last), str(first),
        )
        assert code == 1  # unreachable -> exit 1
        assert "False" in out

    def test_label_name_mode(self, capsys, tmp_path):
        exec_path = tmp_path / "run.xml"
        labels_path = tmp_path / "labels.json"
        run_cli(
            capsys, "derive", "bioaid", "-o", str(exec_path),
            "--size", "200", "--seed", "1",
        )
        code, out = run_cli(
            capsys, "label", "bioaid", str(exec_path),
            "-o", str(labels_path), "--mode", "name",
        )
        assert code == 0

    def test_query_unknown_vertex(self, capsys, tmp_path):
        exec_path = tmp_path / "run.json"
        labels_path = tmp_path / "labels.json"
        run_cli(capsys, "derive", "running-example", "-o", str(exec_path),
                "--size", "100", "--seed", "2")
        run_cli(capsys, "label", "running-example", str(exec_path),
                "-o", str(labels_path))
        with pytest.raises(SystemExit):
            main([
                "query", "running-example", str(labels_path),
                "999999", "0",
            ])


class TestNormalize:
    def test_normalize_writes_spec(self, capsys, tmp_path, theorem1_spec):
        from repro.io import load_specification_json, save_specification_json
        from repro.workflow.validation import naming_condition_violations

        spec_path = tmp_path / "thm1.json"
        save_specification_json(theorem1_spec, spec_path)
        out_path = tmp_path / "normalized.json"
        code, out = run_cli(
            capsys, "normalize", str(spec_path), "-o", str(out_path)
        )
        assert code == 0
        assert "names rewritten" in out
        normalized = load_specification_json(out_path)
        assert naming_condition_violations(normalized) == []


class TestBench:
    def test_bench_single_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        monkeypatch.setenv("REPRO_SAMPLES", "1")
        monkeypatch.setenv("REPRO_QUERIES", "500")
        code, out = run_cli(capsys, "bench", "tab2")
        assert code == 0
        assert "tab2" in out

    def test_bench_writes_the_output_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        monkeypatch.setenv("REPRO_SAMPLES", "1")
        monkeypatch.setenv("REPRO_QUERIES", "500")
        target = tmp_path / "record.json"
        code, out = run_cli(capsys, "bench", "tab2", "--output", str(target))
        assert code == 0
        assert f"wrote {target}" in out
        record = json.loads(target.read_text())
        assert list(record["experiments"]) == ["tab2"]


class TestSchemeCheck:
    @pytest.mark.parametrize("argv", [
        ["label", "running-example", "run.json", "-o", "labels.json",
         "--scheme", "grail"],
        ["label", "running-example", "run.json", "-o", "labels.json",
         "--scheme", "no-such-scheme"],
    ])
    def test_a_scheme_that_is_not_dynamic_is_refused(self, argv):
        from repro.schemes import registry

        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert message.startswith(f"unknown dynamic scheme {argv[-1]!r}")
        for name in registry.available(dynamic=True):
            assert repr(name) in message


class TestRetiredFlags:
    @pytest.mark.parametrize("argv", [
        ["serve", "--shards", "2"],
        ["serve", "--selftest"],
        ["serve", "--scheme", "drl"],
        ["serve", "--spec", "running-example"],
        ["serve", "--size", "150"],
        ["serve", "--seed", "1"],
        ["loadgen", "--shards", "2"],
        ["lint", "--jobs", "2"],
        ["lint", "--graph", "out.dot"],
        ["lint", "--graph-full"],
        ["lint", "--sarif", "out.sarif"],
        ["lint", "--baseline", "base.json"],
        ["lint", "--no-baseline"],
        ["lint", "--update-baseline"],
    ])
    def test_flag_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse: unrecognized arguments
        assert "unrecognized arguments" in capsys.readouterr().err
