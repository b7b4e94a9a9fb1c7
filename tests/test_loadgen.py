"""Tests for the load generator (repro.loadgen)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServiceError
from repro.loadgen import (
    Scenario,
    client_driver_factory,
    engine_driver_factory,
    get_scenario,
    run_scenario,
    scenarios,
)
from repro.schemes import registry as scheme_registry
from repro.service import QueryEngine, ReproServer, SessionManager
from repro.service.server import ReproService

# short but long enough that every worker completes setup + a few ops
SMOKE_SECONDS = 0.4


def smoke_scenario(**overrides):
    """A fast mixed scenario for the in-process smoke runs."""
    defaults = dict(
        name="smoke",
        summary="test scenario",
        sessions=2,
        run_size=80,
        prefill=24,
        query_fraction=0.6,
        batch_pairs=16,
        ingest_chunk=16,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenarios:
    def test_catalog_covers_the_issue_regimes(self):
        catalog = scenarios()
        for required in (
            "mixed",
            "ingest-heavy",
            "query-heavy",
            "hot-key",
            "many-small-sessions",
        ):
            assert required in catalog
            assert catalog[required].summary

    def test_catalog_sweeps_every_dynamic_scheme(self):
        catalog = scenarios()
        for scheme in scheme_registry.available(dynamic=True):
            scenario = catalog[f"scheme-{scheme}"]
            assert scenario.scheme == scheme

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ServiceError):
            get_scenario("no-such-scenario")
        assert get_scenario("hot-key").hot_fraction > 0


class TestInProcess:
    def test_mixed_run_verified_against_bfs(self):
        manager = SessionManager()
        engine = QueryEngine(manager)
        report = run_scenario(
            smoke_scenario(),
            engine_driver_factory(engine),
            duration=SMOKE_SECONDS,
            verify=True,
        )
        assert report.ok, report.errors
        assert report.operations > 0
        assert report.queries > 0 and report.ingested > 0
        assert report.transport == "in-process"
        assert report.stats["queries"] == report.queries
        # every worker closed its session on the way out
        assert len(manager) == 0

    def test_run_churns_sessions_when_runs_complete(self):
        manager = SessionManager()
        engine = QueryEngine(manager)
        report = run_scenario(
            smoke_scenario(
                run_size=40, prefill=16, query_fraction=0.1,
                ingest_chunk=16,
            ),
            engine_driver_factory(engine),
            duration=SMOKE_SECONDS,
            workers=2,
        )
        assert report.ok, report.errors
        assert report.sessions_created > 2  # churned past the first pair
        assert report.sessions_closed == report.sessions_created

    def test_hot_key_skew_answers_verified(self):
        manager = SessionManager()
        engine = QueryEngine(manager)
        report = run_scenario(
            smoke_scenario(
                query_fraction=1.0, hot_fraction=1.0, hot_keys=0.1,
                prefill=80,
            ),
            engine_driver_factory(engine),
            duration=SMOKE_SECONDS,
            verify=True,
        )
        assert report.ok, report.errors
        assert report.queries > 0
        assert report.stats["queries"] == report.queries

    def test_errors_are_captured_not_raised(self):
        """A runtime failure (a static scheme cannot host a live
        session) lands in the report, not as an exception."""
        manager = SessionManager()
        engine = QueryEngine(manager)
        report = run_scenario(
            smoke_scenario(scheme="skl"),
            engine_driver_factory(engine),
            duration=SMOKE_SECONDS,
            workers=1,
        )
        assert not report.ok
        assert any("static" in error for error in report.errors)

    def test_unknown_spec_raises_at_synthesis(self):
        """A misconfigured scenario fails fast, before any threads."""
        factory = engine_driver_factory(QueryEngine(SessionManager()))
        with pytest.raises(ServiceError):
            run_scenario(
                smoke_scenario(spec="no-such-spec"), factory,
                duration=SMOKE_SECONDS,
            )

    def test_bad_arguments_rejected(self):
        factory = engine_driver_factory(QueryEngine(SessionManager()))
        with pytest.raises(ValueError):
            run_scenario(smoke_scenario(), factory, duration=0)
        with pytest.raises(ValueError):
            run_scenario(smoke_scenario(), factory, duration=1, workers=0)


class TestOverTcp:
    def test_tcp_run_against_live_server(self):
        server = ReproServer(("127.0.0.1", 0), ReproService())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            report = run_scenario(
                smoke_scenario(),
                client_driver_factory("127.0.0.1", server.port, chunk=8),
                duration=SMOKE_SECONDS,
                verify=True,
            )
            assert report.ok, report.errors
            assert report.transport == "tcp"
            assert report.queries > 0 and report.ingested > 0
            assert report.stats["queries"] >= report.queries
            # workers closed their sessions server-side too
            assert report.stats["sessions"] == 0
        finally:
            server.shutdown()
            server.server_close()


class TestCli:
    def test_loadgen_list(self, capsys):
        from repro.cli import main

        assert main(["loadgen", "--list"]) == 0
        out = capsys.readouterr().out
        assert "query-heavy" in out and "scheme-drl" in out

    def test_loadgen_smoke_run_json(self, capsys):
        import json

        from repro.cli import main

        status = main(
            [
                "loadgen", "many-small-sessions",
                "--duration", "0.3", "--workers", "2",
                "--verify", "--json",
            ]
        )
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["operations"] > 0

    def test_loadgen_unknown_scenario_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["loadgen", "no-such-scenario", "--duration", "0.2"])
