"""Tests for the load generator (repro.loadgen): the workload model and
the run loop against a live in-process server; the fault runs are the
matrix in tests/test_faults.py."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import ServiceError
from repro.loadgen import Workload, get_workload, run, workloads
from repro.loadgen.workload import FAULTS, Stream
from repro.schemes import registry as scheme_registry
from repro.service import ReproServer
from repro.service.server import ReproService

# short but long enough that every worker completes setup + a few ops
SMOKE_SECONDS = 0.4


def smoke_workload(**overrides):
    """A fast mixed workload for the smoke runs."""
    defaults = dict(
        name="smoke",
        summary="test workload",
        sessions=2,
        run_size=80,
        prefill=24,
        query_fraction=0.6,
        batch_pairs=16,
        ingest_chunk=16,
    )
    defaults.update(overrides)
    return Workload(**defaults)


@pytest.fixture()
def server():
    """A live in-process server: ``(host, port)`` for :func:`run`."""
    service = ReproService()
    live = ReproServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=live.serve_forever, daemon=True)
    thread.start()
    yield ("127.0.0.1", live.port)
    live.shutdown()
    live.server_close()
    service.close()


class TestWorkloads:
    def test_catalog_covers_the_issue_regimes(self):
        catalog = workloads()
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
        catalog = workloads()
        for scheme in scheme_registry.available(dynamic=True):
            workload = catalog[f"scheme-{scheme}"]
            assert workload.scheme == scheme
        assert catalog["scheme-path-position"].spec == "fig12-path"

    def test_fault_presets_keep_their_workload(self):
        for name in FAULTS:
            workload = get_workload(name)
            assert (workload.sessions, workload.run_size,
                    workload.query_fraction, workload.ingest_chunk) == (
                1, 800, 0.0, 4)
        # the crash harness's seeded run, so CI runs stay comparable
        stream = Stream(get_workload("crash-recovery"), 0, seed=0)
        assert len(stream.events) == 832

    def test_unknown_workload_rejected(self):
        with pytest.raises(ServiceError):
            get_workload("no-such-scenario")
        assert get_workload("hot-key").hot_fraction > 0

    def test_pairs_draw_acknowledged_vids_only(self):
        stream = Stream(smoke_workload(hot_fraction=0.5), 0, seed=0)
        stream.acked = [event.vid for event in stream.events[:10]]
        for a, b in stream.pairs(200):
            assert a in stream.acked and b in stream.acked


class TestRun:
    def test_mixed_run_verified_against_bfs(self, server):
        report = run(smoke_workload(), server=server,
                     duration=SMOKE_SECONDS, verify=True)
        assert report.ok, report.errors
        assert report.topology is None
        assert report.operations > 0
        assert report.queries > 0 and report.ingested > 0
        assert report.verified_pairs >= report.queries
        assert report.stats["queries"] >= report.queries
        # every session was closed server-side on the way out
        assert report.stats["sessions"] == 0
        assert report.sessions_closed == report.sessions_created

    def test_fixed_work_acknowledges_every_run(self, server):
        report = run(smoke_workload(), server=server, verify=True)
        assert report.ok, report.errors
        assert report.acknowledged == report.ingested == report.run_size
        assert report.sessions_created == 2

    def test_shared_counters_lose_no_update_under_thread_churn(self, server):
        """Eight workers on two cores, switching every 10 us: every
        acknowledged event and every query lands in the report once."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = run(smoke_workload(sessions=8, run_size=60,
                                        prefill=8, ingest_chunk=4),
                         server=server)
        finally:
            sys.setswitchinterval(interval)
        assert report.ok, report.errors
        assert report.ingested == report.acknowledged == report.run_size
        assert report.queries == report.query_batches * 16

    def test_run_churns_sessions_when_runs_complete(self, server):
        report = run(
            smoke_workload(run_size=40, prefill=16, query_fraction=0.1,
                           ingest_chunk=16),
            server=server, duration=SMOKE_SECONDS,
        )
        assert report.ok, report.errors
        assert report.sessions_created > 2  # churned past the first pair
        assert report.sessions_closed == report.sessions_created

    def test_hot_key_skew_answers_verified(self, server):
        report = run(
            smoke_workload(query_fraction=1.0, hot_fraction=1.0,
                           hot_keys=0.1, prefill=80),
            server=server, duration=SMOKE_SECONDS, verify=True,
        )
        assert report.ok, report.errors
        assert report.queries > 0
        assert report.stats["queries"] >= report.queries

    def test_errors_are_captured_not_raised(self, server):
        """A runtime failure (a static scheme cannot host a live
        session) lands in the report, not as an exception."""
        report = run(smoke_workload(scheme="skl", sessions=1),
                     server=server, duration=SMOKE_SECONDS)
        assert not report.ok
        assert any("static" in error for error in report.errors)

    def test_unknown_spec_raises_at_synthesis(self, server):
        """A misconfigured workload fails fast, before any threads."""
        with pytest.raises(ServiceError):
            run(smoke_workload(spec="no-such-spec"), server=server,
                duration=SMOKE_SECONDS)

    def test_bad_arguments_rejected(self, server):
        with pytest.raises(ValueError):
            run(smoke_workload(), server=server, duration=0)
        with pytest.raises(ValueError):
            run(smoke_workload(sessions=0), server=server, duration=1)
        with pytest.raises(ValueError):
            run(smoke_workload(query_fraction=1.0), server=server)
        with pytest.raises(ServiceError, match="a run takes"):
            run(smoke_workload(), duration=1)  # neither server nor fleet


class TestCli:
    def test_loadgen_list(self, capsys):
        from repro.cli import main

        assert main(["loadgen", "--list"]) == 0
        out = capsys.readouterr().out
        assert "query-heavy" in out and "scheme-drl" in out
        for name in FAULTS:
            assert name in out

    def test_loadgen_smoke_run_json(self, capsys):
        """Without --port a scenario spawns a single server, whose
        ``/metrics`` the checker scrapes."""
        import json

        from repro.cli import main

        status = main(
            [
                "loadgen", "many-small-sessions",
                "--duration", "0.3", "--workers", "2",
                "--verify", "--json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert status == 0, report["errors"]
        assert report["ok"] is True
        assert report["topology"] == "single"
        assert report["operations"] > 0

    def test_loadgen_unknown_scenario_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["loadgen", "no-such-scenario", "--duration", "0.2"])

    def test_a_fault_preset_refuses_a_live_server(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="drop --port"):
            main(["loadgen", "crash-recovery", "--port", "7464"])

