"""Tests for the observability layer (:mod:`repro.obs`) and its wiring.

Covers the histogram primitive itself (bucket boundaries, exact merge
associativity, quantile error bounds against sorted-sample ground
truth, snapshot immutability), the metrics registry and its Prometheus
exposition, tracing (span nesting, ambient propagation, the slow-query
log with a full span timeline for an artificially slowed query), the
structured-log formatters, and the end-to-end paths: a client-sent
``trace_id`` landing in the durable WAL over live TCP, consistent
engine stats under concurrent query load, and error-path latency
accounting.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import logging
import random
import sys
import threading
import time
import urllib.request

import pytest

from repro.errors import LabelingError
from repro.loadgen import get_scenario, run_scenario
from repro.loadgen.driver import engine_driver_factory
from repro.obs import (
    NULL,
    Histogram,
    HistogramSnapshot,
    JsonLineFormatter,
    MetricsExporter,
    MetricsRegistry,
    TextLineFormatter,
    Trace,
    Tracer,
    activate,
    current_trace,
    current_trace_id,
    default_registry,
    log_event,
    merge_snapshots,
    new_trace_id,
    parse_prometheus_text,
)
from repro.obs.histogram import NUM_BUCKETS, bucket_bounds, bucket_index
from repro.obs.metrics import observe_gc_pauses
from repro.obs.names import GC_PAUSE_SECONDS, series_count
from repro.service import QueryEngine, ServiceClient, SessionManager
from repro.service.protocol import Request
from repro.service.server import ReproServer, ReproService
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation


def make_execution(spec, size=200, seed=0):
    run = sample_run(spec, size, random.Random(seed))
    return run, execution_from_derivation(run)


@pytest.fixture(scope="module")
def run_and_execution(running_spec):
    return make_execution(running_spec)


# ---------------------------------------------------------------------------
# histogram: buckets, merging, quantiles, immutability
# ---------------------------------------------------------------------------


class TestHistogramBuckets:
    def test_bucket_boundaries(self):
        # bucket 0 is [0, 2); bucket i is [2^i, 2^(i+1))
        assert bucket_index(0) == 0
        assert bucket_index(1) == 0
        assert bucket_index(2) == 1
        assert bucket_index(3) == 1
        assert bucket_index(4) == 2
        for i in range(1, 20):
            lo, hi = bucket_bounds(i)
            assert lo == 1 << i and hi == 1 << (i + 1)
            # boundary values land in the right bucket on both sides
            assert bucket_index(lo) == i
            assert bucket_index(hi - 1) == i
            assert bucket_index(hi) == i + 1

    def test_top_bucket_clips_not_overflows(self):
        assert bucket_index(1 << 200) == NUM_BUCKETS - 1

    def test_record_negative_clamped_to_zero(self):
        hist = Histogram()
        hist.record(-1.0)
        snap = hist.snapshot()
        assert snap.count == 1
        assert snap.min_ns == snap.max_ns == 0

    def test_record_seconds_is_nanosecond_buckets(self):
        hist = Histogram()
        hist.record(1e-6)  # 1000 ns -> bucket 9 ([512, 1024))
        snap = hist.snapshot()
        assert snap.counts[bucket_index(1000)] == 1
        assert snap.sum_ns == 1000

    def test_len_counts_records(self):
        hist = Histogram()
        assert len(hist) == 0
        for _ in range(5):
            hist.record_ns(7)
        assert len(hist) == 5


class TestHistogramMerge:
    def test_merge_is_exactly_associative(self):
        rng = random.Random(42)
        snaps = []
        for _ in range(9):
            hist = Histogram()
            for _ in range(rng.randrange(1, 200)):
                hist.record_ns(rng.randrange(0, 10**9))
            snaps.append(hist.snapshot())
        # any grouping yields the identical aggregate, field for field
        left = merge_snapshots(snaps)
        right = snaps[0]
        for snap in snaps[1:]:
            right = right.merge(snap)
        paired = merge_snapshots(
            [merge_snapshots(snaps[:4]), merge_snapshots(snaps[4:])]
        )
        assert left == right == paired

    def test_merge_empty_identity(self):
        hist = Histogram()
        hist.record_ns(123)
        snap = hist.snapshot()
        empty = HistogramSnapshot.empty()
        assert empty.merge(snap) == snap
        assert snap.merge(empty) == snap
        assert merge_snapshots([None, snap, None]) == snap

    def test_merge_matches_single_population(self):
        rng = random.Random(7)
        samples = [rng.randrange(0, 10**7) for _ in range(500)]
        whole = Histogram()
        parts = [Histogram() for _ in range(4)]
        for index, ns in enumerate(samples):
            whole.record_ns(ns)
            parts[index % 4].record_ns(ns)
        merged = merge_snapshots(part.snapshot() for part in parts)
        assert merged == whole.snapshot()


class TestHistogramQuantiles:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quantile_within_factor_two_of_sorted_sample(self, seed):
        rng = random.Random(seed)
        # a lognormal-ish latency population spanning several decades
        samples = sorted(
            int(10 ** rng.uniform(2, 8)) for _ in range(2000)
        )
        hist = Histogram()
        for ns in samples:
            hist.record_ns(ns)
        snap = hist.snapshot()
        for q in (0.1, 0.25, 0.5, 0.9, 0.95, 0.99):
            rank = min(len(samples) - 1, max(0, -(-int(q * len(samples))) - 1))
            truth = samples[rank]
            estimate = snap.quantile(q) * 1e9
            assert truth / 2 <= estimate <= truth * 2, (
                f"q={q}: estimate {estimate} vs truth {truth}"
            )

    def test_extremes_are_exact(self):
        hist = Histogram()
        for ns in (10, 500, 9000):
            hist.record_ns(ns)
        snap = hist.snapshot()
        assert snap.quantile(0.0) == pytest.approx(10 / 1e9)
        assert snap.quantile(1.0) == pytest.approx(9000 / 1e9)
        assert snap.min_seconds == pytest.approx(10 / 1e9)
        assert snap.max_seconds == pytest.approx(9000 / 1e9)

    def test_percentiles_monotonic(self):
        rng = random.Random(3)
        hist = Histogram()
        for _ in range(1000):
            hist.record(rng.expovariate(1000.0))
        snap = hist.snapshot()
        doc = snap.to_dict()
        assert doc["min"] <= doc["p50"] <= doc["p95"] <= doc["p99"]
        assert doc["p99"] <= doc["max"]
        assert doc["count"] == 1000

    def test_empty_snapshot_statistics(self):
        snap = HistogramSnapshot.empty()
        assert snap.quantile(0.5) == 0.0
        assert snap.mean_seconds == 0.0
        assert snap.to_dict()["count"] == 0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            HistogramSnapshot.empty().quantile(1.5)

    def test_snapshot_is_immutable(self):
        hist = Histogram()
        hist.record_ns(5)
        snap = hist.snapshot()
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.count = 99
        # and detached from the live histogram
        before = snap.count
        hist.record_ns(6)
        assert snap.count == before


# ---------------------------------------------------------------------------
# registry and exposition
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_instruments_are_cached_per_series(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", op="query")
        b = registry.counter("x_total", op="query")
        c = registry.counter("x_total", op="ingest")
        assert a is b and a is not c
        assert registry.histogram("y_seconds") is registry.histogram(
            "y_seconds"
        )

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("req_total", op="query").inc(3)
        registry.histogram("lat_seconds", op="query").record(0.01)
        snap = registry.snapshot()
        assert snap["counters"] == [
            {"name": "req_total", "labels": {"op": "query"}, "value": 3}
        ]
        (hist,) = snap["histograms"]
        assert hist["name"] == "lat_seconds"
        assert hist["labels"] == {"op": "query"}
        assert hist["count"] == 1

    def test_null_registry_is_inert(self):
        NULL.counter("anything").inc(5)
        NULL.histogram("anything").record(1.0)
        assert NULL.snapshot() == {"counters": [], "histograms": []}
        assert not NULL.enabled
        parse_prometheus_text(NULL.render_prometheus())

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", op="query",
                         status="ok").inc(7)
        hist = registry.histogram("repro_op_latency_seconds", op="query")
        for ns in (100, 1000, 50_000, 2_000_000):
            hist.record_ns(ns)
        series = parse_prometheus_text(registry.render_prometheus())
        (counter,) = series["repro_requests_total"]
        assert counter["value"] == 7
        assert counter["labels"] == {"op": "query", "status": "ok"}
        buckets = series["repro_op_latency_seconds_bucket"]
        # cumulative and monotone, +Inf equals the count
        values = [sample["value"] for sample in buckets]
        assert values == sorted(values)
        assert buckets[-1]["labels"]["le"] == "+Inf"
        assert buckets[-1]["value"] == 4
        (count,) = series["repro_op_latency_seconds_count"]
        assert count["value"] == 4
        (total,) = series["repro_op_latency_seconds_sum"]
        assert total["value"] == pytest.approx(2_051_100 / 1e9)

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", label='quo"te\nnl').inc()
        series = parse_prometheus_text(registry.render_prometheus())
        assert "odd_total" in series

    def test_parser_rejects_malformed_lines(self):
        for bad in ("no_value", "name{unclosed 3", "name{x=y} 1",
                    "name 12 34 not-a-float"):
            with pytest.raises(ValueError):
                parse_prometheus_text(bad)

    def test_exporter_serves_scrapes(self):
        registry = MetricsRegistry()
        registry.counter("up_total").inc()
        exporter = MetricsExporter(registry.render_prometheus).start()
        try:
            url = f"http://127.0.0.1:{exporter.port}/metrics"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
                text = response.read().decode("utf-8")
            series = parse_prometheus_text(text)
            assert series["up_total"][0]["value"] == 1
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{exporter.port}/other", timeout=10
                )
        finally:
            exporter.stop()


class TestCollectorPauses:
    def pauses(self, generation):
        return default_registry().histogram(
            GC_PAUSE_SECONDS, generation=str(generation)
        )

    def test_every_collection_lands_in_its_generation(self):
        import repro.service.sessions  # noqa: F401 - installs the hook

        before = self.pauses(2).snapshot().count
        gc.collect()
        gc.collect(0)
        after = self.pauses(2).snapshot()
        assert after.count == before + 1
        assert self.pauses(0).snapshot().count >= 1
        scrape = parse_prometheus_text(
            default_registry().render_prometheus()
        )
        generations = {
            sample["labels"]["generation"]
            for sample in scrape[series_count(GC_PAUSE_SECONDS)]
        }
        assert generations == {"0", "1", "2"}

    def test_the_hook_is_installed_once(self):
        observe_gc_pauses()
        observe_gc_pauses()
        hooks = [
            hook for hook in gc.callbacks
            if getattr(hook, "__module__", None) == "repro.obs.metrics"
        ]
        assert len(hooks) == 1

    def test_a_collection_inside_the_histograms_own_lock(self):
        """The hook records from whatever allocation set a collection
        off -- possibly a snapshot of the very histogram it records
        into, on the same thread, holding its lock."""
        observe_gc_pauses()
        histogram = self.pauses(2)
        before = histogram.snapshot().count

        def collect_under_the_lock():
            with histogram._lock:
                gc.collect()

        worker = threading.Thread(target=collect_under_the_lock, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "the pause hook deadlocked"
        assert histogram.snapshot().count == before + 1


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class TestTracing:
    def test_trace_ids_unique_and_hex(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)

    def test_span_nesting_depths(self):
        trace = Trace("query")
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        trace.finish()
        spans = {span.name: span for span in trace.spans}
        assert spans["inner"].depth == 2
        assert spans["outer"].depth == 1
        # inner closed first, and fits inside outer's window
        assert trace.spans[0].name == "inner"
        outer, inner = spans["outer"], spans["inner"]
        assert inner.start_ns >= outer.start_ns
        assert (inner.start_ns + inner.duration_ns
                <= outer.start_ns + outer.duration_ns)

    def test_activation_nests_and_restores(self):
        assert current_trace() is None
        outer, inner = Trace("a", trace_id="out"), Trace("b", trace_id="in")
        with activate(outer):
            assert current_trace_id() == "out"
            with activate(inner):
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is None and current_trace_id() is None

    def test_tracer_rings_are_bounded(self):
        tracer = Tracer(capacity=4, slow_capacity=2, slow_threshold=0.0)
        for index in range(10):
            tracer.finish(tracer.start("query", trace_id=f"t{index}"))
        summary = tracer.summary()
        assert summary["finished"] == 10
        assert summary["retained"] == 4
        assert summary["slow"] == 10  # threshold 0: everything is slow
        assert summary["slow_retained"] == 2
        assert [t["trace_id"] for t in tracer.recent()] == [
            "t6", "t7", "t8", "t9"
        ]
        assert [t["trace_id"] for t in tracer.slow()] == ["t8", "t9"]

    def test_fast_traces_skip_the_slow_log(self):
        records = []
        logger = _capture_logger("test-obs-fast", records)
        tracer = Tracer(slow_threshold=30.0, logger=logger)
        tracer.finish(tracer.start("query"))
        assert records == []
        assert tracer.summary()["slow"] == 0

    def test_slow_trace_emits_timeline(self):
        records = []
        logger = _capture_logger("test-obs-slow", records)
        tracer = Tracer(slow_threshold=0.0, logger=logger)
        trace = tracer.start("query", trace_id="slow-1")
        with trace.span("kernel"):
            pass
        tracer.finish(trace, status="ok")
        (record,) = records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == "slow-query"
        fields = record.fields
        assert fields["trace_id"] == "slow-1"
        assert fields["op"] == "query"
        assert [span["name"] for span in fields["spans"]] == ["kernel"]
        assert fields["threshold_s"] == 0.0


class TestSlowQueryLogEndToEnd:
    def test_artificially_slow_query_logs_full_timeline(
        self, running_spec, run_and_execution, monkeypatch
    ):
        """An artificially slowed request crosses the tracer threshold
        and lands in the slow-query log with its full span timeline."""
        records = []
        logger = _capture_logger("test-obs-slow-e2e", records)
        service = ReproService(
            tracer=Tracer(slow_threshold=0.01, logger=logger)
        )
        run, execution = run_and_execution
        service.handle(Request(op="create_session", params={
            "name": "slow", "spec": "running-example",
        }))
        from repro.service.protocol import insertions_to_wire

        service.handle(Request(op="ingest", params={
            "session": "slow",
            "insertions": insertions_to_wire(execution.insertions),
        }))
        real_query_many = service.engine.query_many

        def slowed(*args, **kwargs):
            time.sleep(0.05)
            return real_query_many(*args, **kwargs)

        monkeypatch.setattr(service.engine, "query_many", slowed)
        vid = sorted(run.graph.vertices())[0]
        response = service.handle(Request(
            op="query",
            params={"session": "slow", "source": vid, "target": vid},
            trace_id="slowed-query",
        ))
        assert response.ok and response.trace_id == "slowed-query"
        slow_logged = [
            r for r in records
            if r.getMessage() == "slow-query"
            and r.fields["trace_id"] == "slowed-query"
        ]
        (record,) = slow_logged
        fields = record.fields
        assert fields["op"] == "query"
        assert fields["session"] == "slow"
        assert fields["duration_us"] >= 50_000
        names = [span["name"] for span in fields["spans"]]
        assert "kernel" in names
        # the tracer's slow ring retains the same trace
        assert any(
            t["trace_id"] == "slowed-query" for t in service.tracer.slow()
        )


def _capture_logger(name: str, records: list) -> logging.Logger:
    """A quiet logger appending every record to ``records``."""

    class _Capture(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            records.append(record)

    logger = logging.getLogger(name)
    logger.handlers = [_Capture()]
    logger.propagate = False
    logger.setLevel(logging.DEBUG)
    return logger


# ---------------------------------------------------------------------------
# structured logging
# ---------------------------------------------------------------------------


class TestStructuredLogs:
    def test_json_formatter_emits_parsable_lines(self):
        records = []
        logger = _capture_logger("test-obs-json", records)
        log_event(logger, logging.INFO, "connection-open",
                  peer="127.0.0.1:1", requests=3)
        doc = json.loads(JsonLineFormatter().format(records[0]))
        assert doc["event"] == "connection-open"
        assert doc["level"] == "info"
        assert doc["peer"] == "127.0.0.1:1"
        assert doc["requests"] == 3
        assert doc["logger"] == "test-obs-json"
        assert "trace_id" not in doc  # no trace active

    def test_json_formatter_attaches_active_trace(self):
        records = []
        logger = _capture_logger("test-obs-json-trace", records)
        with activate(Trace("query", trace_id="tid-log")):
            log_event(logger, logging.WARNING, "request-error", code=7)
            doc = json.loads(JsonLineFormatter().format(records[0]))
        assert doc["trace_id"] == "tid-log"
        assert doc["code"] == 7

    def test_text_formatter_renders_fields(self):
        records = []
        logger = _capture_logger("test-obs-text", records)
        log_event(logger, logging.INFO, "checkpoint-roll",
                  session="s", seconds=0.25)
        line = TextLineFormatter().format(records[0])
        assert "checkpoint-roll" in line
        assert "session=s" in line and "seconds=0.25" in line

    def test_log_event_respects_level(self):
        records = []
        logger = _capture_logger("test-obs-level", records)
        logger.setLevel(logging.WARNING)
        log_event(logger, logging.DEBUG, "ignored")
        log_event(logger, logging.ERROR, "kept")
        assert [r.getMessage() for r in records] == ["kept"]


# ---------------------------------------------------------------------------
# engine accounting: error paths and consistent stats
# ---------------------------------------------------------------------------


class TestEngineAccounting:
    def test_error_path_accounted_separately(
        self, running_spec, run_and_execution
    ):
        run, execution = run_and_execution
        manager = SessionManager()
        registry = MetricsRegistry()
        engine = QueryEngine(manager, metrics=registry)
        manager.create("a", running_spec)
        engine.ingest("a", execution.insertions)
        vids = sorted(run.graph.vertices())
        engine.query_many("a", [(vids[0], vids[1])])
        before = engine.stats()
        with pytest.raises(LabelingError):
            engine.query_many("a", [(vids[0], 10**9)])
        after = engine.stats()
        # the poisoned batch never touches the normal counters...
        assert after.queries == before.queries
        assert after.query_seconds == before.query_seconds
        # ...but its elapsed time is accounted under the error counters
        assert after.query_errors == before.query_errors + 1
        assert after.query_error_seconds > before.query_error_seconds
        assert registry.counter("repro_engine_errors_total").value == 1
        errored = registry.histogram("repro_engine_errored_seconds")
        assert errored.snapshot().count == 1
        assert "query_errors" in after.to_dict()

    def test_errored_ingest_accounted(self, running_spec):
        manager = SessionManager()
        registry = MetricsRegistry()
        engine = QueryEngine(manager, metrics=registry)
        manager.create("a", running_spec)
        with pytest.raises(Exception):
            engine.ingest("a", [object()])  # not an insertion record
        assert registry.counter("repro_engine_errors_total").value == 1

    def test_stage_histograms_populate(
        self, running_spec, run_and_execution
    ):
        run, execution = run_and_execution
        manager = SessionManager()
        registry = MetricsRegistry()
        engine = QueryEngine(manager, metrics=registry)
        manager.create("a", running_spec)
        # the session layer's label_build histogram binds to the
        # process default registry (sessions are engine-independent)
        label_build = default_registry().histogram(
            "repro_engine_stage_seconds", stage="label_build"
        )
        built_before = label_build.snapshot().count
        engine.ingest("a", execution.insertions)
        assert label_build.snapshot().count > built_before
        vids = sorted(run.graph.vertices())
        pairs = [(vids[0], vids[1]), (vids[1], vids[2])]
        engine.query_many("a", pairs)
        engine.query_many("a", pairs)
        kernel = registry.histogram(
            "repro_engine_stage_seconds", stage="kernel"
        ).snapshot()
        assert kernel.count == 2

    def test_null_registry_disables_stage_recording(
        self, running_spec, run_and_execution
    ):
        run, execution = run_and_execution
        manager = SessionManager()
        engine = QueryEngine(manager, metrics=NULL)
        manager.create("a", running_spec)
        engine.ingest("a", execution.insertions)
        vids = sorted(run.graph.vertices())
        answers = engine.query_many("a", [(vids[0], vids[1])])
        assert len(answers) == 1  # still correct, just uninstrumented
        assert not engine._observe

    def test_stats_consistent_under_concurrent_queries(
        self, running_spec, run_and_execution
    ):
        """Snapshots taken while query batches are in flight never go
        backwards, and the final count is exactly the pairs answered."""
        run, execution = run_and_execution
        manager = SessionManager()
        engine = QueryEngine(manager, metrics=MetricsRegistry())
        vids = sorted(run.graph.vertices())
        for name in ("s0", "s1", "s2"):
            manager.create(name, running_spec)
            engine.ingest(name, execution.insertions)
        stop = threading.Event()
        failures: list = []
        answered = [0] * 4

        def hammer(worker: int) -> None:
            rng = random.Random(worker)
            names = ("s0", "s1", "s2")
            try:
                while not stop.is_set():
                    pairs = [
                        (rng.choice(vids), rng.choice(vids))
                        for _ in range(rng.randrange(1, 32))
                    ]
                    engine.query_many(rng.choice(names), pairs)
                    answered[worker] += len(pairs)
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,), daemon=True)
            for w in range(4)
        ]
        # frequent thread switches make a lost counter update likely
        # if the engine ever stops holding its lock for the additions
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 0.5
            snapshots = 0
            last = engine.stats()
            while time.monotonic() < deadline:
                stats = engine.stats()
                assert stats.queries >= last.queries, "stats went backwards"
                assert stats.query_seconds >= last.query_seconds
                last = stats
                snapshots += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert snapshots > 10
        final = engine.stats()
        assert final.queries > 0
        assert final.queries == sum(answered)
        assert final.query_errors == 0


# ---------------------------------------------------------------------------
# end-to-end: trace ids over live TCP, the metrics op, WAL stamping
# ---------------------------------------------------------------------------


class TestTracePropagationOverTCP:
    def test_client_trace_id_reaches_the_wal(self, tmp_path, running_spec):
        run, execution = make_execution(running_spec, size=80, seed=2)
        service = ReproService(data_dir=str(tmp_path))
        server = ReproServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                client.create_session("walsess", "running-example")
                events = execution.insertions
                client.ingest("walsess", events[:10], trace_id="tid-wal-1")
                client.ingest("walsess", events[10:20])
                # chunked+pipelined queries carry the id too (the echo
                # proves the server accepted it on every chunk)
                vids = sorted(ins.vid for ins in events[:10])
                pairs = [(vids[0], v) for v in vids]
                client.query_batch(
                    "walsess", pairs, chunk=3, trace_id="tid-batch"
                )
            wal_path = service.store.session_dir("walsess") / "wal.jsonl"
            stamped = []
            untagged = 0
            for line in wal_path.read_text().splitlines():
                record = json.loads(line)
                if record.get("trace_id"):
                    stamped.append(record["trace_id"])
                elif record.get("insertions"):
                    untagged += 1
            # the traced ingest's record carries the client's id; the
            # untraced ingest still gets the server-minted one
            assert "tid-wal-1" in stamped
            assert untagged == 0
            assert len(stamped) == 2
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_response_echoes_or_mints_trace_id(self, server_fixture):
        server = server_fixture
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.call("ping", trace_id="echo-me")["pong"]
            # the service's trace ring retains the client's id
            recent = server.service.tracer.recent()
            assert any(t["trace_id"] == "echo-me" for t in recent)
            client.ping()  # no id: the server mints one
            minted = server.service.tracer.recent()[-1]["trace_id"]
            assert len(minted) == 16 and int(minted, 16) >= 0

    def test_metrics_op_over_tcp(self, server_fixture, running_spec):
        server = server_fixture
        run, execution = make_execution(running_spec, size=60, seed=5)
        with ServiceClient("127.0.0.1", server.port) as client:
            client.create_session("m", "running-example")
            client.ingest("m", execution.insertions)
            vids = sorted(run.graph.vertices())
            client.query_batch("m", [(vids[0], vids[1])])
            metrics = client.metrics()
        by_name: dict = {}
        for hist in metrics["histograms"]:
            by_name.setdefault(hist["name"], []).append(hist)
        latency_ops = {
            h["labels"].get("op")
            for h in by_name["repro_op_latency_seconds"]
            if h["count"]
        }
        assert {"create_session", "ingest", "query_batch"} <= latency_ops
        stages = {
            h["labels"].get("stage")
            for h in by_name["repro_engine_stage_seconds"]
        }
        assert "kernel" in stages
        for hist in by_name["repro_op_latency_seconds"]:
            assert hist["p50"] <= hist["p95"] <= hist["p99"]
        # create_session + ingest + query_batch have finished; the
        # metrics request itself is still in flight when it answers
        assert metrics["traces"]["finished"] >= 3
        statuses = {
            (c["labels"].get("op"), c["labels"].get("status"))
            for c in metrics["counters"]
            if c["name"] == "repro_requests_total" and c["value"]
        }
        assert ("query_batch", "ok") in statuses

    def test_request_errors_counted_by_status(self, server_fixture):
        server = server_fixture
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(Exception):
                client.query("ghost", 1, 2)
            metrics = client.metrics()
        errored = [
            c for c in metrics["counters"]
            if c["name"] == "repro_requests_total"
            and c["labels"] == {"op": "query", "status": "error"}
        ]
        assert errored and errored[0]["value"] >= 1


@pytest.fixture()
def server_fixture():
    """A server over a private registry, so assertions see only its own
    traffic (the process-default registry is shared suite-wide)."""
    service = ReproService(metrics=MetricsRegistry())
    server = ReproServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


# ---------------------------------------------------------------------------
# loadgen report latency summaries
# ---------------------------------------------------------------------------


class TestLoadgenLatency:
    def test_report_latency_percentiles_monotonic(self):
        scenario = get_scenario("mixed")
        engine = QueryEngine(SessionManager())
        report = run_scenario(
            scenario,
            engine_driver_factory(engine),
            duration=0.4,
            workers=2,
            seed=1,
        )
        assert report.ok, report.errors
        for summary in (report.query_latency, report.ingest_latency):
            assert summary["count"] > 0
            assert summary["min"] <= summary["p50"] <= summary["p95"]
            assert summary["p95"] <= summary["p99"] <= summary["max"]
        doc = report.to_dict()
        assert doc["query_latency"] == report.query_latency
        assert doc["ingest_latency"] == report.ingest_latency
