"""Tests for the process-per-shard cluster (repro.service.cluster).

The routing invariants the cluster stands on:

* the session -> worker hash is **stable** across processes and
  restarts (CRC-32, not the salted builtin), so a durable worker
  always remounts the directories it wrote;
* broadcast merges are **correct**: merged stats counters equal the
  sum over workers, and merged metrics histograms are *exactly* the
  sum of the per-worker raw snapshots (not averaged percentiles);
* a request naming sessions owned by different workers is rejected
  with a structured ``protocol`` error, never silently mis-routed.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time

import pytest

from repro.errors import ProtocolError, ServiceError
from repro.graphs.reachability import reaches
from repro.obs.histogram import HistogramSnapshot
from repro.obs.metrics import MetricsRegistry
from repro.service import ClusterSupervisor, ServiceClient, session_worker
from repro.service.client import IDEMPOTENT_OPS, RECONNECT_BACKOFF
from repro.service.cluster import merge_metrics, merge_stats
from repro.service.protocol import (
    Request,
    decode_request,
    encode_response,
    error_response,
)
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation

# under workers=2: crc32("alpha") % 2 == 0, crc32("beta") % 2 == 1
ALPHA, BETA = "alpha", "beta"


def make_execution(spec, size=120, seed=0):
    run = sample_run(spec, size, random.Random(seed))
    return run, execution_from_derivation(run)


def start_cluster(**kwargs):
    supervisor = ClusterSupervisor(port=0, **kwargs).start()
    thread = threading.Thread(target=supervisor.serve_forever,
                              daemon=True)
    thread.start()
    return supervisor, thread


def stop_cluster(supervisor, thread):
    supervisor.stop()
    thread.join(timeout=20)
    assert not thread.is_alive(), "router thread failed to exit"


@pytest.fixture(scope="module")
def cluster():
    supervisor, thread = start_cluster(workers=2, shards=2)
    yield supervisor
    stop_cluster(supervisor, thread)


@pytest.fixture()
def client(cluster):
    with ServiceClient("127.0.0.1", cluster.port) as c:
        yield c


def _raw_lines(port, lines):
    """Send raw protocol lines through the router; return the decoded
    replies (the connection must survive every line)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        reader = sock.makefile("r", encoding="utf-8")
        writer = sock.makefile("w", encoding="utf-8")
        replies = []
        for line in lines:
            writer.write(line + "\n")
            writer.flush()
            reply = reader.readline()
            assert reply, f"router dropped the connection after {line!r}"
            replies.append(json.loads(reply))
        return replies


# ---------------------------------------------------------------------------
# the hash
# ---------------------------------------------------------------------------


class TestSessionWorker:
    def test_stable_known_values(self):
        # frozen CRC-32 assignments: a change here would re-shard every
        # existing durable data dir
        assert session_worker("alpha", 2) == 0
        assert session_worker("beta", 2) == 1
        assert session_worker("alpha", 2) == session_worker("alpha", 2)

    def test_range_and_distribution(self):
        owners = {session_worker(f"s{i}", 4) for i in range(64)}
        assert owners <= set(range(4))
        assert len(owners) == 4  # 64 names must not pile on one worker

    def test_single_worker_owns_everything(self):
        assert all(session_worker(f"s{i}", 1) == 0 for i in range(16))

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            session_worker("a", 0)


# ---------------------------------------------------------------------------
# routing through a live cluster
# ---------------------------------------------------------------------------


class TestClusterRouting:
    def test_topology(self, cluster, client):
        info = client.cluster_info()
        assert info["cluster"] is True
        assert info["workers"] == 2
        assert len(info["per_worker"]) == 2
        assert all(row["alive"] for row in info["per_worker"])
        pids = {row["pid"] for row in info["per_worker"]}
        assert len(pids) == 2  # genuinely separate processes

    def test_sessions_split_and_answer_correctly(
        self, cluster, client, running_spec
    ):
        run, execution = make_execution(running_spec, seed=3)
        client.create_session(ALPHA, "running-example")
        client.create_session(BETA, "running-example")
        client.ingest(ALPHA, execution.insertions)
        client.ingest(BETA, execution.insertions)

        vids = sorted(run.graph.vertices())
        rng = random.Random(11)
        pairs = [(rng.choice(vids), rng.choice(vids)) for _ in range(80)]
        expected = [reaches(run.graph, a, b) for a, b in pairs]
        assert client.query_batch(ALPHA, pairs) == expected
        assert client.query_batch(BETA, pairs) == expected

        assert client.list_sessions() == [ALPHA, BETA]
        # each worker hosts exactly its own session
        per_worker = client.stats()["per_worker"]
        assert per_worker[session_worker(ALPHA, 2)]["sessions"] == 1
        assert per_worker[session_worker(BETA, 2)]["sessions"] == 1

        client.close_session(ALPHA)
        client.close_session(BETA)

    def test_stats_totals_are_sums_of_workers(
        self, cluster, client, running_spec
    ):
        run, execution = make_execution(running_spec, seed=5)
        vids = sorted(run.graph.vertices())
        client.create_session(ALPHA, "running-example")
        client.create_session(BETA, "running-example")
        client.ingest(ALPHA, execution.insertions)
        client.ingest(BETA, execution.insertions)
        client.query_batch(ALPHA, [(vids[0], vids[1])] * 10)
        client.query_batch(BETA, [(vids[0], vids[1])] * 7)

        stats = client.stats()
        assert stats["workers"] == 2
        rows = stats["per_worker"]
        assert len(rows) == 2
        for field in ("sessions", "queries", "query_errors", "ingested"):
            assert stats[field] == sum(row[field] for row in rows), field
        assert stats["queries"] >= 17

        client.close_session(ALPHA)
        client.close_session(BETA)

    def test_metrics_merge_is_exact_over_live_workers(
        self, cluster, client, running_spec
    ):
        run, execution = make_execution(running_spec, seed=7)
        vids = sorted(run.graph.vertices())
        client.create_session(ALPHA, "running-example")
        client.create_session(BETA, "running-example")
        client.ingest(ALPHA, execution.insertions)
        client.ingest(BETA, execution.insertions)
        client.query_batch(ALPHA, [(vids[0], vids[1])] * 5)
        client.query_batch(BETA, [(vids[0], vids[1])] * 5)

        merged = client.metrics()
        assert merged["workers"] == 2
        # every histogram's summary must be self-consistent with a
        # genuine merged state (count == sum of bucket counts), which
        # averaging per-worker percentiles could never guarantee
        raw = _raw_lines(cluster.port, [
            json.dumps({"op": "metrics", "raw": True})
        ])[0]
        assert raw["ok"], raw
        for entry in raw["result"]["histograms"]:
            snapshot = HistogramSnapshot.from_raw(entry)
            assert snapshot.count == sum(entry["counts"])
        merged_counts = {
            (e["name"], tuple(sorted(e["labels"].items()))): e["count"]
            for e in merged["histograms"]
        }
        raw_counts = {
            (e["name"], tuple(sorted(e["labels"].items()))): e["count"]
            for e in raw["result"]["histograms"]
        }
        # raw and summarized views describe the same merged state
        for key, count in merged_counts.items():
            assert raw_counts[key] >= count

        client.close_session(ALPHA)
        client.close_session(BETA)

    def test_cross_worker_batch_rejected(self, cluster, client):
        # alpha lives on worker 0, beta on worker 1: a batch naming
        # both has no single owner and must be refused, structurally
        reply = _raw_lines(cluster.port, [json.dumps({
            "op": "query_batch",
            "session": [ALPHA, BETA], "pairs": [[0, 0]],
        })])[0]
        assert reply["ok"] is False
        assert reply["code"] == "protocol"
        assert "different workers" in reply["error"]

    def test_session_list_with_single_owner_still_rejected(
        self, cluster
    ):
        reply = _raw_lines(cluster.port, [json.dumps({
            "op": "query_batch",
            "session": [ALPHA], "pairs": [[0, 0]],
        })])[0]
        assert reply["ok"] is False
        assert reply["code"] == "protocol"
        assert "single session name" in reply["error"]

    def test_errors_route_back_structured(self, cluster, client):
        with pytest.raises(ServiceError):
            client.ingest("never-created", [])

    def test_schemes_and_ping_broadcast(self, cluster, client):
        schemes = client.list_schemes()
        assert any(s["name"] == "drl" for s in schemes)
        assert client.ping() is True


# ---------------------------------------------------------------------------
# merge functions (unit)
# ---------------------------------------------------------------------------


class TestMergeStats:
    def test_sums_counters_with_per_worker_rows(self):
        merged = merge_stats([
            {"sessions": 2, "queries": 10, "ingested": 100,
             "query_seconds": 0.25},
            {"sessions": 1, "queries": 30, "ingested": 50,
             "query_seconds": 0.5},
        ])
        assert merged["sessions"] == 3
        assert merged["queries"] == 40
        assert merged["ingested"] == 150
        assert merged["query_seconds"] == pytest.approx(0.75)
        assert merged["workers"] == 2
        assert merged["per_worker"][0]["worker"] == 0
        assert merged["per_worker"][1]["queries"] == 30

    def test_zero_traffic(self):
        merged = merge_stats([
            {"queries": 0, "query_seconds": 0.0},
            {"queries": 0, "query_seconds": 0.0},
        ])
        assert merged["queries"] == 0
        assert merged["query_seconds"] == 0.0

    def test_empty(self):
        assert merge_stats([]) == {"workers": 0, "per_worker": []}


class TestMergeMetrics:
    def _registry(self, samples, counter=0):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_query_seconds", op="query")
        for s in samples:
            hist.record(s)
        if counter:
            registry.counter("repro_requests_total",
                             op="query").inc(counter)
        return registry

    def test_histograms_merge_exactly(self):
        a_samples = [0.001, 0.002, 0.5, 1.5]
        b_samples = [0.003, 0.004, 2.5]
        a = self._registry(a_samples, counter=4)
        b = self._registry(b_samples, counter=3)
        both = self._registry(a_samples + b_samples, counter=7)

        merged = merge_metrics(
            [a.snapshot(raw=True), b.snapshot(raw=True)], raw=True)
        reference = both.snapshot(raw=True)

        assert merged["workers"] == 2
        (mh,) = merged["histograms"]
        (rh,) = reference["histograms"]
        # exact: the merged bucket vector IS the elementwise sum, so
        # count/sum/min/max all coincide with single-registry truth
        assert mh["counts"] == rh["counts"]
        assert mh["count"] == rh["count"] == 7
        assert mh["sum_ns"] == rh["sum_ns"]
        assert mh["min_ns"] == rh["min_ns"]
        assert mh["max_ns"] == rh["max_ns"]
        (mc,) = merged["counters"]
        assert mc["value"] == 7

    def test_summarized_view_matches_combined_registry(self):
        a = self._registry([0.01] * 10 + [0.9])
        b = self._registry([0.02] * 10 + [1.8])
        both = self._registry([0.01] * 10 + [0.9]
                              + [0.02] * 10 + [1.8])
        merged = merge_metrics(
            [a.snapshot(raw=True), b.snapshot(raw=True)])
        (mh,) = merged["histograms"]
        (rh,) = both.snapshot()["histograms"]
        for field in ("count", "p50", "p95", "p99"):
            assert mh[field] == rh[field], field

    def test_counters_keyed_by_labels(self):
        a = MetricsRegistry()
        a.counter("c", op="x").inc(1)
        b = MetricsRegistry()
        b.counter("c", op="x").inc(2)
        b.counter("c", op="y").inc(5)
        merged = merge_metrics([a.snapshot(raw=True),
                                b.snapshot(raw=True)])
        values = {
            tuple(sorted(e["labels"].items())): e["value"]
            for e in merged["counters"]
        }
        assert values[(("op", "x"),)] == 3
        assert values[(("op", "y"),)] == 5

    def test_trace_counts_sum(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        sa = a.snapshot(raw=True)
        sb = b.snapshot(raw=True)
        sa["traces"] = {"spans": 3, "slow": 1, "slow_threshold_s": 0.5}
        sb["traces"] = {"spans": 5, "slow": 0, "slow_threshold_s": 0.5}
        merged = merge_metrics([sa, sb])
        assert merged["traces"]["spans"] == 8
        assert merged["traces"]["slow"] == 1
        assert merged["traces"]["slow_threshold_s"] == 0.5


# ---------------------------------------------------------------------------
# durability: the hash keeps worker directories valid across restarts
# ---------------------------------------------------------------------------


class TestDurableCluster:
    def test_restart_recovers_into_the_same_worker(
        self, tmp_path, running_spec
    ):
        data_dir = str(tmp_path / "cluster")
        run, execution = make_execution(running_spec, size=80, seed=9)
        vids = sorted(run.graph.vertices())
        pairs = [(vids[0], v) for v in vids[:20]]
        expected = [reaches(run.graph, a, b) for a, b in pairs]
        owner = session_worker(ALPHA, 2)

        supervisor, thread = start_cluster(
            workers=2, shards=2, data_dir=data_dir, fsync="always")
        try:
            with ServiceClient("127.0.0.1", supervisor.port) as c:
                c.create_session(ALPHA, "running-example")
                c.ingest(ALPHA, execution.insertions)
                assert c.query_batch(ALPHA, pairs) == expected
        finally:
            stop_cluster(supervisor, thread)

        # the session's bytes live under its owner's directory, nowhere
        # else -- that is what hash stability buys
        owner_dir = tmp_path / "cluster" / f"worker-{owner}"
        other_dir = tmp_path / "cluster" / f"worker-{1 - owner}"
        assert (owner_dir / f"s-{ALPHA}").is_dir()
        assert not (other_dir / f"s-{ALPHA}").exists()

        supervisor, thread = start_cluster(
            workers=2, shards=2, data_dir=data_dir, fsync="always")
        try:
            with ServiceClient("127.0.0.1", supervisor.port) as c:
                info = c.recover_info()
                assert info["cluster"] is True
                recovered = info["per_worker"][owner]["recovered"]
                assert ALPHA in [r["session"] for r in recovered]
                assert c.query_batch(ALPHA, pairs) == expected
        finally:
            stop_cluster(supervisor, thread)

    def test_recover_info_carries_torn_tails_per_worker(
        self, tmp_path, running_spec
    ):
        data_dir = str(tmp_path / "cluster")
        _, execution = make_execution(running_spec, size=60, seed=21)
        owner = session_worker(ALPHA, 2)

        supervisor, thread = start_cluster(
            workers=2, shards=2, data_dir=data_dir, fsync="always")
        try:
            with ServiceClient("127.0.0.1", supervisor.port) as c:
                c.create_session(ALPHA, "running-example")
                c.ingest(ALPHA, execution.insertions[:20])
                c.ingest(ALPHA, execution.insertions[20:40])
        finally:
            stop_cluster(supervisor, thread)

        # tear the owning worker's WAL tail mid-record
        wal_path = (tmp_path / "cluster" / f"worker-{owner}"
                    / f"s-{ALPHA}" / "wal.jsonl")
        wal_path.write_bytes(wal_path.read_bytes()[:-9])

        supervisor, thread = start_cluster(
            workers=2, shards=2, data_dir=data_dir, fsync="always")
        try:
            with ServiceClient("127.0.0.1", supervisor.port) as c:
                info = c.recover_info()
                assert info["torn_bytes_dropped"] > 0
                (tail,) = info["torn_tails"]
                assert tail["worker"] == owner
                assert tail["session"] == ALPHA
                assert tail["torn_bytes_dropped"] > 0
                assert tail["torn_last_good_seq"] == 0
        finally:
            stop_cluster(supervisor, thread)

    def test_manifest_rejects_changed_worker_count(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        supervisor, thread = start_cluster(workers=2, data_dir=data_dir)
        stop_cluster(supervisor, thread)
        with pytest.raises(ServiceError, match="laid out for 2"):
            ClusterSupervisor(workers=3, data_dir=data_dir).start()

    def test_manifest_written_on_first_boot(self, tmp_path):
        data_dir = tmp_path / "cluster"
        supervisor, thread = start_cluster(workers=2,
                                           data_dir=str(data_dir))
        stop_cluster(supervisor, thread)
        with open(data_dir / "cluster.json", encoding="utf-8") as fh:
            assert json.load(fh) == {"workers": 2}


# ---------------------------------------------------------------------------
# supervisor misuse
# ---------------------------------------------------------------------------


class TestSupervisorLifecycle:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            ClusterSupervisor(workers=0)

    def test_port_before_start_rejected(self):
        with pytest.raises(ServiceError):
            ClusterSupervisor(workers=1).port

    def test_serve_before_start_rejected(self):
        with pytest.raises(ServiceError):
            ClusterSupervisor(workers=1).serve_forever()


# ---------------------------------------------------------------------------
# client failover (satellite: timeouts + one reconnect for idempotent)
# ---------------------------------------------------------------------------


class _FlakyServer(threading.Thread):
    """Accepts connections; drops the first N requests mid-flight
    (close without replying), then answers properly forever."""

    def __init__(self, drop_first: int):
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.drop_remaining = drop_first
        self.requests_seen = 0
        self._halt = threading.Event()

    def run(self):
        self.listener.settimeout(0.2)
        while not self._halt.is_set():
            try:
                sock, _ = self.listener.accept()
            except socket.timeout:
                continue
            reader = sock.makefile("r", encoding="utf-8")
            try:
                while not self._halt.is_set():
                    line = reader.readline()
                    if not line.strip():
                        break
                    self.requests_seen += 1
                    if self.drop_remaining > 0:
                        self.drop_remaining -= 1
                        break  # close mid-request: simulated crash
                    request = decode_request(line)
                    if request.op == "ping":
                        payload = {"ok": True, "result": {"pong": True},
                                   "id": request.id}
                    else:
                        payload = json.loads(encode_response(
                            error_response(
                                ServiceError("mutations must not retry"),
                                request.id)))
                    sock.sendall(
                        (json.dumps(payload) + "\n").encode("utf-8"))
            finally:
                # shutdown, not just close: the reader still holds the
                # fd, and the client must see FIN *now*, not on gc
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                reader.close()
                sock.close()

    def stop(self):
        self._halt.set()
        self.join(timeout=5)
        self.listener.close()


class TestClientFailover:
    def test_idempotent_op_survives_one_drop(self):
        server = _FlakyServer(drop_first=1)
        server.start()
        try:
            with ServiceClient("127.0.0.1", server.port,
                               timeout=5.0) as client:
                assert client.ping() is True  # retried transparently
            assert server.requests_seen == 2
        finally:
            server.stop()

    def test_consecutive_drops_retried_under_backoff(self):
        server = _FlakyServer(drop_first=2)
        server.start()
        try:
            with ServiceClient("127.0.0.1", server.port,
                               timeout=5.0) as client:
                assert client.ping() is True
            assert server.requests_seen == 3
        finally:
            server.stop()

    def test_drops_outlasting_the_deadline_surface(self):
        server = _FlakyServer(drop_first=10_000)  # never answers
        server.start()
        try:
            with ServiceClient("127.0.0.1", server.port, timeout=5.0,
                               retry_deadline=0.4) as client:
                started = time.monotonic()
                with pytest.raises(ProtocolError):
                    client.ping()
                # the deadline bounds the whole retry budget
                assert time.monotonic() - started < 3.0
        finally:
            server.stop()

    def test_constructor_connects_through_failover(self):
        live = _FlakyServer(drop_first=0)
        live.start()
        try:
            # port 1 refuses instantly; the constructor must rotate to
            # the live failover endpoint instead of raising
            with ServiceClient("127.0.0.1", 1, timeout=5.0,
                               failover=[("127.0.0.1", live.port)]) as c:
                assert c.endpoint == ("127.0.0.1", live.port)
                assert c.ping() is True
        finally:
            live.stop()

    def test_failover_rotates_to_a_live_endpoint(self):
        dead = _FlakyServer(drop_first=10_000)
        live = _FlakyServer(drop_first=0)
        dead.start()
        live.start()
        try:
            with ServiceClient(
                "127.0.0.1", dead.port, timeout=5.0,
                failover=[("127.0.0.1", live.port)],
            ) as client:
                assert client.ping() is True
                assert client.endpoint == ("127.0.0.1", live.port)
                assert live.requests_seen == 1
        finally:
            dead.stop()
            live.stop()

    def test_mutation_never_retried(self):
        server = _FlakyServer(drop_first=1)
        server.start()
        try:
            with ServiceClient("127.0.0.1", server.port,
                               timeout=5.0) as client:
                with pytest.raises(ProtocolError):
                    client.create_session("x", "running-example")
            # the dropped request must be the only one: no replay
            assert server.requests_seen == 1
        finally:
            server.stop()

    def test_reconnect_opt_out(self):
        server = _FlakyServer(drop_first=1)
        server.start()
        try:
            with ServiceClient("127.0.0.1", server.port, timeout=5.0,
                               reconnect=False) as client:
                with pytest.raises(ProtocolError):
                    client.ping()
            assert server.requests_seen == 1
        finally:
            server.stop()

    def test_idempotent_set_excludes_mutations(self):
        assert "query" in IDEMPOTENT_OPS
        assert "stats" in IDEMPOTENT_OPS
        assert "metrics" in IDEMPOTENT_OPS
        for op in ("ingest", "create_session", "close", "snapshot",
                   "shutdown", "sync"):
            assert op not in IDEMPOTENT_OPS, op
        assert RECONNECT_BACKOFF < 1.0  # a retry must stay snappy

    def test_connect_timeout_applies_only_to_connect(self, cluster):
        client = ServiceClient("127.0.0.1", cluster.port,
                               timeout=9.0, connect_timeout=3.0)
        try:
            # after connect the steady-state timeout governs the socket
            assert client._sock.gettimeout() == 9.0
            assert client.ping() is True
        finally:
            client.close()

    def test_connect_timeout_reaches_the_socket(self, monkeypatch):
        seen = {}
        real = socket.create_connection

        def spy(address, timeout=None, **kwargs):
            seen["timeout"] = timeout
            return real(address, timeout=timeout, **kwargs)

        monkeypatch.setattr(socket, "create_connection", spy)
        server = _FlakyServer(drop_first=0)
        server.start()
        try:
            with ServiceClient("127.0.0.1", server.port, timeout=9.0,
                               connect_timeout=0.25) as client:
                assert client.ping() is True
            assert seen["timeout"] == 0.25
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# failover through the router: a killed worker restarts and serves on
# ---------------------------------------------------------------------------


class TestWorkerRestart:
    def test_sigkill_one_worker_restarts_and_serves(self, running_spec):
        supervisor, thread = start_cluster(workers=2, shards=2)
        try:
            with ServiceClient("127.0.0.1", supervisor.port,
                               timeout=30.0) as client:
                client.create_session(ALPHA, "running-example")
                run, execution = make_execution(running_spec, size=60,
                                                seed=13)
                vids = sorted(run.graph.vertices())
                client.ingest(ALPHA, execution.insertions)

                victim = session_worker(BETA, 2)
                pid = client.cluster_info()["per_worker"][victim]["pid"]
                import os
                import signal as _signal
                os.kill(pid, _signal.SIGKILL)

                # the fleet heals: a fresh process takes the slot
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    info = client.cluster_info()
                    row = info["per_worker"][victim]
                    if (row["alive"] and row["pid"] != pid
                            and info["restarts"] >= 1):
                        break
                    time.sleep(0.1)
                else:
                    pytest.fail("worker was not restarted in time")

                # the surviving worker's state was never disturbed, and
                # the respawned worker serves fresh sessions
                assert client.query(ALPHA, vids[0], vids[0]) is True
                client.create_session(BETA, "running-example")
                assert set(client.list_sessions()) == {ALPHA, BETA}
        finally:
            stop_cluster(supervisor, thread)
