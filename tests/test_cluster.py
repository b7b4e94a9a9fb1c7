"""Tests for the process-per-shard cluster (repro.service.cluster).

The routing invariants the cluster stands on:

* the session -> worker hash is **stable** across processes and
  restarts (CRC-32, not the salted builtin), so a durable worker
  always remounts the directories it wrote;
* broadcast merges are **correct**: merged stats counters equal the
  sum over workers, and merged metrics histograms are *exactly* the
  sum of the per-worker raw snapshots (not averaged percentiles);
* a request naming sessions owned by different workers is rejected
  with a structured ``protocol`` error, never silently mis-routed;
* every client reaches a worker over its own channel, so one client's
  slow requests never hold up another's, while each client's own
  answers keep request order; channels fail cleanly on a worker
  death, are reaped when their client leaves, and a ``shutdown``
  drains what other channels already forwarded.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ProtocolError, ServiceError
from repro.graphs.reachability import reaches
from repro.obs.histogram import HistogramSnapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import GC_PAUSE_SECONDS
from repro.service import ClusterSupervisor, ServiceClient, session_worker
from repro.service.client import IDEMPOTENT_OPS, RECONNECT_BACKOFF
from repro.service.cluster import merge_metrics, merge_stats
from repro.service.protocol import (
    Request,
    decode_request,
    encode_response,
    error_response,
    insertions_to_wire,
)
from repro.service.server import ReproService
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
    supervisor, thread = start_cluster(workers=2)
    yield supervisor
    stop_cluster(supervisor, thread)


@pytest.fixture()
def client(cluster):
    with ServiceClient("127.0.0.1", cluster.port) as c:
        yield c


class _Pipelined:
    """A raw router connection that may send any number of request
    lines before reading a reply (no client library in between)."""

    def __init__(self, port, timeout=60):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.reader = self.sock.makefile("rb")

    def send(self, *lines):
        self.sock.sendall("".join(line + "\n" for line in lines)
                          .encode("utf-8"))

    def reply(self):
        line = self.reader.readline()
        assert line, "router dropped the connection"
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


def _raw_lines(port, lines):
    """Send raw protocol lines through the router one at a time; return
    the decoded replies (the connection must survive every line)."""
    pipe = _Pipelined(port, timeout=10)
    try:
        replies = []
        for line in lines:
            pipe.send(line)
            replies.append(pipe.reply())
        return replies
    finally:
        pipe.close()


def _big_batch(session, vids, seed):
    """One maximal (65,536-pair) ``query_batch`` request line."""
    rng = random.Random(seed)
    pairs = [[rng.choice(vids), rng.choice(vids)] for _ in range(65536)]
    return json.dumps({"op": "query_batch", "session": session,
                       "pairs": pairs})


def _wait_for(probe, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not probe():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.02)


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

    def test_collector_pauses_merge_over_live_workers(self, cluster):
        """Each worker times its own collections; the router's merged
        series holds every worker's, with exact integer state."""
        raw = _raw_lines(cluster.port, [
            json.dumps({"op": "metrics", "raw": True})
        ])[0]
        assert raw["ok"], raw
        pauses = {
            entry["labels"]["generation"]: HistogramSnapshot.from_raw(entry)
            for entry in raw["result"]["histograms"]
            if entry["name"] == GC_PAUSE_SECONDS
        }
        assert sorted(pauses) == ["0", "1", "2"]
        for snapshot in pauses.values():
            assert snapshot.count == sum(snapshot.counts)
        # a worker collects while it imports the service, so the
        # young generation's merged series is never empty
        assert pauses["0"].count > 0

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

    def test_replies_the_router_makes_echo_the_trace_id(self, cluster):
        replies = _raw_lines(cluster.port, [
            json.dumps({"op": "promote", "trace_id": "feed0001"}),
            json.dumps({"op": "query_batch", "session": [ALPHA, BETA],
                        "pairs": [[0, 0]], "trace_id": "feed0002"}),
        ])
        assert [reply["ok"] for reply in replies] == [False, False]
        assert [reply["trace_id"] for reply in replies] == [
            "feed0001", "feed0002"]

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
            workers=2, data_dir=data_dir, fsync="always")
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
            workers=2, data_dir=data_dir, fsync="always")
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
            workers=2, data_dir=data_dir, fsync="always")
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
            workers=2, data_dir=data_dir, fsync="always")
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

    def test_a_failed_worker_boot_stops_the_booted_workers(self, tmp_path):
        # the workers boot together; worker 1 cannot mount its store
        # (its directory is a file), so worker 0 must not outlive start()
        data_dir = tmp_path / "cluster"
        data_dir.mkdir()
        (data_dir / "worker-1").write_text("not a directory\n")
        supervisor = ClusterSupervisor(workers=2, data_dir=str(data_dir))
        with pytest.raises(ServiceError, match="worker 1 failed to boot"):
            supervisor.start()
        booted = supervisor._fleet[0].process
        assert booted is not None and not booted.is_alive()


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
        supervisor, thread = start_cluster(workers=2)
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


# ---------------------------------------------------------------------------
# per-client channels: each client reaches a worker on its own socket
# ---------------------------------------------------------------------------


class TestPerClientChannels:
    def test_read_does_not_queue_behind_another_clients_batches(
        self, cluster, running_spec
    ):
        run, execution = make_execution(running_spec, size=200, seed=23)
        vids = sorted(run.graph.vertices())
        with ServiceClient("127.0.0.1", cluster.port) as c:
            c.create_session(ALPHA, "running-example")
            c.ingest(ALPHA, execution.insertions)
        big = _big_batch(ALPHA, vids, seed=29)
        a, b = _Pipelined(cluster.port), _Pipelined(cluster.port)
        a_answered = []

        def read_a():
            for _ in range(4):
                reply = a.reply()
                a_answered.append((time.monotonic(), reply["ok"]))

        reader = threading.Thread(target=read_a, daemon=True)
        reader.start()
        try:
            a.send(big, big, big, big)
            # the router decodes each 65,536-pair line (~20 ms); once
            # A's first answer is back, all four are forwarded
            _wait_for(lambda: a_answered, "A's first answer")
            time.sleep(0.05)
            # same session, so the same worker as all of A's batches
            b.send(json.dumps({"op": "query_batch", "session": ALPHA,
                               "pairs": [[vids[0], vids[-1]]]}))
            b_reply = b.reply()
            b_answered = time.monotonic()
            reader.join(timeout=120)
        finally:
            a.close()
            b.close()
            with ServiceClient("127.0.0.1", cluster.port) as c:
                c.close_session(ALPHA)
        assert b_reply["ok"], b_reply
        assert b_reply["result"]["answers"] == [
            reaches(run.graph, vids[0], vids[-1])]
        assert [ok for _, ok in a_answered] == [True] * 4
        # one FIFO per worker would answer B only after all of A's
        assert b_answered < a_answered[-1][0]

    def test_pipelined_requests_answer_in_request_order(
        self, cluster, running_spec
    ):
        run, execution = make_execution(running_spec, size=120, seed=31)
        events = execution.insertions
        wire = insertions_to_wire(events)
        half = len(events) // 2
        root = events[0].vid
        early = [[root, e.vid] for e in events[:half]]
        # vertices of the second chunk exist only once it is ingested
        late = [[root, e.vid] for e in events[half:]]
        with ServiceClient("127.0.0.1", cluster.port) as c:
            c.create_session(BETA, "running-example")
        pipe = _Pipelined(cluster.port)
        try:
            pipe.send(
                json.dumps({"op": "ingest", "id": 1, "session": BETA,
                            "insertions": wire[:half]}),
                json.dumps({"op": "query_batch", "id": 2,
                            "session": BETA, "pairs": early}),
                json.dumps({"op": "ingest", "id": 3, "session": BETA,
                            "insertions": wire[half:]}),
                json.dumps({"op": "query_batch", "id": 4,
                            "session": BETA, "pairs": late}),
            )
            replies = [pipe.reply() for _ in range(4)]
        finally:
            pipe.close()
            with ServiceClient("127.0.0.1", cluster.port) as c:
                c.close_session(BETA)
        assert [r["id"] for r in replies] == [1, 2, 3, 4]
        assert all(r["ok"] for r in replies), replies
        assert replies[0]["result"]["ingested"] == half
        assert replies[2]["result"]["ingested"] == len(events) - half
        assert replies[1]["result"]["answers"] == [
            reaches(run.graph, s, t) for s, t in early]
        assert replies[3]["result"]["answers"] == [
            reaches(run.graph, s, t) for s, t in late]

    def test_worker_death_fails_every_channel_then_serves_again(
        self, tmp_path, running_spec
    ):
        supervisor, thread = start_cluster(
            workers=2, data_dir=str(tmp_path / "cluster"),
            fsync="always")
        pipes = []
        try:
            run, execution = make_execution(running_spec, size=200,
                                            seed=37)
            vids = sorted(run.graph.vertices())
            victim = session_worker(ALPHA, 2)
            with ServiceClient("127.0.0.1", supervisor.port,
                               timeout=30.0) as probe:
                probe.create_session(ALPHA, "running-example")
                probe.ingest(ALPHA, execution.insertions)
                pid = probe.cluster_info()["per_worker"][victim]["pid"]
                big = _big_batch(ALPHA, vids, seed=41)
                import os
                import signal as _signal
                # a stopped worker answers nothing, so every batch is
                # still in flight when it dies: without the stop, a
                # client's last batch can be answered before the kill
                # lands
                os.kill(pid, _signal.SIGSTOP)
                try:
                    pipes = [_Pipelined(supervisor.port) for _ in range(2)]
                    for pipe in pipes:
                        pipe.send(big, big, big)
                    _wait_for(lambda: probe.cluster_info()["per_worker"]
                              [victim]["in_flight"] == 6, "6 in flight")
                    assert probe.cluster_info()["per_worker"][victim][
                        "channels"] == 3  # two clients + the probe
                finally:
                    os.kill(pid, _signal.SIGKILL)

                for pipe in pipes:
                    replies = [pipe.reply() for _ in range(3)]
                    failed = [r for r in replies if not r["ok"]]
                    assert failed, replies
                    assert all(r["code"] == "service" for r in failed)

                def respawned():
                    row = probe.cluster_info()["per_worker"][victim]
                    return row["alive"] and row["pid"] != pid
                _wait_for(respawned, "the worker respawn")
                row = probe.cluster_info()["per_worker"][victim]
                assert row["in_flight"] == 0
                assert row["restarts"] == 1
            # each client's next request opens a fresh channel and the
            # durable worker recovered the session from its WAL
            for pipe in pipes:
                pipe.send(json.dumps({"op": "query_batch",
                                      "session": ALPHA,
                                      "pairs": [[vids[0], vids[-1]]]}))
                reply = pipe.reply()
                assert reply["ok"], reply
                assert reply["result"]["answers"] == [
                    reaches(run.graph, vids[0], vids[-1])]
        finally:
            for pipe in pipes:
                pipe.close()
            stop_cluster(supervisor, thread)

    def test_channels_are_reaped_when_clients_leave(
        self, cluster, running_spec
    ):
        run, execution = make_execution(running_spec, size=60, seed=47)
        vids = sorted(run.graph.vertices())
        owner = session_worker(ALPHA, 2)
        with ServiceClient("127.0.0.1", cluster.port) as live:
            live.create_session(ALPHA, "running-example")
            live.ingest(ALPHA, execution.insertions)
            for _ in range(50):
                with ServiceClient("127.0.0.1", cluster.port) as c:
                    assert c.query_batch(ALPHA, [(vids[0], vids[1])]) \
                        == [reaches(run.graph, vids[0], vids[1])]

            def settled():
                rows = live.cluster_info()["per_worker"]
                # only the live client's one channel, to the owner
                return [r["channels"] for r in rows] == [
                    1 if r["worker"] == owner else 0 for r in rows]
            _wait_for(settled, "the closed clients' channels to go")
            rows = live.cluster_info()["per_worker"]
            assert [r["in_flight"] for r in rows] == [0, 0]
            live.close_session(ALPHA)

    def test_shutdown_waits_for_other_channels_in_flight(
        self, tmp_path, running_spec
    ):
        data_dir = str(tmp_path / "cluster")
        _, execution = make_execution(running_spec, size=1500, seed=53)
        wire = insertions_to_wire(execution.insertions)
        owner = session_worker(ALPHA, 2)
        supervisor, thread = start_cluster(
            workers=2, data_dir=data_dir, fsync="always")
        a, b = _Pipelined(supervisor.port), _Pipelined(supervisor.port)
        try:
            b.send(json.dumps({"op": "create_session", "id": 1,
                               "name": ALPHA, "spec": "running-example"}))
            assert b.reply()["ok"]
            b.send(json.dumps({"op": "ingest", "id": 2, "session": ALPHA,
                               "insertions": wire}))
            time.sleep(0.02)  # the router has forwarded B's ingest
            a.send(json.dumps({"op": "shutdown", "id": 3}))
            b_ack, a_ack = b.reply(), a.reply()
        finally:
            a.close()
            b.close()
            thread.join(timeout=30)
        assert not thread.is_alive(), "router thread failed to exit"
        assert b_ack["ok"] and b_ack["id"] == 2, b_ack
        assert b_ack["result"]["ingested"] == len(wire)
        assert a_ack["ok"] and a_ack["result"]["stopping"] is True

        supervisor, thread = start_cluster(
            workers=2, data_dir=data_dir, fsync="always")
        try:
            with ServiceClient("127.0.0.1", supervisor.port) as c:
                recovered = {
                    r["session"]: r for r in
                    c.recover_info()["per_worker"][owner]["recovered"]
                }
                assert recovered[ALPHA]["vertices"] == len(wire)
        finally:
            stop_cluster(supervisor, thread)

    def test_replication_ops_are_refused_by_the_router(self, tmp_path):
        supervisor, thread = start_cluster(
            workers=2, data_dir=str(tmp_path / "cluster"),
            fsync="always")
        try:
            with ServiceClient("127.0.0.1", supervisor.port) as c:
                c.create_session(ALPHA, "running-example")
                c.create_session(BETA, "running-example")
            replies = _raw_lines(supervisor.port, [
                json.dumps({"op": "repl_subscribe", "from_seq": -1,
                            "wait": 0}),
                json.dumps({"op": "repl_ack", "replica_id": "r1",
                            "seq": 0}),
                json.dumps({"op": "promote"}),
            ])
            for reply in replies:
                assert reply["ok"] is False, reply
                assert reply["code"] == "service"
                assert "not the router" in reply["error"]
            with ServiceClient("127.0.0.1", supervisor.port) as c:
                rows = c.recover_info()["per_worker"]
            assert len(rows) == 2
            for row in rows:
                assert row["replication"]["replicas"] == {}
        finally:
            stop_cluster(supervisor, thread)


# ---------------------------------------------------------------------------
# no request stops the router, and the fleet stops with it
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


class TestRouterSurvivesEveryReply:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_session_less_sync_answers_like_the_in_process_server(
        self, tmp_path, workers
    ):
        single = ReproService(data_dir=str(tmp_path / "single"))
        try:
            for name in (BETA, ALPHA):
                single.handle_line(json.dumps(
                    {"op": "create_session", "name": name,
                     "spec": "running-example"}))
            expected = json.loads(single.handle_line('{"op": "sync"}'))
        finally:
            single.close()
        assert expected["result"]["synced"] == [ALPHA, BETA]

        supervisor, thread = start_cluster(
            workers=workers, data_dir=str(tmp_path / "cluster"),
            fsync="always")
        try:
            with ServiceClient("127.0.0.1", supervisor.port) as c:
                c.create_session(BETA, "running-example")
                c.create_session(ALPHA, "running-example")
            sync, ping = _raw_lines(supervisor.port, [
                json.dumps({"op": "sync"}), json.dumps({"op": "ping"}),
            ])
            assert sync["ok"] is True, sync
            assert sync["result"] == expected["result"]
            assert ping["ok"] is True and ping["result"]["pong"] is True
        finally:
            stop_cluster(supervisor, thread)

    def test_a_merge_that_raises_fails_only_its_request(self):
        supervisor, thread = start_cluster(workers=1)

        def broken_merge(op, request, results):
            raise TypeError(f"cannot merge {op}")

        try:
            supervisor._merge = broken_merge
            stats, ping = _raw_lines(supervisor.port, [
                json.dumps({"op": "stats", "id": 7}),
                json.dumps({"op": "cluster_info"}),
            ])
            assert stats["ok"] is False and stats["code"] == "service"
            assert stats["id"] == 7
            assert "cannot merge stats" in stats["error"]
            assert ping["ok"] is True and ping["result"]["cluster"] is True
        finally:
            stop_cluster(supervisor, thread)


def _live_group_members(pgid):
    """The pids of process group ``pgid`` that are running (not zombies)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        state, _ppid, group = stat.rsplit(")", 1)[1].split()[:3]
        if int(group) == pgid and state != "Z":
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads process groups from /proc")
class TestFleetStopsWithItsRouter:
    @pytest.mark.parametrize("stop", [signal.SIGTERM, signal.SIGKILL])
    def test_no_process_of_the_group_outlives_the_router(
        self, tmp_path, stop
    ):
        # stdout is a file, as under a process manager: block-buffered
        # unless the banner is flushed, so the environment must not
        # unbuffer it
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        out = tmp_path / "out"
        with open(out, "w") as stdout:
            router = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--workers", "1",
                 "--port", "0", "--data-dir", str(tmp_path / "data")],
                stdout=stdout, env=env, start_new_session=True,
            )
        try:
            _wait_for(lambda: "listening" in out.read_text()
                      or router.poll() is not None,
                      "the router's banner")
            banner = out.read_text()
            assert "repro cluster listening" in banner, banner
            port = int(banner.split(":")[1].split()[0])
            (ping,) = _raw_lines(port, [json.dumps({"op": "ping"})])
            assert ping["ok"] is True
            # the router, its worker and the multiprocessing tracker
            assert len(_live_group_members(router.pid)) >= 2
            router.send_signal(stop)
            router.wait(timeout=20)
            _wait_for(lambda: not _live_group_members(router.pid),
                      "the fleet to stop with its router", timeout=10)
        finally:
            try:
                os.killpg(router.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            router.wait(timeout=10)
