"""Tests for the provenance query service (repro.service)."""

from __future__ import annotations

import json
import random
import socket
import threading

import pytest

from repro.datasets import running_example
from repro.errors import (
    ExecutionError,
    LabelingError,
    ProtocolError,
    ServiceError,
    SessionNotFoundError,
)
from repro.graphs.reachability import reaches
from repro.service import (
    QueryEngine,
    ReproServer,
    ServiceClient,
    SessionManager,
    checkpoint_session,
    restore_session,
)
from repro.service.protocol import (
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_response,
    insertions_to_wire,
    raise_for_response,
)
from repro.service.server import ReproService
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation


def make_execution(spec, size=200, seed=0):
    run = sample_run(spec, size, random.Random(seed))
    return run, execution_from_derivation(run)


@pytest.fixture(scope="module")
def run_and_execution(running_spec):
    return make_execution(running_spec)


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


class TestSessionManager:
    def test_create_get_close(self, running_spec):
        manager = SessionManager()
        session = manager.create("a", running_spec)
        assert manager.get("a") is session
        assert "a" in manager and len(manager) == 1
        closed = manager.close("a")
        assert closed is session
        assert "a" not in manager

    def test_create_from_builtin_name(self):
        manager = SessionManager()
        session = manager.create("a", "running-example")
        assert session.spec.name == "running-example"

    def test_create_from_spec_file(self, tmp_path, running_spec):
        from repro.io import save_specification_json

        path = tmp_path / "spec.json"
        save_specification_json(running_spec, path)
        manager = SessionManager()
        session = manager.create("a", str(path))
        assert session.spec.name == running_spec.name

    def test_unknown_spec_rejected(self):
        with pytest.raises(ServiceError):
            SessionManager().create("a", "no-such-spec")

    def test_duplicate_name_rejected(self, running_spec):
        manager = SessionManager()
        manager.create("a", running_spec)
        with pytest.raises(ServiceError):
            manager.create("a", running_spec)

    def test_unknown_session(self):
        with pytest.raises(SessionNotFoundError):
            SessionManager().get("ghost")

    def test_closed_session_rejects_ingest(
        self, running_spec, run_and_execution
    ):
        _, execution = run_and_execution
        manager = SessionManager()
        session = manager.create("a", running_spec)
        manager.close("a")
        with pytest.raises(ServiceError):
            session.ingest_many([execution.insertions[0]])

    def test_version_bumps(self, running_spec, run_and_execution):
        _, execution = run_and_execution
        manager = SessionManager()
        session = manager.create("a", running_spec)
        assert session.version == 0
        session.ingest_many([execution.insertions[0]])
        assert session.version == 1
        session.ingest_many(execution.insertions[1:10])
        assert session.version == 2  # one bump per batch
        session.ingest_many([])
        assert session.version == 2  # empty batch is a no-op

    def test_failed_batch_keeps_applied_prefix(
        self, running_spec, run_and_execution
    ):
        """Labels are write-once: a failed batch keeps its applied
        prefix, bumps the version, and reports the failure."""
        _, execution = run_and_execution
        manager = SessionManager()
        session = manager.create("a", running_spec)
        events = list(execution.insertions[:10])
        poisoned = events[:5] + [events[0]] + events[5:]  # duplicate vid
        with pytest.raises(ExecutionError):
            session.ingest_many(poisoned)
        assert len(session) == 5  # the applied prefix survives
        assert session.version == 1  # partial batches still bump
        session.ingest_many(events[5:])  # resume from the prefix
        assert len(session) == 10


# ---------------------------------------------------------------------------
# query engine
# ---------------------------------------------------------------------------


class TestQueryEngine:
    def test_batch_matches_ground_truth(
        self, running_spec, run_and_execution
    ):
        run, execution = run_and_execution
        manager = SessionManager()
        engine = QueryEngine(manager)
        manager.create("a", running_spec)
        engine.ingest("a", execution.insertions)
        vids = sorted(run.graph.vertices())
        rng = random.Random(7)
        pairs = [
            (rng.choice(vids), rng.choice(vids)) for _ in range(500)
        ]
        answers = engine.query_many("a", pairs)
        expected = [reaches(run.graph, a, b) for a, b in pairs]
        assert answers == expected

    def test_kernel_and_fallback_paths_agree(
        self, running_spec, run_and_execution
    ):
        """The engine's batch kernel answers exactly like the scheme
        base class's per-pair fallback loop."""
        from repro.schemes.base import Scheme

        run, execution = run_and_execution
        vids = sorted(run.graph.vertices())
        rng = random.Random(11)
        pairs = [
            (rng.choice(vids), rng.choice(vids)) for _ in range(400)
        ]
        manager = SessionManager()
        engine = QueryEngine(manager)
        session = manager.create("a", running_spec)
        engine.ingest("a", execution.insertions)
        answers = engine.query_many("a", pairs)
        assert answers == Scheme.query_many(session.scheme, pairs)
        assert answers == [reaches(run.graph, a, b) for a, b in pairs]
        assert engine.stats().queries == len(pairs)

    def test_kernel_path_used_for_every_dynamic_scheme(self, running_spec):
        """All service-hostable schemes ship a batch kernel."""
        from repro.schemes import registry as scheme_registry

        for name in scheme_registry.available(dynamic=True):
            assert scheme_registry.get(name).capabilities.batch, name

    def test_ingest_is_visible_to_the_next_batch(self, running_spec):
        """Labels are the index: a vertex is answerable as soon as its
        ingest returns, and earlier answers stay the same."""
        run, execution = make_execution(running_spec, size=150, seed=3)
        manager = SessionManager()
        engine = QueryEngine(manager)
        manager.create("a", running_spec)
        events = execution.insertions
        engine.ingest("a", events[:-1])
        first, last = events[0].vid, events[-1].vid
        before = engine.query_many("a", [(first, events[1].vid)])
        with pytest.raises(LabelingError):
            engine.query("a", first, last)
        engine.ingest("a", events[-1:])
        pairs = [(first, events[1].vid), (first, last), (last, first)]
        answers = engine.query_many("a", pairs)
        assert answers[0] == before[0]
        assert answers == [reaches(run.graph, a, b) for a, b in pairs]

    def test_zero_cache_disables_caching(
        self, running_spec, run_and_execution
    ):
        """The engine keeps no answer cache: a repeated batch reaches the
        scheme's kernel again, and is counted again."""
        run, execution = run_and_execution
        manager = SessionManager()
        engine = QueryEngine(manager)
        session = manager.create("a", running_spec)
        engine.ingest("a", execution.insertions)
        vids = sorted(run.graph.vertices())
        kernel = session.scheme.query_many
        calls = []

        def counted(pairs):
            calls.append(len(pairs))
            return kernel(pairs)

        session.scheme.query_many = counted
        pairs = [(vids[0], vids[1])]
        assert engine.query_many("a", pairs) == engine.query_many("a", pairs)
        assert calls == [1, 1]
        assert engine.stats().queries == 2

    def test_unknown_vertex(self, running_spec, run_and_execution):
        _, execution = run_and_execution
        manager = SessionManager()
        engine = QueryEngine(manager)
        manager.create("a", running_spec)
        engine.ingest("a", execution.insertions)
        with pytest.raises(LabelingError):
            engine.query("a", 10 ** 9, 0)

    def test_reused_name_never_hits_old_cache(self, running_spec):
        """Closing a session and reusing its name answers from the new
        session's labels, never from the closed session's."""
        run1, exec1 = make_execution(running_spec, size=150, seed=41)
        run2, exec2 = make_execution(running_spec, size=150, seed=42)
        manager = SessionManager()
        engine = QueryEngine(manager)
        manager.create("r", running_spec)
        engine.ingest("r", exec1.insertions)
        vids1 = sorted(run1.graph.vertices())
        pairs1 = [(a, b) for a in vids1[:12] for b in vids1[:12]]
        engine.query_many("r", pairs1)

        manager.close("r")
        manager.create("r", running_spec)
        engine.ingest("r", exec2.insertions)
        vids2 = sorted(run2.graph.vertices())
        pairs2 = [(a, b) for a in vids2[:12] for b in vids2[:12]]
        answers = engine.query_many("r", pairs2)
        expected = [reaches(run2.graph, a, b) for a, b in pairs2]
        assert answers == expected

    def test_queries_live_mid_run(self, running_spec):
        """The paper's headline: answers while the run is executing."""
        run, execution = make_execution(running_spec, size=200, seed=5)
        manager = SessionManager()
        engine = QueryEngine(manager)
        manager.create("a", running_spec)
        events = execution.insertions
        engine.ingest("a", events[: len(events) // 2])
        seen = sorted(ins.vid for ins in events[: len(events) // 2])
        rng = random.Random(11)
        pairs = [(rng.choice(seen), rng.choice(seen)) for _ in range(100)]
        answers = engine.query_many("a", pairs)
        expected = [reaches(run.graph, a, b) for a, b in pairs]
        assert answers == expected

    def test_failed_batch_leaves_stats_consistent(
        self, running_spec, run_and_execution
    ):
        """A batch naming an unknown vertex raises LabelingError from
        the kernel and leaves the query counters untouched; its time is
        accounted as an error, and the engine keeps serving."""
        run, execution = run_and_execution
        manager = SessionManager()
        engine = QueryEngine(manager)
        manager.create("a", running_spec)
        engine.ingest("a", execution.insertions)
        vids = sorted(run.graph.vertices())
        engine.query_many("a", [(vids[0], vids[1])])  # establish a baseline
        before = engine.stats()
        poisoned = [
            (vids[0], vids[1]),   # valid
            (vids[2], vids[3]),   # valid
            (10 ** 9, vids[0]),   # unknown vertex: the whole batch fails
        ]
        with pytest.raises(LabelingError):
            engine.query_many("a", poisoned)
        after = engine.stats()
        assert after.queries == before.queries
        assert after.query_seconds == before.query_seconds
        assert after.query_errors == before.query_errors + 1
        answers = engine.query_many("a", [(vids[2], vids[3])] * 2)
        assert answers == [reaches(run.graph, vids[2], vids[3])] * 2
        assert engine.stats().queries == after.queries + 2

    def test_duplicate_pairs_answer_alike(
        self, running_spec, run_and_execution
    ):
        """1,000 copies of one pair give 1,000 equal answers, each one
        counted as a query."""
        run, execution = run_and_execution
        manager = SessionManager()
        engine = QueryEngine(manager)
        manager.create("a", running_spec)
        engine.ingest("a", execution.insertions)
        vids = sorted(run.graph.vertices())
        before = engine.stats()
        batch = [(vids[0], vids[-1])] * 1000
        answers = engine.query_many("a", batch)
        assert answers == [reaches(run.graph, vids[0], vids[-1])] * 1000
        assert engine.stats().queries == before.queries + 1000


# ---------------------------------------------------------------------------
# the session registry: many sessions under one lock
# ---------------------------------------------------------------------------


class TestShardedEngine:
    def test_striped_answers_match_ground_truth(self, running_spec):
        """Many sessions hosted side by side each answer exactly like
        BFS on their own run."""
        manager = SessionManager()
        engine = QueryEngine(manager)
        for i in range(6):
            name = f"s{i}"
            run, execution = make_execution(
                running_spec, size=120, seed=50 + i
            )
            manager.create(name, running_spec)
            engine.ingest(name, execution.insertions)
            vids = sorted(run.graph.vertices())
            rng = random.Random(i)
            pairs = [
                (rng.choice(vids), rng.choice(vids)) for _ in range(80)
            ]
            answers = engine.query_many(name, pairs)
            expected = [reaches(run.graph, a, b) for a, b in pairs]
            assert answers == expected
            assert engine.query_many(name, pairs) == expected
        assert engine.stats().queries == 6 * 2 * 80

    def test_sharded_manager_hosts_many_sessions(self, running_spec):
        manager = SessionManager()
        names = [f"run-{i}" for i in range(12)]
        for name in names:
            manager.create(name, running_spec)
        assert manager.names() == sorted(names)
        assert len(manager) == 12
        for name in names:
            assert name in manager
            assert manager.get(name).name == name
        with pytest.raises(ServiceError):
            manager.create(names[0], running_spec)
        for name in names[:6]:
            assert manager.close(name).closed
        assert len(manager) == 6
        with pytest.raises(SessionNotFoundError):
            manager.get(names[0])

    def test_sharded_concurrent_create_close(self, running_spec):
        """Create/close storms on distinct names never corrupt the
        registry."""
        manager = SessionManager()
        errors = []

        def churn(worker):
            try:
                for i in range(12):
                    name = f"w{worker}-{i}"
                    manager.create(name, running_spec)
                    assert manager.get(name).name == name
                    manager.close(name)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[0]
        assert len(manager) == 0


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_request_round_trip(self):
        request = Request(
            op="query", params={"session": "a", "source": 1, "target": 2},
            id=42,
        )
        decoded = decode_request(encode_request(request))
        assert decoded == request

    def test_response_round_trip(self):
        response = Response(ok=True, result={"answer": True}, id=7)
        decoded = decode_response(encode_response(response))
        assert decoded == response

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(json.dumps({"op": "explode"}))

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request("{not json")
        with pytest.raises(ProtocolError):
            decode_response("[1, 2]")

    def test_error_mapping_round_trip(self):
        for exc in (
            SessionNotFoundError("gone"),
            ExecutionError("bad insert"),
            LabelingError("no label"),
            ProtocolError("bad line"),
        ):
            response = decode_response(
                encode_response(error_response(exc, request_id=1))
            )
            with pytest.raises(type(exc)):
                raise_for_response(response)

    def test_missing_parameter(self):
        service = ReproService()
        response = service.handle(Request(op="query", params={}))
        assert not response.ok
        assert response.code == "protocol"

    def test_malformed_pairs_rejected_not_fatal(self):
        service = ReproService()
        service.manager.create("s", "running-example")
        for pairs in ([[1]], [[1, 2, 3]], "oops", [["a", "b"]]):
            response = service.handle(
                Request(op="query_batch",
                        params={"session": "s", "pairs": pairs})
            )
            assert not response.ok and response.code == "protocol"
        response = service.handle(
            Request(op="query",
                    params={"session": "s", "source": [1], "target": 0})
        )
        assert not response.ok and response.code == "protocol"

    def test_boolean_vertex_ids_rejected(self, running_spec):
        """JSON true/false are not vertex ids 1/0 (bool subclasses int)."""
        _, execution = make_execution(running_spec, size=60, seed=4)
        service = ReproService()
        service.manager.create("s", "running-example")
        service.engine.ingest("s", execution.insertions)
        assert execution.insertions[0].vid == 0  # so False would resolve
        for params in (
            {"source": False, "target": 0},
            {"source": 0, "target": True},
        ):
            response = service.handle(
                Request(op="query", params={"session": "s", **params})
            )
            assert not response.ok and response.code == "protocol"
        for pairs in ([[False, 0]], [[0, 0], [0, False]], [[0, True]]):
            response = service.handle(
                Request(op="query_batch",
                        params={"session": "s", "pairs": pairs})
            )
            assert not response.ok and response.code == "protocol"
        assert service.engine.stats().queries == 0
        response = service.handle(
            Request(op="query_batch",
                    params={"session": "s", "pairs": [[0, 0], (0, 0)]})
        )
        assert response.ok and len(response.result["answers"]) == 2

    @pytest.mark.parametrize("field, value", [
        ("vid", True),
        ("vid", "x"),
        ("vid", 1.0),
        ("name", 5),
        ("preds", [True]),
        ("preds", ["0"]),
        ("preds", "0"),
        ("origin.key", 0),
        ("origin.token", True),
        ("origin.tv", 2.0),
        ("slot.token", "1"),
        ("slot.tv", None),
    ])
    def test_ingest_refuses_ill_typed_events(
        self, running_spec, field, value
    ):
        """Ids, predecessors and origin/slot tokens are exact ints, the
        name and origin key strings; a bad event anywhere in a request
        refuses all of it before anything is applied."""
        _, execution = make_execution(running_spec, size=60, seed=4)
        wire = insertions_to_wire(execution.insertions[:8])
        bad = next(
            event for event in wire[1:] if "slot" in event and event["preds"]
        )
        outer, _, inner = field.partition(".")
        if inner:
            bad[outer][inner] = value
        else:
            bad[outer] = value
        service = ReproService()
        service.manager.create("s", "running-example")
        response = service.handle(
            Request(op="ingest", params={"session": "s", "insertions": wire})
        )
        assert not response.ok and response.code == "protocol", response
        assert outer in response.error
        session = service.manager.get("s")
        assert (len(session), session.version) == (0, 0)

    def test_unexpected_exceptions_become_responses(self):
        """A poisoned request must never escape handle() and kill the
        connection (TCP) or the server process (stdio)."""
        service = ReproService()
        response = service.handle(
            Request(op="create_session",
                    params={"name": "c", "checkpoint": 12345})
        )
        assert not response.ok
        response = service.handle(Request(op="ping"))
        assert response.ok  # the service is still serving


# ---------------------------------------------------------------------------
# checkpoint / recovery
# ---------------------------------------------------------------------------


class TestCheckpoint:
    def test_mid_run_round_trip(self, running_spec, tmp_path):
        """A session checkpointed mid-execution and restored answers
        every query identically to the uninterrupted session."""
        run, execution = make_execution(running_spec, size=250, seed=9)
        events = execution.insertions
        half = len(events) // 2

        manager = SessionManager()
        live = manager.create("live", running_spec)
        live.ingest_many(events[:half])
        checkpoint_session(live, tmp_path / "ckpt")
        live.ingest_many(events[half:])  # the uninterrupted session

        other = SessionManager()
        restored = restore_session(other, tmp_path / "ckpt")
        assert restored.name == "live"
        assert len(restored) == half
        restored.ingest_many(events[half:])  # resume after recovery

        vids = sorted(run.graph.vertices())
        rng = random.Random(13)
        for _ in range(300):
            a, b = rng.choice(vids), rng.choice(vids)
            assert restored.scheme.reaches(a, b) == live.scheme.reaches(a, b)
        assert restored.labeler.labels == live.labeler.labels

    def test_restore_under_new_name(self, running_spec, tmp_path):
        _, execution = make_execution(running_spec, size=100, seed=1)
        manager = SessionManager()
        live = manager.create("live", running_spec)
        live.ingest_many(execution.insertions)
        checkpoint_session(live, tmp_path / "ckpt")
        restored = restore_session(manager, tmp_path / "ckpt", name="copy")
        assert restored.name == "copy"
        assert manager.get("copy") is restored
        assert restored.labeler.labels == live.labeler.labels

    def test_corrupt_labels_detected(self, running_spec, tmp_path):
        """A record whose label fingerprint does not match what its
        events relabel to refuses the import, naming the record."""
        _, execution = make_execution(running_spec, size=80, seed=2)
        manager = SessionManager()
        live = manager.create("live", running_spec)
        live.ingest_many(execution.insertions)
        path = checkpoint_session(live, tmp_path / "ckpt")
        wal_path = path / "wal.jsonl"
        header, line = wal_path.read_text().splitlines(keepends=True)
        record = json.loads(line)
        record["crc"] ^= 1 << 7
        wal_path.write_text(header + json.dumps(record) + "\n")
        with pytest.raises(ServiceError, match="record 0 is corrupt"):
            restore_session(SessionManager(), path)

    def test_not_a_checkpoint(self, tmp_path):
        with pytest.raises(ServiceError):
            restore_session(SessionManager(), tmp_path)

    def test_recheckpoint_same_directory(self, running_spec, tmp_path):
        """A later checkpoint of the same session overwrites cleanly
        and no .tmp staging files are left behind."""
        _, execution = make_execution(running_spec, size=120, seed=14)
        events = execution.insertions
        manager = SessionManager()
        live = manager.create("live", running_spec)
        live.ingest_many(events[: len(events) // 2])
        checkpoint_session(live, tmp_path / "ckpt")
        live.ingest_many(events[len(events) // 2 :])
        path = checkpoint_session(live, tmp_path / "ckpt")
        assert not list(path.glob("*.tmp"))
        restored = restore_session(SessionManager(), path)
        assert len(restored) == len(events)

    def test_mixed_generation_detected(self, running_spec, tmp_path):
        """Lines of two exports spliced into one file are refused,
        never replayed into wrong state: the second export's records
        restart at seq 0."""
        _, execution = make_execution(running_spec, size=120, seed=15)
        events = execution.insertions
        manager = SessionManager()
        live = manager.create("live", running_spec)
        live.ingest_many(events[:40])
        path = checkpoint_session(live, tmp_path / "ckpt")
        older = (path / "wal.jsonl").read_text().splitlines(keepends=True)
        live.ingest_many(events[40:])
        checkpoint_session(live, path)
        with open(path / "wal.jsonl", "a") as handle:
            handle.writelines(older[1:])
        with pytest.raises(ServiceError, match="corrupt.*has seq 0"):
            restore_session(SessionManager(), path)


# ---------------------------------------------------------------------------
# server / client end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture()
def server():
    server = ReproServer(("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestServer:
    def test_end_to_end(self, server, running_spec, tmp_path):
        run, execution = make_execution(running_spec, size=150, seed=4)
        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.ping()
            client.create_session("demo", "running-example")
            assert client.list_sessions() == ["demo"]
            info = client.ingest("demo", execution.insertions)
            assert info["ingested"] == len(execution)

            vids = sorted(run.graph.vertices())
            rng = random.Random(17)
            pairs = [
                (rng.choice(vids), rng.choice(vids)) for _ in range(200)
            ]
            answers = client.query_batch("demo", pairs)
            expected = [reaches(run.graph, a, b) for a, b in pairs]
            assert answers == expected
            a, b = pairs[0]
            assert client.query("demo", a, b) == expected[0]

            snap = client.snapshot("demo", str(tmp_path / "ckpt"))
            assert snap["vertices"] == len(execution)
            client.create_session(
                "demo2", checkpoint=str(tmp_path / "ckpt")
            )
            assert client.query_batch("demo2", pairs) == expected

            stats = client.stats()
            assert stats["sessions"] == 2
            assert stats["queries"] >= 2 * len(pairs) + 1
            assert client.close_session("demo")["closed"] == "demo"

    def test_server_close_ends_every_connection(self):
        """An idle client connection does not keep its handler thread
        alive past server_close: the handler is joined, and the client
        reads EOF."""
        server = ReproServer(("127.0.0.1", 0))
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        before = set(threading.enumerate())
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b'{"op": "ping", "id": 1}\n')
            assert json.loads(reader.readline())["ok"] is True
            handlers = [t for t in threading.enumerate() if t not in before]
            assert handlers, "the connection has a handler thread"
            server.shutdown()
            server.server_close()
            serving.join(timeout=5)
            assert not serving.is_alive()
            assert [t for t in handlers if t.is_alive()] == []
            assert reader.readline() == b""
            reader.close()
        server.service.close()

    def test_remote_errors_are_mapped(self, server):
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(SessionNotFoundError):
                client.query("ghost", 0, 1)
            with pytest.raises(ServiceError):
                client.create_session("x", "no-such-spec")

    def test_two_connections_share_sessions(self, server, running_spec):
        _, execution = make_execution(running_spec, size=100, seed=6)
        with ServiceClient("127.0.0.1", server.port) as writer:
            writer.create_session("shared", "running-example")
            writer.ingest("shared", execution.insertions)
            with ServiceClient("127.0.0.1", server.port) as reader:
                assert "shared" in reader.list_sessions()
                first = execution.insertions[0].vid
                last = execution.insertions[-1].vid
                assert reader.query("shared", first, last) is True

    def test_stdio_transport(self, running_spec):
        import io as io_module

        from repro.service.server import serve_stdio

        _, execution = make_execution(running_spec, size=60, seed=8)
        lines = [
            json.dumps(
                {"op": "create_session", "id": 1, "name": "s",
                 "spec": "running-example"}
            ),
            json.dumps(
                {"op": "ingest", "id": 2, "session": "s",
                 "insertions": [
                     {"vid": ins.vid, "name": ins.name,
                      "preds": sorted(ins.preds),
                      "origin": {"key": ins.origin[0],
                                 "token": ins.origin[1],
                                 "tv": ins.origin[2]},
                      **({"slot": {"token": ins.slot[0],
                                   "tv": ins.slot[1]}}
                         if ins.slot else {})}
                     for ins in execution.insertions
                 ]}
            ),
            json.dumps({"op": "stats", "id": 3}),
            json.dumps({"op": "shutdown", "id": 4}),
            json.dumps({"op": "ping", "id": 5}),  # after shutdown: unread
        ]
        infile = io_module.StringIO("\n".join(lines) + "\n")
        outfile = io_module.StringIO()
        assert serve_stdio(ReproService(), infile, outfile) == 0
        replies = [
            json.loads(line)
            for line in outfile.getvalue().splitlines()
        ]
        assert len(replies) == 4  # the loop stops at shutdown
        assert all(reply["ok"] for reply in replies)
        assert replies[1]["result"]["ingested"] == len(execution)


def _raw_lines(port, lines, expect):
    """Send raw protocol lines over one TCP connection; return the
    decoded replies (the connection must survive all of them)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        reader = sock.makefile("r", encoding="utf-8")
        writer = sock.makefile("w", encoding="utf-8")
        replies = []
        for line in lines:
            writer.write(line + "\n")
            writer.flush()
            reply = reader.readline()
            assert reply, f"connection dropped after {line!r}"
            replies.append(json.loads(reply))
        assert len(replies) == expect
        return replies


class TestServerRobustness:
    """Poisoned input over a live TCP connection must always produce a
    structured error response on that same connection -- never a drop."""

    @pytest.fixture()
    def small_batch_server(self):
        service = ReproService(max_batch=8)
        server = ReproServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def test_malformed_json_line(self, server):
        replies = _raw_lines(
            server.port,
            ["{not json", json.dumps({"op": "ping", "id": 2})],
            expect=2,
        )
        assert replies[0]["ok"] is False
        assert replies[0]["code"] == "protocol"
        assert replies[1]["ok"] is True  # same connection still serves

    def test_unknown_op(self, server):
        replies = _raw_lines(
            server.port,
            [json.dumps({"op": "explode", "id": 1}),
             json.dumps({"op": "ping", "id": 2})],
            expect=2,
        )
        assert replies[0]["ok"] is False
        assert replies[0]["code"] == "protocol"
        assert "explode" in replies[0]["error"]
        assert replies[1]["ok"] is True

    def test_a_session_that_is_not_a_name_is_a_protocol_error(self, server):
        ops = ("query_batch", "ingest", "snapshot", "close", "sync")
        replies = _raw_lines(
            server.port,
            [json.dumps({"op": op, "session": ["a", "b"], "id": op})
             for op in ops],
            expect=len(ops),
        )
        for reply in replies:
            assert reply["ok"] is False, reply
            assert reply["code"] == "protocol", reply
            assert reply["error"] == "'session' must be a session name"

    def test_oversized_query_batch(self, small_batch_server, running_spec):
        _, execution = make_execution(running_spec, size=60, seed=19)
        with ServiceClient(
            "127.0.0.1", small_batch_server.port
        ) as client:
            client.create_session("s", "running-example")
            client.ingest("s", execution.insertions[:8])
            vid = execution.insertions[0].vid
            with pytest.raises(ProtocolError, match="exceeds"):
                client.query_batch("s", [(vid, vid)] * 9)
            # an oversized ingest is the same structured refusal
            with pytest.raises(ProtocolError, match="exceeds"):
                client.ingest("s", execution.insertions[8:40])
            # chunked pipelining slips under the cap on one connection
            answers = client.query_batch("s", [(vid, vid)] * 40, chunk=8)
            assert answers == [True] * 40
            assert client.ping()

    def test_mid_batch_labeling_error(self, server, running_spec):
        _, execution = make_execution(running_spec, size=60, seed=20)
        with ServiceClient("127.0.0.1", server.port) as client:
            client.create_session("lab", "running-example")
            client.ingest("lab", execution.insertions)
            good = execution.insertions[0].vid
            before = client.stats()
            with pytest.raises(LabelingError):
                client.query_batch("lab", [(good, good), (good, 10 ** 9)])
            after = client.stats()
            # the failed batch left the counters untouched
            assert after["queries"] == before["queries"]
            assert after["query_errors"] == before["query_errors"] + 1
            assert client.query("lab", good, good) is True
            client.close_session("lab")


class TestPipelinedClient:
    def test_chunked_matches_plain(self, server, running_spec):
        run, execution = make_execution(running_spec, size=150, seed=23)
        with ServiceClient("127.0.0.1", server.port) as client:
            client.create_session("pipe", "running-example")
            client.ingest("pipe", execution.insertions)
            vids = sorted(run.graph.vertices())
            rng = random.Random(29)
            pairs = [
                (rng.choice(vids), rng.choice(vids)) for _ in range(333)
            ]
            plain = client.query_batch("pipe", pairs)
            chunked = client.query_batch("pipe", pairs, chunk=32, window=4)
            assert chunked == plain
            expected = [reaches(run.graph, a, b) for a, b in pairs]
            assert plain == expected
            client.close_session("pipe")

    def test_pipeline_mixed_ops_in_request_order(self, server):
        with ServiceClient("127.0.0.1", server.port) as client:
            results = client.pipeline(
                [
                    ("ping", {}),
                    ("create_session",
                     {"name": "px", "spec": "running-example"}),
                    ("list_sessions", {}),
                    ("close", {"session": "px"}),
                ]
            )
            assert results[0]["pong"] is True
            assert results[1]["session"] == "px"
            assert "px" in results[2]["sessions"]
            assert results[3]["closed"] == "px"

    def test_pipeline_failure_drains_connection(self, server):
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(SessionNotFoundError):
                client.pipeline(
                    [
                        ("ping", {}),
                        ("query",
                         {"session": "ghost", "source": 0, "target": 1}),
                        ("ping", {}),
                    ]
                )
            assert client.ping()  # every response was drained

    def test_pipeline_matches_out_of_order_ids(self):
        """A relay (or future server) may reorder responses; the client
        must match them back to requests by id."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def reversing_server():
            conn, _ = listener.accept()
            with conn:
                stream = conn.makefile("rw", encoding="utf-8")
                requests = [json.loads(stream.readline()) for _ in range(3)]
                for request in reversed(requests):
                    stream.write(
                        json.dumps(
                            {
                                "ok": True,
                                "id": request["id"],
                                "result": {"echo": request["id"]},
                            }
                        )
                        + "\n"
                    )
                stream.flush()

        thread = threading.Thread(target=reversing_server, daemon=True)
        thread.start()
        try:
            client = ServiceClient("127.0.0.1", port)
            try:
                results = client.pipeline([("ping", {})] * 3, window=3)
                assert [r["echo"] for r in results] == [1, 2, 3]
            finally:
                client.close()
        finally:
            thread.join(timeout=10)
            listener.close()


# ---------------------------------------------------------------------------
# concurrency soak
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_ingest_and_query_soak(self, running_spec):
        """One writer streams a run in while readers batch-query the
        already-labeled prefix; every answer must match ground truth."""
        run, execution = make_execution(running_spec, size=400, seed=21)
        manager = SessionManager()
        engine = QueryEngine(manager)
        manager.create("soak", running_spec)
        events = execution.insertions
        done = threading.Event()
        errors = []

        def writer():
            try:
                for start in range(0, len(events), 16):
                    engine.ingest("soak", events[start : start + 16])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        def reader(seed):
            rng = random.Random(seed)
            try:
                while not done.is_set():
                    session = manager.get("soak")
                    with session.lock:
                        seen = list(session.labeler.labels)
                    if len(seen) < 2:
                        continue
                    pairs = [
                        (rng.choice(seen), rng.choice(seen))
                        for _ in range(50)
                    ]
                    answers = engine.query_many("soak", pairs)
                    for (a, b), answer in zip(pairs, answers):
                        if answer != reaches(run.graph, a, b):
                            errors.append(
                                AssertionError(f"wrong answer {a}~>{b}")
                            )
                            return
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(seed,))
            for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[0]
        assert len(manager.get("soak")) == len(events)

    def test_interleaved_ingest_and_query_batch(self, running_spec):
        """A writer thread acks ingest chunks while a reader thread runs
        query_batch on the same session; every answer is BFS-equal,
        including pairs that name the chunk acked just before."""
        run, execution = make_execution(running_spec, size=300, seed=22)
        service = ReproService()
        service.manager.create("live", "running-example")
        events = execution.insertions
        acked = [0]  # events acknowledged so far (written by the writer)
        done = threading.Event()
        errors = []
        checked = []

        def writer():
            from repro.service.protocol import insertions_to_wire

            try:
                for start in range(0, len(events), 12):
                    chunk = events[start : start + 12]
                    response = service.handle(Request(
                        op="ingest",
                        params={"session": "live",
                                "insertions": insertions_to_wire(chunk)},
                    ))
                    assert response.ok, response.error
                    acked[0] = start + len(chunk)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        def reader():
            rng = random.Random(5)
            try:
                while True:
                    finished = done.is_set()
                    count = acked[0]
                    if count:
                        newest = [ins.vid for ins in
                                  events[max(0, count - 12):count]]
                        seen = [ins.vid for ins in events[:count]]
                        pairs = [
                            [rng.choice(seen), rng.choice(newest)]
                            for _ in range(20)
                        ] + [
                            [rng.choice(newest), rng.choice(seen)]
                            for _ in range(20)
                        ]
                        response = service.handle(Request(
                            op="query_batch",
                            params={"session": "live", "pairs": pairs},
                        ))
                        assert response.ok, response.error
                        expected = [reaches(run.graph, a, b)
                                    for a, b in pairs]
                        assert response.result["answers"] == expected
                        checked.append(count)
                    if finished:
                        return
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors[0]
        assert checked and checked[-1] == len(events)
        assert service.engine.stats().queries == 40 * len(checked)

    def test_concurrent_sessions(self, running_spec):
        """Many sessions ingesting in parallel stay fully isolated."""
        manager = SessionManager()
        engine = QueryEngine(manager)
        runs = {}
        for i in range(4):
            name = f"s{i}"
            run, execution = make_execution(
                running_spec, size=120, seed=30 + i
            )
            runs[name] = (run, execution)
            manager.create(name, running_spec)

        errors = []

        def work(name):
            run, execution = runs[name]
            try:
                engine.ingest(name, execution.insertions)
                vids = sorted(run.graph.vertices())
                rng = random.Random(name)
                pairs = [
                    (rng.choice(vids), rng.choice(vids))
                    for _ in range(100)
                ]
                answers = engine.query_many(name, pairs)
                expected = [reaches(run.graph, a, b) for a, b in pairs]
                assert answers == expected
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((name, exc))

        threads = [
            threading.Thread(target=work, args=(name,)) for name in runs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert engine.stats().ingested == sum(
            len(execution) for _, execution in runs.values()
        )
