"""Tests for WAL-shipping replication (repro.service.replication).

The contract under test, end to end:

* a replica applies the primary's shipped WAL into its *own* durable
  store and serves BFS-correct reads, with staleness wire-visible as
  ``replica_lag`` on every response;
* promotion bumps the epoch durably before the first write, and the
  fenced old primary can never acknowledge a write again (no zombie
  acks, no two primaries on one epoch);
* ship positions and acks count only within the hub lifetime that
  assigned them, and a restarted replica ranks for promotion by the
  position it persisted;
* ``as_of`` answers, for every acknowledged version, equal BFS on the
  prefix graph that version covered; torn-tail recovery reports the
  bytes dropped.

Real processes crashed at every failpoint, on every topology, are the
fault matrix in ``tests/test_faults.py``.
"""

from __future__ import annotations

import json
import random
import re
import threading
import time

import pytest

from repro.errors import ProtocolError, ReproError, ServiceError
from repro.graphs.reachability import reaches
from repro.service import ServiceClient
from repro.service.protocol import (
    Request,
    insertions_to_wire,
    raise_for_response,
)
from repro.service.replication import (
    ReplicationHub,
    choose_promotion_target,
    probe_replication,
)
from repro.service.server import ReproServer, ReproService
from repro.service.wal import wal_header
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation


def make_execution(spec, size=120, seed=0):
    run = sample_run(spec, size, random.Random(seed))
    return run, execution_from_derivation(run)


def call(service, op, **params):
    """Drive one op through a ReproService in process."""
    return raise_for_response(
        service.handle(Request(op=op, params=params, id=1))
    )


def start_server(service, port=0):
    server = ReproServer(("127.0.0.1", port), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def stop_server(server):
    server.shutdown()
    server.server_close()
    server.service.close()


def wait_until(predicate, timeout=20.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def applied_position(port):
    info = probe_replication(("127.0.0.1", port))
    if info is None:
        return -1
    return int(info.get("applied", -1))


def replica_service(data_dir, primary, peers=(), min_acks=0):
    return ReproService(
        data_dir=str(data_dir),
        fsync="never",
        replicate_from=("127.0.0.1", primary.port),
        repl_peers=[("127.0.0.1", peer.port) for peer in peers],
        repl_min_acks=min_acks,
        replica_id=data_dir.name,
    )


def semi_sync_primary(data_dir, port=0):
    return start_server(
        ReproService(data_dir=str(data_dir), fsync="never", repl_min_acks=1),
        port=port,
    )


def ingest_chunks(port, session, events, chunk=4):
    with ServiceClient("127.0.0.1", port) as writer:
        for lo in range(0, len(events), chunk):
            writer.ingest(session, events[lo:lo + chunk])


def held(server, session):
    manager = server.service.manager
    return len(manager.get(session)) if session in manager else 0


def as_of_answers(port, session, events, version):
    """``as_of`` answers from the first event to every event, with each
    refusal as its message."""
    got = []
    with ServiceClient("127.0.0.1", port) as client:
        for event in events:
            try:
                got.append(client.query(
                    session, events[0].vid, event.vid, as_of=version
                ))
            except ReproError as exc:
                got.append(str(exc))
    return got


@pytest.fixture()
def pair(tmp_path):
    """A durable primary and one live replica, both over TCP."""
    primary = start_server(
        ReproService(data_dir=str(tmp_path / "pri"), fsync="never")
    )
    replica = start_server(
        ReproService(
            data_dir=str(tmp_path / "rep"),
            fsync="never",
            replicate_from=("127.0.0.1", primary.port),
            replica_id="r1",
        )
    )
    yield primary, replica
    stop_server(replica)
    stop_server(primary)


# ---------------------------------------------------------------------------
# the hub: ring, long-poll, reset, acks
# ---------------------------------------------------------------------------


class TestReplicationHub:
    @pytest.fixture()
    def service(self, tmp_path):
        service = ReproService(data_dir=str(tmp_path / "d"), fsync="never")
        yield service
        service.close()

    def test_negative_from_seq_requests_reset(self, service):
        result = call(service, "repl_subscribe", from_seq=-1)
        assert result["reset"] is True
        assert result["snapshot"] == []
        assert result["seq"] == 0

    def test_records_ship_past_the_subscriber_position(
        self, service, running_spec
    ):
        _, execution = make_execution(running_spec, size=40, seed=1)
        call(service, "create_session", name="s", spec="running-example")
        call(
            service,
            "ingest",
            session="s",
            insertions=insertions_to_wire(execution.insertions[:10]),
        )
        token = service.hub.token
        result = call(service, "repl_subscribe", from_seq=0, token=token)
        kinds = [record["kind"] for record in result["records"]]
        assert kinds == ["create", "ingest"]
        assert result["seq"] == 2
        assert result["epoch"] == service.store.epoch
        assert result["token"] == token
        # a caught-up subscriber long-polls and times out empty
        again = call(
            service, "repl_subscribe", from_seq=result["seq"], wait=0.05,
            token=token,
        )
        assert again["records"] == []
        # a position without this hub's token names nothing here
        assert call(service, "repl_subscribe", from_seq=0)["reset"] is True

    def test_fallen_off_the_ring_forces_reset_with_snapshot(
        self, service, running_spec
    ):
        _, execution = make_execution(running_spec, size=60, seed=2)
        call(service, "create_session", name="s", spec="running-example")
        hub = ReplicationHub(
            service.manager, service.store, ring_capacity=16
        )
        session = service.manager.get("s")
        session.ingest_many(execution.insertions[:20])
        for _ in range(20):
            hub.publish(session, session.log[0])
        result = hub.subscribe(from_seq=0)
        assert result["reset"] is True
        names = [entry["session"] for entry in result["snapshot"]]
        assert names == ["s"]
        # the reset ships the session's WAL header and lines
        (entry,) = result["snapshot"]
        assert entry["header"]["session"] == "s"
        assert entry["lines"] == ['{"seq": 0, ' + session.log[0]]

    def test_ack_and_wait_covered(self, service):
        hub = ReplicationHub(
            service.manager, service.store, min_acks=1, ack_timeout=0.1
        )
        with pytest.raises(ServiceError, match="replica"):
            hub.wait_covered(0, timeout=0.05)
        token = hub.token
        assert hub.ack("r1", 3, token=token)["acked"] == 3
        # acks are monotone: a stale ack never regresses
        hub.ack("r1", 1, token=token)
        # and one under another hub lifetime's token is not counted
        hub.ack("r1", 9, token=[token[0], token[1] - 1])
        assert hub.lag_table()["replicas"]["r1"]["acked"] == 3
        hub.wait_covered(3, timeout=0.05)  # returns, no raise
        with pytest.raises(ServiceError):
            hub.wait_covered(4, timeout=0.05)

    def test_a_semi_sync_create_waits_for_a_replica(self, tmp_path):
        """A create no replica holds is not acknowledged, as an ingest
        is not: a failover before the first ingest would lose it."""
        service = ReproService(data_dir=str(tmp_path / "d"), fsync="never",
                               repl_min_acks=1)
        service.hub.ack_timeout = 0.1
        try:
            with pytest.raises(ServiceError, match="replication timeout"):
                call(service, "create_session", name="s",
                     spec="running-example")
        finally:
            service.close()

    def test_higher_epoch_ack_fences_the_node(self, service):
        hub = ReplicationHub(service.manager, service.store)
        with pytest.raises(ServiceError, match="fenced"):
            hub.ack("r1", 0, epoch=service.store.epoch + 1)
        assert service.store.fenced


# ---------------------------------------------------------------------------
# primary -> replica over TCP
# ---------------------------------------------------------------------------


class TestReplicaServesReads:
    def test_replica_answers_match_bfs_and_carry_lag(
        self, pair, running_spec
    ):
        primary, replica = pair
        run, execution = make_execution(running_spec, size=120, seed=3)
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.create_session("demo", "running-example")
            writer.ingest("demo", execution.insertions)
        assert wait_until(lambda: applied_position(replica.port) >= 2)

        vids = sorted(run.graph.vertices())
        rng = random.Random(7)
        pairs = [(rng.choice(vids), rng.choice(vids)) for _ in range(150)]
        with ServiceClient("127.0.0.1", replica.port) as reader:
            assert reader.list_sessions() == ["demo"]
            answers = reader.query_batch("demo", pairs)
            assert reader.last_replica_lag is not None
            assert reader.last_replica_lag["role"] == "replica"
            assert reader.last_replica_lag["applied"] >= 2
        assert answers == [reaches(run.graph, a, b) for a, b in pairs]

    def test_a_ringed_create_is_one_str_the_replica_opens(
        self, pair, running_spec
    ):
        primary, replica = pair
        run, execution = make_execution(running_spec, size=60, seed=8)
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.create_session("demo", "running-example", scheme="naive")
            writer.ingest("demo", execution.insertions)
        session = primary.service.manager.get("demo")
        assert list(primary.service.hub._ring)[0] == {
            "pos": 0, "kind": "create", "session": "demo",
            "text": json.dumps(wal_header(session)),
        }
        assert wait_until(lambda: held(replica, "demo") == len(execution))
        assert replica.service.manager.get("demo").scheme_name == "naive"
        vids = sorted(run.graph.vertices())
        pairs = [(a, b) for a in vids[:10] for b in vids[-10:]]
        with ServiceClient("127.0.0.1", replica.port) as reader:
            answers = reader.query_batch("demo", pairs)
        assert answers == [reaches(run.graph, a, b) for a, b in pairs]

    def test_replica_refuses_writes(self, pair, running_spec):
        primary, replica = pair
        _, execution = make_execution(running_spec, size=30, seed=4)
        with ServiceClient("127.0.0.1", replica.port) as reader:
            with pytest.raises(ServiceError, match="read replica"):
                reader.create_session("x", "running-example")
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.create_session("demo", "running-example")
            writer.ingest("demo", execution.insertions[:10])
        assert wait_until(lambda: applied_position(replica.port) >= 2)
        with ServiceClient("127.0.0.1", replica.port) as reader:
            with pytest.raises(ServiceError, match="read replica"):
                reader.ingest("demo", execution.insertions[10:12])
            with pytest.raises(ServiceError, match="read replica"):
                reader.close_session("demo")

    def test_session_close_replicates(self, pair, running_spec):
        primary, replica = pair
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.create_session("gone", "running-example")
            assert wait_until(lambda: applied_position(replica.port) >= 1)
            writer.close_session("gone")

        def closed_everywhere():
            with ServiceClient("127.0.0.1", replica.port) as reader:
                return reader.list_sessions() == []

        assert wait_until(closed_everywhere)

    def test_late_replica_bootstraps_from_snapshot(
        self, pair, running_spec, tmp_path
    ):
        # a replica started AFTER the primary ingested must reset onto
        # a full snapshot (its from_seq=-1 never saw the ring)
        primary, _ = pair
        run, execution = make_execution(running_spec, size=80, seed=5)
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.create_session("old", "running-example")
            writer.ingest("old", execution.insertions)
        late = start_server(
            ReproService(
                data_dir=str(tmp_path / "late"),
                fsync="never",
                replicate_from=("127.0.0.1", primary.port),
                replica_id="late",
            )
        )
        try:
            assert wait_until(lambda: applied_position(late.port) > 0)
            vids = sorted(run.graph.vertices())
            pairs = [(vids[0], v) for v in vids[:40]]
            with ServiceClient("127.0.0.1", late.port) as reader:
                answers = reader.query_batch("old", pairs)
            assert answers == [reaches(run.graph, a, b) for a, b in pairs]
        finally:
            stop_server(late)

    def test_late_replica_answers_as_of_like_the_primary(
        self, pair, running_spec, tmp_path
    ):
        """A replica bootstrapped by a reset replays the primary's WAL
        lines with their versions, so for every version its ``as_of``
        answers and refusals are the primary's."""
        primary, _ = pair
        _, execution = make_execution(running_spec, size=80, seed=5)
        events = execution.insertions[:60]
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.create_session("old", "running-example")
            for lo in range(0, 60, 20):
                writer.ingest("old", events[lo:lo + 20])
        late = start_server(replica_service(tmp_path / "late", primary))
        try:
            assert wait_until(lambda: applied_position(late.port) > 0)
            for version in range(4):
                expected = as_of_answers(primary.port, "old", events, version)
                assert as_of_answers(late.port, "old", events, version) == (
                    expected
                )
                refused = sum(isinstance(a, str) for a in expected)
                assert refused == 60 - 20 * version
        finally:
            stop_server(late)

    def test_restarted_replica_keeps_its_prefix_on_reset(
        self, pair, running_spec, tmp_path
    ):
        """A restarted replica recovers its own WAL, then resumes from
        the position it persisted: it applies only the shipped records
        past what it holds, rebuilding nothing, and answers ``as_of``
        like the primary.  (A reset, under a new primary's token, keeps
        the prefix the same way; see TestPositionsBelongToOneHubLifetime.)"""
        primary, _ = pair
        _, execution = make_execution(running_spec, size=80, seed=5)
        events = execution.insertions[:60]
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.create_session("run", "running-example")
            writer.ingest("run", events[:20])
            writer.ingest("run", events[20:40])
        replica = start_server(replica_service(tmp_path / "r2", primary))
        assert wait_until(lambda: applied_position(replica.port) >= 3)
        stop_server(replica)
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.ingest("run", events[40:60])
        replica = start_server(replica_service(tmp_path / "r2", primary))
        try:
            (report,) = replica.service.store.recovery
            assert report["vertices"] == 40
            # create + three ingests: position 4
            assert wait_until(lambda: applied_position(replica.port) >= 4)
            assert len(replica.service.manager.get("run")) == 60
            for version in range(4):
                assert as_of_answers(replica.port, "run", events, version) == (
                    as_of_answers(primary.port, "run", events, version)
                )
            assert not list((tmp_path / "r2").glob("*.closed.*"))
        finally:
            stop_server(replica)


    def test_replica_wal_lines_are_the_primarys(
        self, pair, running_spec, tmp_path
    ):
        """A shipped record is replayed as its text: the replica's WAL
        is the primary's byte for byte, trace ids included."""
        primary, replica = pair
        _, execution = make_execution(running_spec, size=80, seed=5)
        events = execution.insertions[:60]
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.create_session("run", "running-example")
            writer.ingest("run", events[:20], trace_id="feed0001")
            writer.ingest("run", events[20:40])
            writer.ingest("run", events[40:60], trace_id="feed0003")
        shipped = primary.service.hub.seq
        assert wait_until(lambda: applied_position(replica.port) >= shipped)
        primary_wal = tmp_path / "pri" / "s-run" / "wal.jsonl"
        replica_wal = tmp_path / "rep" / "s-run" / "wal.jsonl"
        assert '"trace_id": "feed0003"' in primary_wal.read_text()
        assert replica_wal.read_bytes() == primary_wal.read_bytes()

    def test_shipped_record_with_a_flipped_crc_forces_a_resync(
        self, running_spec, tmp_path
    ):
        """The replica checks a shipped record's label fingerprint as
        recovery does: a record whose ``crc`` was flipped in flight is
        not applied, the replica resyncs from a snapshot, and it ends
        with the primary's WAL lines and answers."""
        primary = start_server(
            ReproService(data_dir=str(tmp_path / "pri"), fsync="never")
        )
        hub = primary.service.hub
        subscribe = hub.subscribe
        flipped = []

        def flipping(from_seq, **params):
            response = subscribe(from_seq, **params)
            records = response.get("records", [])
            for index, record in enumerate(records):
                if record["kind"] == "ingest" and not flipped:
                    flipped.append(record["pos"])
                    records[index] = dict(record, text=re.sub(
                        r'"crc": (\d+)',
                        lambda m: f'"crc": {int(m.group(1)) ^ 1}',
                        record["text"],
                    ))
            return response

        hub.subscribe = flipping
        replica = start_server(replica_service(tmp_path / "rep", primary))
        try:
            _, execution = make_execution(running_spec, size=80, seed=5)
            events = execution.insertions[:60]
            with ServiceClient("127.0.0.1", primary.port) as writer:
                writer.create_session("run", "running-example")
                for lo in range(0, 60, 20):
                    writer.ingest("run", events[lo:lo + 20])
            assert wait_until(
                lambda: applied_position(replica.port) >= hub.seq
                and "run" in replica.service.manager
            )
            assert flipped
            errors = replica.service.applier.errors
            assert any("is corrupt" in error for error in errors), errors
            # the copy closed at the flipped record was archived
            assert (tmp_path / "rep" / "s-run.closed.0").is_dir()
            primary_wal = tmp_path / "pri" / "s-run" / "wal.jsonl"
            replica_wal = tmp_path / "rep" / "s-run" / "wal.jsonl"
            assert replica_wal.read_bytes() == primary_wal.read_bytes()
            for version in range(4):
                assert as_of_answers(replica.port, "run", events, version) == (
                    as_of_answers(primary.port, "run", events, version)
                )
        finally:
            stop_server(replica)
            stop_server(primary)


# ---------------------------------------------------------------------------
# promotion and epoch fencing
# ---------------------------------------------------------------------------


class TestPromotion:
    def test_promote_accepts_writes_and_fences_the_zombie(
        self, pair, running_spec
    ):
        primary, replica = pair
        run, execution = make_execution(running_spec, size=100, seed=6)
        events = execution.insertions
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.create_session("demo", "running-example")
            writer.ingest("demo", events[:50])
            primary_epoch = probe_replication(
                ("127.0.0.1", primary.port)
            )["epoch"]
        assert wait_until(lambda: applied_position(replica.port) >= 2)

        with ServiceClient("127.0.0.1", replica.port) as client:
            result = client.promote()
            assert result["promoted"] is True
            assert result["epoch"] == primary_epoch + 1
            assert "demo" in result["sessions"]
            # the promoted node is now writable and finishes the run
            client.ingest("demo", events[50:])
            vids = sorted(run.graph.vertices())
            rng = random.Random(11)
            pairs = [
                (rng.choice(vids), rng.choice(vids)) for _ in range(100)
            ]
            answers = client.query_batch("demo", pairs)
            assert answers == [reaches(run.graph, a, b) for a, b in pairs]
            info = probe_replication(("127.0.0.1", replica.port))
            assert info["role"] == "primary"
            assert info["epoch"] == primary_epoch + 1

        # the old primary, once contacted at the higher epoch, fences
        # itself: no further append can be acknowledged on its timeline
        with ServiceClient("127.0.0.1", primary.port) as zombie:
            with pytest.raises(ServiceError, match="fenced"):
                zombie.repl_ack("r1", 0, epoch=primary_epoch + 1)
            with pytest.raises(ServiceError, match="fenced"):
                zombie.ingest("demo", events[50:52])

    def test_promote_rejects_stale_epoch_and_plain_primary(self, pair):
        primary, replica = pair
        with ServiceClient("127.0.0.1", primary.port) as client:
            with pytest.raises(ServiceError, match="already a primary"):
                client.promote()
        with ServiceClient("127.0.0.1", replica.port) as client:
            current = probe_replication(
                ("127.0.0.1", replica.port)
            )["epoch"]
            with pytest.raises(ServiceError, match="must exceed"):
                client.promote(epoch=current)

    def test_choose_promotion_target_prefers_most_applied(
        self, pair, running_spec, tmp_path
    ):
        primary, replica = pair
        _, execution = make_execution(running_spec, size=60, seed=8)
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.create_session("demo", "running-example")
            writer.ingest("demo", execution.insertions)
        assert wait_until(lambda: applied_position(replica.port) >= 2)
        endpoints = [
            ("127.0.0.1", primary.port),   # not a replica: skipped
            ("127.0.0.1", replica.port),
            ("127.0.0.1", 1),              # unreachable: skipped
        ]
        assert choose_promotion_target(endpoints) == (
            "127.0.0.1",
            replica.port,
        )


class TestPositionsBelongToOneHubLifetime:
    """Ship positions count from 0 in every hub lifetime, at a primary's
    boot and at a promotion: a replica's position, and its ack, mean
    something only under the token of the lifetime that assigned them.
    Under ``--repl-min-acks 1`` an acknowledged ingest is therefore held
    by a replica, and no lag row reads a negative ``behind``."""

    def acks_wait_for_a_replica(self, port, replica, events, start):
        with ServiceClient("127.0.0.1", port) as writer:
            for lo in range(0, len(events), 4):
                writer.ingest("s", events[lo:lo + 4])
                assert held(replica, "s") >= start + lo + 4
        table = probe_replication(("127.0.0.1", port))
        assert table["replicas"]
        assert all(row["behind"] >= 0 for row in table["replicas"].values())

    def test_a_restarted_primary_counts_only_its_own_positions(
        self, running_spec, tmp_path
    ):
        _, execution = make_execution(running_spec, size=80, seed=21)
        events = execution.insertions
        primary = semi_sync_primary(tmp_path / "pri")
        replica = start_server(replica_service(tmp_path / "rep", primary))
        port = primary.port
        try:
            with ServiceClient("127.0.0.1", port) as writer:
                writer.create_session("s", "running-example")
            ingest_chunks(port, "s", events[:40])
            assert applied_position(replica.port) == 11
            stop_server(primary)
            primary = semi_sync_primary(tmp_path / "pri", port=port)
            self.acks_wait_for_a_replica(port, replica, events[40:48], 40)
            assert not list((tmp_path / "rep").glob("*.closed.*"))
        finally:
            stop_server(replica)
            stop_server(primary)

    def test_a_retargeted_replica_counts_only_the_new_primarys_positions(
        self, running_spec, tmp_path
    ):
        _, execution = make_execution(running_spec, size=80, seed=22)
        events = execution.insertions
        primary = semi_sync_primary(tmp_path / "pri")
        a = start_server(replica_service(tmp_path / "a", primary, min_acks=1))
        b = start_server(replica_service(tmp_path / "b", primary, peers=[a]))
        try:
            with ServiceClient("127.0.0.1", primary.port) as writer:
                writer.create_session("s", "running-example")
            ingest_chunks(primary.port, "s", events[:40])
            assert wait_until(lambda: applied_position(b.port) == 11)
            stop_server(primary)
            with ServiceClient("127.0.0.1", a.port) as client:
                client.promote()
            self.acks_wait_for_a_replica(a.port, b, events[40:48], 40)
        finally:
            stop_server(b)
            stop_server(a)


class TestRestartedReplicaRanksByItsWal:
    def test_promotion_picks_the_replica_that_holds_most_after_its_restart(
        self, running_spec, tmp_path
    ):
        """A replica persists the position it acknowledges, so after a
        restart it ranks by what its WAL holds, not last: promoting the
        choice loses no acknowledged event, though a partitioned
        replica stayed up far behind."""
        _, execution = make_execution(running_spec, size=100, seed=23)
        events = execution.insertions[:80]
        primary = semi_sync_primary(tmp_path / "pri")
        a = start_server(replica_service(tmp_path / "a", primary))
        b = start_server(replica_service(tmp_path / "b", primary, peers=[a]))
        try:
            with ServiceClient("127.0.0.1", primary.port) as writer:
                writer.create_session("s", "running-example")
            ingest_chunks(primary.port, "s", events[:8])
            assert wait_until(lambda: applied_position(b.port) == 3)
            b.service.applier.stop()  # partitioned: up, but 72 behind
            ingest_chunks(primary.port, "s", events[8:])
            stop_server(primary)
            stop_server(a)
            a = start_server(replica_service(tmp_path / "a", primary, [b]))
            endpoints = [("127.0.0.1", a.port), ("127.0.0.1", b.port)]
            assert choose_promotion_target(endpoints) == endpoints[0]
            with ServiceClient("127.0.0.1", a.port) as client:
                client.promote()
                vids = [event.vid for event in events]
                assert all(client.query_batch("s", [(v, v) for v in vids]))
        finally:
            stop_server(b)
            stop_server(a)


# ---------------------------------------------------------------------------
# time travel
# ---------------------------------------------------------------------------


def prefix_graph(events):
    """The run graph built from an insertion-log prefix alone."""
    from repro.graphs.digraph import NamedDAG

    graph = NamedDAG()
    for event in events:
        graph.add_vertex(event.vid, event.name)
        for pred in event.preds:
            graph.add_edge(pred, event.vid)
    return graph


class TestTimeTravel:
    def test_as_of_matches_bfs_on_every_prefix(self, tmp_path, running_spec):
        """Record an ingest history in random batch sizes; for every
        acknowledged version V, ``as_of=V`` answers equal BFS on the
        graph of the events V covered, and a vertex born after V gets
        the ``labeling`` error."""
        _, execution = make_execution(running_spec, size=90, seed=9)
        events = execution.insertions
        rng = random.Random(15)
        service = ReproService(data_dir=str(tmp_path / "d"), fsync="never")
        try:
            call(service, "create_session", name="s",
                 spec="running-example")
            covered = {0: 0}  # version -> insertion-log length
            lo = 0
            while lo < len(events):
                hi = min(len(events), lo + rng.randint(1, 12))
                version = call(service, "ingest", session="s",
                               insertions=insertions_to_wire(
                                   events[lo:hi]))["version"]
                covered[version] = hi
                lo = hi
            assert len(covered) > 5
            for version, end in sorted(covered.items()):
                graph = prefix_graph(events[:end])
                vids = [event.vid for event in events[:end]]
                pairs = [[a, b] for a in vids[::3] for b in vids[::2]]
                if pairs:
                    got = call(service, "query_batch", session="s",
                               pairs=pairs, as_of=version)
                    assert got["as_of"] == version
                    assert got["answers"] == [
                        reaches(graph, a, b) for a, b in pairs
                    ]
                if end < len(events):
                    later = events[end].vid
                    response = service.handle(Request(
                        op="query", id=1,
                        params={"session": "s", "source": later,
                                 "target": later, "as_of": version},
                    ))
                    assert not response.ok
                    assert response.code == "labeling"
            # a version the server never acknowledged is refused
            beyond = max(covered) + 1
            response = service.handle(Request(
                op="query", id=1,
                params={"session": "s", "source": events[0].vid,
                        "target": events[0].vid, "as_of": beyond},
            ))
            assert not response.ok and response.code == "service"
        finally:
            service.close()

    def test_as_of_survives_recovery(self, tmp_path, running_spec):
        _, execution = make_execution(running_spec, size=60, seed=10)
        events = execution.insertions
        service = ReproService(data_dir=str(tmp_path / "d"), fsync="never")
        call(service, "create_session", name="s", spec="running-example")
        first = call(service, "ingest", session="s",
                     insertions=insertions_to_wire(events[:25]))["version"]
        call(service, "ingest", session="s",
             insertions=insertions_to_wire(events[25:]))
        service.close()
        revived = ReproService(data_dir=str(tmp_path / "d"))
        try:
            with pytest.raises(Exception, match="no label"):
                call(revived, "query", session="s", source=events[30].vid,
                     target=events[30].vid, as_of=first)
            assert call(revived, "query", session="s",
                        source=events[0].vid, target=events[0].vid,
                        as_of=first)["answer"] is True
        finally:
            revived.close()

    def test_as_of_rejects_non_integers(self, tmp_path, running_spec):
        _, execution = make_execution(running_spec, size=20, seed=11)
        service = ReproService(
            data_dir=str(tmp_path / "d"), fsync="never"
        )
        try:
            call(service, "create_session", name="s",
                 spec="running-example")
            call(service, "ingest", session="s",
                 insertions=insertions_to_wire(execution.insertions))
            with pytest.raises(ProtocolError, match="as_of"):
                call(service, "query", session="s",
                     source=execution.insertions[0].vid,
                     target=execution.insertions[0].vid,
                     as_of="latest")
        finally:
            service.close()


# ---------------------------------------------------------------------------
# torn-tail detail reporting
# ---------------------------------------------------------------------------


class TestTornTailDetails:
    def test_recover_info_reports_bytes_dropped_and_last_good_seq(
        self, tmp_path, running_spec
    ):
        _, execution = make_execution(running_spec, size=60, seed=12)
        events = execution.insertions
        service = ReproService(data_dir=str(tmp_path / "data"))
        call(service, "create_session", name="s1",
             spec="running-example")
        call(service, "ingest", session="s1",
             insertions=insertions_to_wire(events[:20]))
        call(service, "ingest", session="s1",
             insertions=insertions_to_wire(events[20:40]))
        service.close()
        wal_path = next((tmp_path / "data").glob("s-*/wal.jsonl"))
        intact = wal_path.read_bytes()
        wal_path.write_bytes(intact[:-9])

        revived = ReproService(data_dir=str(tmp_path / "data"))
        try:
            info = call(revived, "recover_info")
            report = next(
                r for r in info["recovered"] if r.get("torn_tail")
            )
            assert report["torn_bytes_dropped"] > 0
            assert report["torn_last_good_seq"] == 0
        finally:
            revived.close()


class TestPromptClose:
    def test_a_primary_and_its_parked_replica_each_close_at_once(
        self, tmp_path
    ):
        primary = start_server(
            ReproService(data_dir=str(tmp_path / "pri"), fsync="never")
        )
        replica = start_server(replica_service(tmp_path / "rep", primary))
        # the applier's next long-poll parks this long on the primary
        replica.service.applier.poll_wait = 5.0
        with ServiceClient("127.0.0.1", primary.port) as writer:
            writer.create_session("s", "running-example")
        assert wait_until(lambda: "s" in replica.service.manager)
        time.sleep(0.3)  # applied, acked and parked in the next poll
        took = []
        for server in (replica, primary):
            started = time.monotonic()
            stop_server(server)
            took.append(time.monotonic() - started)
        assert max(took) < 0.3, took
