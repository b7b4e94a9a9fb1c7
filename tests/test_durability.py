"""Crash-consistency and durability tests (repro.service.wal + fixes).

Covers the durability layer end to end -- WAL append/replay/torn-tail
handling, the per-record label fingerprint, boot-time recovery by WAL
replay and its crash windows, the sync/recover_info protocol ops --
plus checkpoint export/import, a WAL file: fsynced staging,
restore-validates-before-replay, and the round trip through
non-durable and durable servers for every dynamic scheme.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import re
import tracemalloc

import pytest

from repro.errors import ReproError, ServiceError
from repro.graphs.reachability import reaches
from repro.obs.trace import Tracer
from repro.service import (
    DurableStore,
    SessionManager,
    checkpoint_session,
    replay_wal,
    restore_session,
)
from repro.io.jsonio import insertion_to_json
from repro.service.protocol import Request, insertions_to_wire
from repro.service.server import ReproService
from repro.service.sessions import (
    Session,
    insertion_from_row,
    insertion_to_row,
    record_text,
    resolve_spec,
)
from repro.service import wal as wal_module
from repro.service.wal import WriteAheadLog, label_crc
from repro.workflow.derivation import sample_run
from repro.workflow.execution import Insertion, execution_from_derivation


def make_execution(spec, size=120, seed=0):
    run = sample_run(spec, size, random.Random(seed))
    return run, execution_from_derivation(run)


@pytest.fixture(scope="module")
def run_and_execution(running_spec):
    return make_execution(running_spec)


def make_session(spec, events=()):
    manager = SessionManager()
    session = manager.create("live", spec)
    if events:
        session.ingest_many(events)
    return manager, session


@contextlib.contextmanager
def collector(enabled):
    """Run the body with the cyclic collector on or off, then put it
    back as it was."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


# ---------------------------------------------------------------------------
# checkpoint export: a WAL file, staged and fsynced
# ---------------------------------------------------------------------------


class TestCheckpointDurability:
    def test_durable_checkpoint_fsyncs_files_and_directory(
        self, running_spec, run_and_execution, tmp_path, monkeypatch
    ):
        _, execution = run_and_execution
        _, session = make_session(running_spec, execution.insertions[:30])
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        path = checkpoint_session(session, tmp_path / "ckpt")
        monkeypatch.setattr(os, "fsync", real_fsync)
        # the staged file, then the directory after the rename
        assert len(synced) >= 2
        assert sorted(p.name for p in path.iterdir()) == ["wal.jsonl"]

    def test_leftover_tmp_files_are_ignored_by_restore(
        self, running_spec, run_and_execution, tmp_path
    ):
        _, execution = run_and_execution
        _, session = make_session(running_spec, execution.insertions[:40])
        path = checkpoint_session(session, tmp_path / "ckpt")
        (path / "wal.jsonl.tmp").write_text("{ torn garbage")
        restored = restore_session(SessionManager(), path)
        assert len(restored) == 40

    def test_crash_mid_stage_keeps_prior_checkpoint(
        self, running_spec, run_and_execution, tmp_path, monkeypatch
    ):
        """A re-export that dies while staging leaves the previous
        export fully restorable (the staged .tmp file is inert)."""
        _, execution = run_and_execution
        events = execution.insertions
        _, session = make_session(running_spec, events[:40])
        path = checkpoint_session(session, tmp_path / "ckpt")
        session.ingest_many(events[40:80])

        def dying_fsync(fd):
            raise OSError("simulated crash while staging")

        monkeypatch.setattr(os, "fsync", dying_fsync)
        with pytest.raises(OSError):
            checkpoint_session(session, path)
        monkeypatch.undo()

        assert list(path.glob("*.tmp"))  # the crash left staging litter
        restored = restore_session(SessionManager(), path)
        assert len(restored) == 40  # the prior export, intact


# ---------------------------------------------------------------------------
# restore validates before replaying
# ---------------------------------------------------------------------------


class TestRestoreValidatesFirst:
    @pytest.fixture()
    def checkpoint_dir(self, running_spec, run_and_execution, tmp_path):
        _, execution = run_and_execution
        _, session = make_session(running_spec, execution.insertions[:50])
        return checkpoint_session(session, tmp_path / "ckpt")

    @pytest.fixture()
    def replay_spy(self, monkeypatch):
        calls = []
        real = Session.ingest_many

        def spying(self, insertions, *rest):
            calls.append(self.name)
            return real(self, insertions, *rest)

        monkeypatch.setattr(Session, "ingest_many", spying)
        return calls

    def test_occupied_name_raises_before_replay(
        self, running_spec, checkpoint_dir, replay_spy
    ):
        manager = SessionManager()
        manager.create("live", running_spec)
        with pytest.raises(ServiceError, match="already exists"):
            restore_session(manager, checkpoint_dir)
        assert replay_spy == []  # no relabeling work was paid

    def test_occupied_override_name_raises_before_replay(
        self, running_spec, checkpoint_dir, replay_spy
    ):
        manager = SessionManager()
        manager.create("copy", running_spec)
        with pytest.raises(ServiceError, match="already exists"):
            restore_session(manager, checkpoint_dir, name="copy")
        assert replay_spy == []

    def test_missing_wal_fails_before_replay(
        self, checkpoint_dir, replay_spy
    ):
        (checkpoint_dir / "wal.jsonl").unlink()
        with pytest.raises(ServiceError, match="does not exist"):
            restore_session(SessionManager(), checkpoint_dir)
        assert replay_spy == []

    def test_corrupt_header_fails_before_replay(
        self, checkpoint_dir, replay_spy
    ):
        wal_path = checkpoint_dir / "wal.jsonl"
        lines = wal_path.read_text().splitlines(keepends=True)
        wal_path.write_text("".join(["{ not json\n"] + lines[1:]))
        with pytest.raises(ServiceError, match="unreadable header"):
            restore_session(SessionManager(), checkpoint_dir)
        assert replay_spy == []

    def test_torn_line_fails_before_replay(
        self, checkpoint_dir, replay_spy
    ):
        """An export is written whole: a torn line is corruption, not
        a crash to recover from, so nothing of it is imported."""
        wal_path = checkpoint_dir / "wal.jsonl"
        wal_path.write_bytes(wal_path.read_bytes()[:-9])
        with pytest.raises(ServiceError, match="corrupt.*line 1 is torn"):
            restore_session(SessionManager(), checkpoint_dir)
        assert replay_spy == []

    def test_scheme_mismatch_fails_before_replay(
        self, checkpoint_dir, replay_spy
    ):
        with pytest.raises(ServiceError, match="scheme 'drl', not 'naive'"):
            restore_session(SessionManager(), checkpoint_dir, scheme="naive")
        assert replay_spy == []


# ---------------------------------------------------------------------------
# the write-ahead log file
# ---------------------------------------------------------------------------


def row(vid):
    """A minimal event row: what a WAL test needs is only its shape."""
    return [vid, "s0", [], None, None]


def logged(start, version, events, crc=0, trace_id=None):
    """``WriteAheadLog.append``'s arguments for a batch of event rows:
    its start, version, events and the record text a session spells."""
    text = record_text(start, version, json.dumps(events), crc, trace_id)
    return start, version, events, text


class TestWriteAheadLog:
    @pytest.fixture()
    def session(self, running_spec):
        return make_session(running_spec)[1]

    def test_append_replay_round_trip(self, session, tmp_path):
        wal = WriteAheadLog.create(
            tmp_path / "wal.jsonl", session, policy="always"
        )
        wal.append(*logged(0, 1, [row(0)]))
        wal.append(*logged(1, 2, [row(1), row(2)]))
        wal.close()
        replay = replay_wal(tmp_path / "wal.jsonl")
        assert replay.dropped is None
        assert [r.seq for r in replay.records] == [0, 1]
        assert replay.records[1].start == 1
        assert replay.events == 3
        assert replay.header["session"] == "live"

    def test_torn_tail_is_dropped_and_reported(self, session, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog.create(path, session)
        wal.append(*logged(0, 1, [row(0)]))
        wal.append(*logged(1, 2, [row(1)]))
        wal.close()
        whole = path.read_bytes()
        path.write_bytes(whole[:-7])  # tear the final append
        replay = replay_wal(path)
        assert replay.dropped is not None
        assert [r.seq for r in replay.records] == [0]
        assert replay.next_seq == 1  # the reported resume point

    def test_resume_truncates_the_torn_tail(self, session, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog.create(path, session)
        wal.append(*logged(0, 1, [row(0)]))
        wal.append(*logged(1, 2, [row(1)]))
        wal.close()
        path.write_bytes(path.read_bytes()[:-7])
        replay = replay_wal(path)
        resumed = WriteAheadLog.resume(path, replay)
        resumed.append(*logged(1, 2, [row(1)]))  # re-acknowledged after loss
        resumed.close()
        healed = replay_wal(path)
        assert healed.dropped is None
        assert [r.seq for r in healed.records] == [0, 1]

    def test_seq_gap_drops_the_rest(self, session, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog.create(path, session)
        wal.append(*logged(0, 1, [row(0)]))
        wal.close()
        with open(path, "a") as handle:
            handle.write(
                json.dumps(
                    {"seq": 5, "start": 9, "version": 9, "events": [],
                     "crc": 0}
                )
                + "\n"
            )
        replay = replay_wal(path)
        assert "seq" in replay.dropped
        assert [r.seq for r in replay.records] == [0]

    def test_lines_are_json_dumps_of_the_record(self, session, tmp_path):
        """Each line is byte for byte ``json.dumps`` of its record: the
        session's record text behind its seq, with or without a trace
        id, events spelled as rows."""
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog.create(path, session)
        events = [
            [0, "s\u00e9", [], None, None],
            [4, "t", [0, 2], ["g0", 0, 1], [0, 1]],
        ]
        trace = Tracer().start("ingest")
        wal.append(*logged(0, 1, events, 7))
        wal.append(*logged(2, 2, events, 2**32 - 1))
        wal.append(*logged(4, 3, events, 0, trace.trace_id))
        wal.close()
        records = [
            {"seq": 0, "start": 0, "version": 1, "events": events,
             "crc": 7},
            {"seq": 1, "start": 2, "version": 2, "events": events,
             "crc": 2**32 - 1},
            {"seq": 2, "start": 4, "version": 3, "events": events,
             "crc": 0, "trace_id": trace.trace_id},
        ]
        assert path.read_text().splitlines(keepends=True)[1:] == [
            json.dumps(record) + "\n" for record in records
        ]

    def test_unreadable_header_is_fatal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ServiceError, match="not a write-ahead log"):
            replay_wal(path)

    def test_fsync_policies_count_unsynced(self, session, tmp_path):
        never = WriteAheadLog.create(
            tmp_path / "never.jsonl", session, policy="never"
        )
        never.append(*logged(0, 1, [row(0)]))
        assert never.unsynced == 1
        never.sync()
        assert never.unsynced == 0
        never.close()
        always = WriteAheadLog.create(
            tmp_path / "always.jsonl", session, policy="always"
        )
        always.append(*logged(0, 1, [row(0)]))
        assert always.unsynced == 0
        always.close()
        batch = WriteAheadLog.create(
            tmp_path / "batch.jsonl", session,
            policy="batch", batch_records=2,
        )
        batch.append(*logged(0, 1, [row(0)]))
        assert batch.unsynced == 1
        batch.append(*logged(1, 2, [row(1)]))
        assert batch.unsynced == 0  # the batch threshold fsynced
        batch.close()

    def test_unknown_policy_rejected(self, session, tmp_path):
        with pytest.raises(ServiceError, match="fsync"):
            WriteAheadLog.create(
                tmp_path / "wal.jsonl", session, policy="sometimes"
            )

    def test_failed_append_poisons_the_log(self, session, tmp_path):
        """After one failed append the log must refuse every later one:
        writing past a possibly-torn line would let recovery silently
        drop acknowledged records behind the tear."""
        wal = WriteAheadLog.create(tmp_path / "wal.jsonl", session)
        wal.append(*logged(0, 1, [row(0)]))
        wal._handle.close()  # force the next write to fail
        with pytest.raises(ServiceError, match="append failed"):
            wal.append(*logged(1, 2, [row(1)]))
        assert wal.failed
        with pytest.raises(ServiceError, match="poisoned"):
            wal.append(*logged(2, 3, [row(2)]))
        with pytest.raises(ServiceError, match="poisoned"):
            wal.sync()
        wal.close()  # teardown of a poisoned log must not raise


# ---------------------------------------------------------------------------
# the per-record label fingerprint
# ---------------------------------------------------------------------------


#: label_crc of every label of a fixed 60-vertex sampled run (seed 5),
#: in insertion order.  The WAL checks these bytes at every recovery,
#: so they must not drift across Python versions or processes.
GOLDEN_FINGERPRINTS = {
    ("drl", "running-example"): 1333719537,
    ("naive", "running-example"): 2087774103,
    ("path-position", "fig12-path"): 2232597682,
}


class TestLabelFingerprint:
    @pytest.mark.parametrize(
        "scheme,spec_name", sorted(GOLDEN_FINGERPRINTS),
        ids=[scheme for scheme, _ in sorted(GOLDEN_FINGERPRINTS)],
    )
    def test_golden_fingerprint(self, scheme, spec_name):
        from repro.datasets import spec_by_name

        spec = spec_by_name(spec_name)
        events = execution_from_derivation(
            sample_run(spec, 60, random.Random(5))
        ).insertions
        session = Session("golden", spec, scheme=scheme)
        session.ingest_many(events)
        labels = session.scheme.labels
        assert label_crc([labels[event.vid] for event in events]) == (
            GOLDEN_FINGERPRINTS[scheme, spec_name]
        )

    def test_depends_on_values_not_sharing(self):
        shared = (1, 2, 3)
        assert label_crc([(shared, shared)]) == label_crc(
            [((1, 2, 3), tuple([1, 2, 3]))]
        )
        assert label_crc([(1, 2, 3)]) != label_crc([(1, 2, 4)])

    def test_naive_labels_past_the_int_to_str_digit_limit(self):
        from repro.labeling.naive_dynamic import NaiveLabel

        huge = NaiveLabel(index=20001, ancestors=(1 << 20000) - 1)
        assert label_crc([huge]) == label_crc([(20001, (1 << 20000) - 1)])


# ---------------------------------------------------------------------------
# the durable store + recovery
# ---------------------------------------------------------------------------


class TestDurableStoreRecovery:
    def ingest(self, service, name, events):
        response = service.handle(
            Request(
                "ingest",
                {"session": name, "insertions": insertions_to_wire(events)},
            )
        )
        assert response.ok, response.error
        return response.result

    def create(self, service, name, spec="running-example"):
        response = service.handle(
            Request("create_session", {"name": name, "spec": spec})
        )
        assert response.ok, response.error
        return response.result

    def test_recovery_replays_the_wal_tail(
        self, run_and_execution, tmp_path
    ):
        run, execution = run_and_execution
        events = execution.insertions
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        self.ingest(service, "s1", events[:40])
        # a pathless snapshot fsyncs the WAL; ingest goes on after it
        assert service.handle(Request("snapshot", {"session": "s1"})).ok
        self.ingest(service, "s1", events[40:70])
        service.close()

        revived = ReproService(data_dir=tmp_path / "data")
        report = revived.store.recovery[0]
        assert report["status"] == "recovered"
        assert report["wal_records_replayed"] == 2
        assert report["wal_events_replayed"] == 70
        assert report["vertices"] == 70
        vids = [event.vid for event in events[:70]]
        rng = random.Random(3)
        pairs = [[rng.choice(vids), rng.choice(vids)] for _ in range(150)]
        response = revived.handle(
            Request("query_batch", {"session": "s1", "pairs": pairs})
        )
        assert response.ok
        for (a, b), answer in zip(pairs, response.result["answers"]):
            assert answer == reaches(run.graph, a, b)
        # the revived session keeps ingesting where it left off
        self.ingest(revived, "s1", events[70:])
        revived.close()

    def test_torn_wal_tail_recovers_prefix_and_reports(
        self, run_and_execution, tmp_path
    ):
        _, execution = run_and_execution
        events = execution.insertions
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        self.ingest(service, "s1", events[:20])
        self.ingest(service, "s1", events[20:40])
        service.close()
        wal_path = next((tmp_path / "data").glob("s-*/wal.jsonl"))
        wal_path.write_bytes(wal_path.read_bytes()[:-9])

        revived = ReproService(data_dir=tmp_path / "data")
        report = revived.store.recovery[0]
        assert report["torn_tail"]
        assert report["resume_seq"] == 1
        assert report["vertices"] == 20  # the second batch was torn off
        revived.close()

    def test_closed_sessions_stay_closed(
        self, run_and_execution, tmp_path
    ):
        _, execution = run_and_execution
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        self.ingest(service, "s1", execution.insertions[:10])
        assert service.handle(Request("close", {"session": "s1"})).ok
        service.close()
        revived = ReproService(data_dir=tmp_path / "data")
        assert revived.manager.names() == []
        assert revived.store.recovery[0]["status"] == "closed"
        # the name is reusable; the closed directory is archived
        self.create(revived, "s1")
        revived.close()
        archived = [
            d.name
            for d in (tmp_path / "data").iterdir()
            if ".closed." in d.name
        ]
        assert archived

    def test_sync_and_recover_info_ops(self, run_and_execution, tmp_path):
        _, execution = run_and_execution
        service = ReproService(
            data_dir=tmp_path / "data", fsync="never"
        )
        self.create(service, "s1")
        self.ingest(service, "s1", execution.insertions[:10])
        info = service.handle(Request("recover_info", {})).result
        assert info["durable"] and info["fsync"] == "never"
        assert info["sessions"]["s1"]["wal_records"] == 1
        assert info["sessions"]["s1"]["wal_unsynced"] == 1
        synced = service.handle(
            Request("sync", {"session": "s1"})
        ).result
        assert synced == {"synced": ["s1"], "fsync": "never"}
        info = service.handle(Request("recover_info", {})).result
        assert info["sessions"]["s1"]["wal_unsynced"] == 0
        response = service.handle(
            Request("sync", {"session": "nope"})
        )
        assert not response.ok and response.code == "no-session"
        service.close()

    def test_ops_without_data_dir(self):
        service = ReproService()
        info = service.handle(Request("recover_info", {})).result
        assert info == {"durable": False}
        response = service.handle(Request("sync", {}))
        assert not response.ok and response.code == "service"
        response = service.handle(Request("snapshot", {"session": "x"}))
        assert not response.ok  # pathless snapshot needs a data dir

    def test_register_refuses_live_leftover_state(
        self, running_spec, tmp_path
    ):
        store = DurableStore(tmp_path / "data")
        _, session = make_session(running_spec)
        store.register(session)
        store.close()
        other = DurableStore(tmp_path / "data")
        fresh = Session("live", running_spec)
        with pytest.raises(ServiceError, match="already exists"):
            other.register(fresh)

    def test_data_dir_is_locked_against_second_process(
        self, running_spec, tmp_path
    ):
        store = DurableStore(tmp_path / "data")
        with pytest.raises(ServiceError, match="locked"):
            DurableStore(tmp_path / "data")
        store.close()
        DurableStore(tmp_path / "data").close()  # free after close

    @pytest.mark.parametrize("tear", ["missing", "empty", "torn"])
    def test_torn_header_is_an_incomplete_create(
        self, tear, run_and_execution, tmp_path
    ):
        """A crash inside an unacknowledged create leaves a missing,
        empty or torn WAL header: recovery skips the directory and the
        name can be created again."""
        _, execution = run_and_execution
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        service.close()
        wal_path = next((tmp_path / "data").glob("s-*/wal.jsonl"))
        header = wal_path.read_bytes()
        if tear == "missing":
            wal_path.unlink()
        elif tear == "empty":
            wal_path.write_bytes(b"")
        else:
            wal_path.write_bytes(header[: len(header) // 2])

        revived = ReproService(data_dir=tmp_path / "data")
        (report,) = revived.store.recovery
        assert report["status"] == "incomplete-create"
        assert report["skipped"]
        assert revived.manager.names() == []
        self.create(revived, "s1")
        self.ingest(revived, "s1", execution.insertions[:10])
        revived.close()
        third = ReproService(data_dir=tmp_path / "data")
        assert third.store.recovery[0]["vertices"] == 10
        third.close()

    def test_wal_without_closed_marker_recovers_open(self, tmp_path):
        """A complete header with no records and no ``CLOSED`` marker
        is an acknowledged, still-open session."""
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        service.close()
        revived = ReproService(data_dir=tmp_path / "data")
        (report,) = revived.store.recovery
        assert report["status"] == "recovered"
        assert report["vertices"] == 0
        assert revived.manager.names() == ["s1"]
        revived.close()

    def test_create_fsyncs_the_data_dir_root(self, tmp_path, monkeypatch):
        """The new session directory's entry lives in the root; without
        a root fsync a power loss can drop an acknowledged create."""
        synced = []
        real = wal_module.fsync_dir

        def spying(path):
            synced.append(os.path.realpath(path))
            real(path)

        monkeypatch.setattr(wal_module, "fsync_dir", spying)
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        service.close()
        assert os.path.realpath(tmp_path / "data") in synced

    def test_flipped_fingerprint_refuses_recovery(
        self, run_and_execution, tmp_path
    ):
        """Replay recomputes every record's label fingerprint; a record
        whose fingerprint does not match refuses the whole boot, naming
        the session and the record."""
        _, execution = run_and_execution
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        self.ingest(service, "s1", execution.insertions[:20])
        self.ingest(service, "s1", execution.insertions[20:40])
        service.close()
        wal_path = next((tmp_path / "data").glob("s-*/wal.jsonl"))
        lines = wal_path.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        record["crc"] ^= 1
        lines[2] = json.dumps(record) + "\n"
        wal_path.write_text("".join(lines))
        with pytest.raises(ServiceError, match="'s1'.*record 1"):
            ReproService(data_dir=tmp_path / "data")

    def test_record_gap_refuses_recovery(self, run_and_execution, tmp_path):
        _, execution = run_and_execution
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        self.ingest(service, "s1", execution.insertions[:20])
        service.close()
        wal_path = next((tmp_path / "data").glob("s-*/wal.jsonl"))
        lines = wal_path.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["start"] = 3
        lines[1] = json.dumps(record) + "\n"
        wal_path.write_text("".join(lines))
        with pytest.raises(ServiceError, match="gap or an overlap"):
            ReproService(data_dir=tmp_path / "data")

    @pytest.mark.parametrize("header", ["[1, 2]", '"x"', "3"])
    def test_header_that_is_not_an_object_is_refused(
        self, header, running_spec, tmp_path
    ):
        """A header that is valid JSON but no object is not a WAL: a
        ServiceError at replay, at recovery and at register alike."""
        wal_path = tmp_path / "data" / "s-odd" / "wal.jsonl"
        wal_path.parent.mkdir(parents=True)
        wal_path.write_text(header + "\n")
        with pytest.raises(ServiceError, match="not a write-ahead log"):
            replay_wal(wal_path)
        store = DurableStore(tmp_path / "data")
        with pytest.raises(ServiceError, match="'odd'.*not a write-ahead"):
            store.recover(SessionManager())
        with pytest.raises(ServiceError, match="not a write-ahead log"):
            store.register(Session("odd", running_spec))
        store.close()
        assert wal_path.read_text() == header + "\n"

    @pytest.mark.parametrize("collecting", [True, False])
    def test_recovery_pauses_the_collector_and_restores_it(
        self, collecting, run_and_execution, tmp_path, monkeypatch
    ):
        _, execution = run_and_execution
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        self.ingest(service, "s1", execution.insertions[:20])
        self.ingest(service, "s1", execution.insertions[20:40])
        service.close()
        during = []
        replay = Session.ingest_many

        def spying(session, events, *rest):
            during.append(gc.isenabled())
            return replay(session, events, *rest)

        monkeypatch.setattr(Session, "ingest_many", spying)
        with collector(collecting):
            revived = ReproService(data_dir=tmp_path / "data")
            assert gc.isenabled() is collecting
        revived.close()
        assert during == [False, False]
        assert revived.store.recovery[0]["vertices"] == 40

    @pytest.mark.parametrize("collecting", [True, False])
    def test_record_that_does_not_relabel_refuses_recovery(
        self, collecting, running_spec, run_and_execution, tmp_path
    ):
        """A record whose events the labeler rejects refuses the boot
        with a ServiceError naming the session and the record, and the
        collector is left as recovery found it."""
        _, execution = run_and_execution
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        self.ingest(service, "s1", execution.insertions[:20])
        self.ingest(service, "s1", execution.insertions[20:40])
        service.close()
        wal_path = next((tmp_path / "data").glob("s-*/wal.jsonl"))
        lines = wal_path.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        events = [insertion_from_row(event) for event in record["events"]]
        index, internal = next(
            (index, event) for index, event in enumerate(events)
            if event.origin[2] != running_spec.graph(event.origin[0]).source
        )
        key, token, tv = internal.origin
        events[index] = internal._replace(origin=(key, token + 1000, tv))
        record["events"] = [insertion_to_row(event) for event in events]
        lines[2] = json.dumps(record) + "\n"
        wal_path.write_text("".join(lines))
        with collector(collecting):
            with pytest.raises(
                ServiceError, match="'s1'.*record 1 does not relabel.*token"
            ):
                ReproService(data_dir=tmp_path / "data")
            assert gc.isenabled() is collecting

    def test_event_naming_a_closed_copy_is_refused(
        self, running_spec, run_and_execution, tmp_path
    ):
        """Once a copy's sink is labeled the labeler drops the copy, so
        an event naming it is malformed: ``ingest`` refuses it, and as a
        WAL record it refuses the boot with a ServiceError naming the
        session and the record."""
        _, execution = run_and_execution
        events = execution.insertions
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        self.ingest(service, "s1", events[:20])
        closed = next(
            token for key, token, tv in (event.origin for event in events[:20])
            if token != 0 and tv == running_spec.graph(key).sink
        )
        later = next(
            event for event in events[20:40]
            if event.origin[2] != running_spec.graph(event.origin[0]).source
        )
        key, _, tv = later.origin
        stale = Insertion(
            later.vid, later.name, later.preds, (key, closed, tv), later.slot
        )
        response = service.handle(
            Request(
                "ingest",
                {"session": "s1", "insertions": insertions_to_wire([stale])},
            )
        )
        assert not response.ok
        assert f"vertex {later.vid}: unknown, closed" in response.error
        assert len(service.manager.get("s1")) == 20
        self.ingest(service, "s1", events[20:40])
        service.close()
        wal_path = next((tmp_path / "data").glob("s-*/wal.jsonl"))
        lines = wal_path.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        record["events"] = [
            insertion_to_row(stale if event.vid == later.vid else event)
            for event in map(insertion_from_row, record["events"])
        ]
        lines[2] = json.dumps(record) + "\n"
        wal_path.write_text("".join(lines))
        with pytest.raises(
            ServiceError,
            match=f"'s1'.*record 1 does not relabel.*closed .*token {closed}",
        ):
            ReproService(data_dir=tmp_path / "data")

    @pytest.mark.parametrize("layout", ["generation", "wal-v1"])
    def test_old_format_directory_is_refused(
        self, layout, running_spec, tmp_path
    ):
        """Directories of the older checkpoint-generation layout are
        refused by name, never skipped or replaced silently."""
        directory = tmp_path / "data" / "s-old"
        directory.mkdir(parents=True)
        if layout == "generation":
            kept = directory / "ckpt-000000000003"
            kept.mkdir()
        else:
            kept = directory / "wal.jsonl"
            kept.write_text(json.dumps({
                "format": "repro-wal", "version": 1, "session": "old",
                "spec": "running-example", "scheme": "drl",
                "base_version": 0, "base_vertices": 0,
            }) + "\n")
        store = DurableStore(tmp_path / "data")
        with pytest.raises(ServiceError, match="s-old"):
            store.register(Session("old", running_spec))
        store.close()
        assert kept.exists()
        with pytest.raises(ServiceError, match="s-old"):
            ReproService(data_dir=tmp_path / "data")

    def test_imported_session_survives_a_restart(
        self, running_spec, run_and_execution, tmp_path
    ):
        """``create_session checkpoint=`` logs the imported insertions
        as one record, so they survive like any acknowledged ingest."""
        run, execution = run_and_execution
        _, source = make_session(running_spec, execution.insertions[:60])
        path = checkpoint_session(source, tmp_path / "export")
        service = ReproService(data_dir=tmp_path / "data")
        response = service.handle(
            Request(
                "create_session", {"name": "copy", "checkpoint": str(path)}
            )
        )
        assert response.ok, response.error
        self.ingest(service, "copy", execution.insertions[60:80])
        service.close()

        revived = ReproService(data_dir=tmp_path / "data")
        (report,) = revived.store.recovery
        assert report["wal_records_replayed"] == 2
        assert report["vertices"] == 80
        vids = [event.vid for event in execution.insertions[:80]]
        rng = random.Random(4)
        pairs = [[rng.choice(vids), rng.choice(vids)] for _ in range(100)]
        response = revived.handle(
            Request("query_batch", {"session": "copy", "pairs": pairs})
        )
        assert response.result["answers"] == [
            reaches(run.graph, a, b) for a, b in pairs
        ]
        revived.close()

    def test_failed_create_does_not_squat_the_name(
        self, running_spec, tmp_path, monkeypatch
    ):
        """If arming durability fails, the half-created directory is
        removed so a retry of the same name can succeed."""
        service = ReproService(data_dir=tmp_path / "data")

        def boom(*args, **kwargs):
            raise OSError("disk full while arming the WAL")

        monkeypatch.setattr(WriteAheadLog, "create", boom)
        response = service.handle(
            Request(
                "create_session",
                {"name": "s1", "spec": "running-example"},
            )
        )
        assert not response.ok
        monkeypatch.undo()
        self.create(service, "s1")  # the retry succeeds
        service.close()

    def test_stale_session_instance_cannot_checkpoint(
        self, running_spec, run_and_execution, tmp_path
    ):
        """A pathless snapshot holding a superseded Session (close +
        recreate raced it) must not act on the successor's WAL."""
        _, execution = run_and_execution
        store = DurableStore(tmp_path / "data")
        manager, old = make_session(running_spec)
        store.register(old)
        old.ingest_many(execution.insertions[:20])
        manager.close("live")
        store.finalize(old)
        fresh = manager.create("live", running_spec)
        store.register(fresh)
        fresh.ingest_many(execution.insertions[:5])
        with pytest.raises(ServiceError, match="superseded"):
            store.checkpoint(old)
        # the successor's WAL still holds its acknowledged batch
        assert store.info()["sessions"]["live"]["wal_events"] == 5
        store.close()

    def test_failed_batch_prefix_is_still_logged(
        self, running_spec, run_and_execution, tmp_path
    ):
        """The applied prefix of a mid-batch failure is durable: it is
        final in memory, so recovery must reproduce it."""
        from repro.errors import ExecutionError

        _, execution = run_and_execution
        events = execution.insertions
        store = DurableStore(tmp_path / "data")
        manager, session = make_session(running_spec)
        store.register(session)
        poisoned = events[:10] + [events[20]]  # preds not inserted yet
        with pytest.raises((ExecutionError, ServiceError, Exception)):
            session.ingest_many(poisoned)
        store.close()
        revived = SessionManager()
        reports = DurableStore(tmp_path / "data").recover(revived)
        assert reports[0]["vertices"] == 10


# ---------------------------------------------------------------------------
# what hosted state leaves for the cyclic collector
# ---------------------------------------------------------------------------


class TestCollectorFootprint:
    def handle(self, service, op, **params):
        response = service.handle(Request(op, params))
        assert response.ok, response.error
        return response.result

    def test_the_ring_and_the_wal_hold_the_log_entries(
        self, run_and_execution, tmp_path
    ):
        """One form per batch: each ringed record's text *is* the
        session's log entry, the WAL line is that text behind its seq,
        and ``repl_subscribe`` ships that text as it is."""
        _, execution = run_and_execution
        events = execution.insertions
        service = ReproService(data_dir=tmp_path / "data", fsync="never")
        self.handle(service, "create_session", name="s1",
                    spec="running-example")
        for start in range(0, len(events), 50):
            self.handle(service, "ingest", session="s1",
                        insertions=insertions_to_wire(events[start:start + 50]))
        log = service.manager.get("s1").log
        ringed = [r for r in service.hub._ring if r["kind"] == "ingest"]
        assert len(ringed) == len(log) == len(range(0, len(events), 50))
        assert all(r["text"] is text for r, text in zip(ringed, log))
        wal_path = next((tmp_path / "data").glob("s-*/wal.jsonl"))
        assert wal_path.read_text().splitlines(keepends=True)[1:] == [
            f'{{"seq": {seq}, {text}' for seq, text in enumerate(log)
        ]
        shipped = self.handle(service, "repl_subscribe", from_seq=0)
        assert [
            r["text"] for r in shipped["records"] if r["kind"] == "ingest"
        ] == log
        service.close()

    def test_a_hosted_event_keeps_few_traced_bytes(
        self, running_spec, tmp_path
    ):
        """Traced memory per hosted event stays at most 500 bytes for a
        few durable 2,000-event sessions fed as 64-event protocol
        lines: the labels, the labeler's open frontier and one record
        text per batch, shared by the log, the WAL and the ring.  (A
        log of per-event rows beside the ring's text kept about 840.)"""
        sessions = 3
        lines = []
        for index in range(sessions):
            run = sample_run(running_spec, 3000, random.Random(index))
            events = execution_from_derivation(run).insertions[:2000]
            assert len(events) == 2000
            lines.append([
                json.dumps({"op": "ingest", "session": f"s{index}",
                            "insertions": insertions_to_wire(
                                events[start:start + 64])})
                for start in range(0, len(events), 64)
            ])
        service = ReproService(data_dir=tmp_path / "data", fsync="never")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index, chunks in enumerate(lines):
                self.handle(service, "create_session", name=f"s{index}",
                            spec="running-example")
                for line in chunks:
                    assert '"ok": true' in service.handle_line(line)
            gc.collect()
            per_event = (
                tracemalloc.get_traced_memory()[0] - before
            ) / (2000 * sessions)
        finally:
            tracemalloc.stop()
            service.close()
        assert per_event <= 500, per_event

    def test_a_durable_session_leaves_few_tracked_objects_per_event(
        self, running_spec, tmp_path
    ):
        """An acknowledged event leaves the collector well under one
        container: the labeler keeps only its open copies' state (about
        0.3 per event here, where a 3,000-vertex run is cut at 2,000),
        and no copies of the event in the log, the replication ring or
        name-mode indexes."""
        run = sample_run(running_spec, 3000, random.Random(5))
        events = execution_from_derivation(run).insertions[:2000]
        assert len(events) == 2000
        chunks = [
            insertions_to_wire(events[start:start + 64])
            for start in range(0, len(events), 64)
        ]
        service = ReproService(data_dir=tmp_path / "data", fsync="never")
        gc.collect()
        before = len(gc.get_objects())
        self.handle(service, "create_session", name="s1",
                    spec="running-example")
        for chunk in chunks:
            self.handle(service, "ingest", session="s1", insertions=chunk)
        gc.collect()
        per_event = (len(gc.get_objects()) - before) / len(events)
        service.close()
        assert per_event <= 1, per_event


# ---------------------------------------------------------------------------
# the session log: one record text per batch
# ---------------------------------------------------------------------------


#: every dynamic scheme, on a spec it can label
DYNAMIC_SCHEMES = [
    ("drl", "running-example"),
    ("naive", "running-example"),
    ("path-position", "fig12-path"),
]
SCHEME_IDS = [scheme for scheme, _ in DYNAMIC_SCHEMES]


def scheme_run(spec_name, size, seed):
    from repro.datasets import spec_by_name

    run = sample_run(spec_by_name(spec_name), size, random.Random(seed))
    return run, execution_from_derivation(run).insertions


class TestSessionLog:
    @pytest.mark.parametrize(
        "scheme,spec_name", DYNAMIC_SCHEMES, ids=SCHEME_IDS
    )
    def test_label_order_is_log_order(self, scheme, spec_name):
        """``as_of`` reads a version's vertices off the label map's key
        order, so it must be log order -- across a batch refused
        mid-way too."""
        _, events = scheme_run(spec_name, 80, 5)
        session = Session("order", resolve_spec(spec_name), scheme=scheme)
        session.ingest_many(events[:20])
        with pytest.raises(Exception):
            # a repeated vertex is refused after ten events applied
            session.ingest_many(events[20:30] + [events[0]] + events[30:40])
        session.ingest_many(events[30:50])
        logged = [
            insertion_from_row(event).vid
            for text in session.log
            for event in json.loads("{" + text)["events"]
        ]
        assert logged == [event.vid for event in events[:50]]
        assert list(session.scheme.labels) == logged
        assert len(session.log) == 3 and session.version == 3

    @pytest.mark.parametrize(
        "scheme,spec_name", DYNAMIC_SCHEMES, ids=SCHEME_IDS
    )
    def test_refused_events_replay_to_the_same_labels(
        self, scheme, spec_name, tmp_path
    ):
        """A refused event leaves no trace in the labeler, so replaying
        the log -- here through an export and an import -- reassigns
        exactly the live labels and every fingerprint matches."""
        _, events = scheme_run(spec_name, 80, 5)
        session = Session("live", resolve_spec(spec_name), scheme=scheme)
        session.ingest_many(events[:10])
        for event in events[40:45]:  # its predecessors are not in yet
            with pytest.raises(ReproError):
                session.ingest_many([event])
        session.ingest_many(events[10:30])
        path = checkpoint_session(session, tmp_path / "export")
        restored = restore_session(SessionManager(), path)
        assert restored.scheme.labels == session.scheme.labels


# ---------------------------------------------------------------------------
# checkpoint export/import round trips, for every dynamic scheme
# ---------------------------------------------------------------------------


class TestCheckpointExportImport:
    def handle(self, service, op, **params):
        response = service.handle(Request(op, params))
        assert response.ok, response.error
        return response.result

    def export(self, tmp_path, scheme, spec_name, events):
        """Three batches into a non-durable server, exported; returns
        the directory and ``{version: prefix length}``."""
        source = ReproService()
        self.handle(source, "create_session", name="run", spec=spec_name,
                    scheme=scheme)
        covered = {}
        for end in (20, 40, 60):
            result = self.handle(
                source, "ingest", session="run",
                insertions=insertions_to_wire(events[end - 20:end]),
            )
            covered[result["version"]] = end
        exported = self.handle(source, "snapshot", session="run",
                               path=str(tmp_path / "export"))
        assert (exported["version"], exported["vertices"]) == (3, 60)
        return tmp_path / "export", covered

    @pytest.mark.parametrize(
        "scheme,spec_name", DYNAMIC_SCHEMES, ids=SCHEME_IDS
    )
    def test_non_durable_export_imports_durably_and_survives_restart(
        self, scheme, spec_name, tmp_path
    ):
        run, events = scheme_run(spec_name, 90, 7)
        path, covered = self.export(tmp_path, scheme, spec_name, events)
        target = ReproService(data_dir=tmp_path / "data")
        created = self.handle(target, "create_session", name="copy",
                              checkpoint=str(path), scheme=scheme)
        assert (created["scheme"], created["vertices"],
                created["version"]) == (scheme, 60, 3)
        self.handle(target, "ingest", session="copy",
                    insertions=insertions_to_wire(events[60:]))
        target.close()

        revived = ReproService(data_dir=tmp_path / "data")
        try:
            vids = [event.vid for event in events]
            rng = random.Random(8)
            pairs = [[rng.choice(vids), rng.choice(vids)]
                     for _ in range(200)]
            answers = self.handle(revived, "query_batch", session="copy",
                                  pairs=pairs)["answers"]
            assert answers == [reaches(run.graph, a, b) for a, b in pairs]
            # every version the exported session acknowledged
            for version, end in covered.items():
                prefix = vids[:end]
                pairs = [[a, b] for a in prefix[::4] for b in prefix[::3]]
                got = self.handle(revived, "query_batch", session="copy",
                                  pairs=pairs, as_of=version)["answers"]
                assert got == [reaches(run.graph, a, b) for a, b in pairs]
                response = revived.handle(Request("query", {
                    "session": "copy", "source": vids[end],
                    "target": vids[end], "as_of": version,
                }))
                assert response.code == "labeling", response.error
        finally:
            revived.close()

    @pytest.mark.parametrize(
        "scheme,spec_name", DYNAMIC_SCHEMES, ids=SCHEME_IDS
    )
    def test_flipped_crc_refuses_the_import_naming_the_record(
        self, scheme, spec_name, tmp_path
    ):
        _, events = scheme_run(spec_name, 90, 7)
        path, _ = self.export(tmp_path, scheme, spec_name, events)
        wal_path = path / "wal.jsonl"
        lines = wal_path.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        record["crc"] ^= 1
        lines[2] = json.dumps(record) + "\n"
        wal_path.write_text("".join(lines))
        for data_dir in (None, tmp_path / "data"):
            service = ReproService(data_dir=data_dir)
            response = service.handle(Request("create_session", {
                "name": "copy", "checkpoint": str(path),
            }))
            assert not response.ok
            assert re.search("'copy'.*record 1 is corrupt", response.error)
            assert service.manager.names() == []
            service.close()

    def test_four_document_checkpoint_is_refused_by_name(self, tmp_path):
        old = tmp_path / "old"
        old.mkdir()
        for name in ("manifest.json", "spec.json", "log.json",
                     "labels.json"):
            (old / name).write_text("{}")
        response = ReproService().handle(Request("create_session", {
            "name": "copy", "checkpoint": str(old),
        }))
        assert not response.ok and response.code == "service"
        assert "four-document" in response.error
        assert "manifest.json" in response.error


# ---------------------------------------------------------------------------
# events as rows (WAL version 3) and the version-2 spelling
# ---------------------------------------------------------------------------


def respell_as_version_2(path):
    """Rewrite a version-3 WAL file the way the release before rows
    wrote it: header ``version`` 2 and each event an execution-log
    object; every other field, ``crc`` included, as it was."""
    lines = path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    assert header["version"] == 3
    header["version"] = 2
    respelled = [json.dumps(header) + "\n"]
    for line in lines[1:]:
        record = json.loads(line)
        record["events"] = [
            insertion_to_json(insertion_from_row(event))
            for event in record["events"]
        ]
        respelled.append(json.dumps(record) + "\n")
    path.write_text("".join(respelled))


class TestEventRows:
    def handle(self, service, op, **params):
        response = service.handle(Request(op, params))
        assert response.ok, response.error
        return response.result

    def durable_run(self, data_dir, events, batch=20):
        """A durable server holding ``events`` as session ``s1``, one
        batch per ``batch`` events, closed; returns its WAL path."""
        service = ReproService(data_dir=data_dir)
        self.handle(service, "create_session", name="s1",
                    spec="running-example")
        for lo in range(0, len(events), batch):
            self.handle(service, "ingest", session="s1",
                        insertions=insertions_to_wire(events[lo:lo + batch]))
        service.close()
        return next(data_dir.glob("s-*/wal.jsonl"))

    def test_each_event_is_one_row(self, run_and_execution, tmp_path):
        _, execution = run_and_execution
        events = execution.insertions[:40]
        wal_path = self.durable_run(tmp_path / "data", events)
        lines = wal_path.read_text().splitlines()
        assert json.loads(lines[0])["version"] == 3
        rows = [
            row for line in lines[1:] for row in json.loads(line)["events"]
        ]
        assert rows == [
            [e.vid, e.name, sorted(e.preds), list(e.origin),
             None if e.slot is None else list(e.slot)]
            for e in events
        ]

    def test_version_2_wal_recovers_and_is_rewritten_as_version_3(
        self, run_and_execution, tmp_path
    ):
        """A data dir a release before rows wrote boots: BFS-equal
        answers and ``as_of`` at every version, then the WAL is the
        version-3 file the same ingests write, and it takes ingests and
        restarts."""
        run, execution = run_and_execution
        events = execution.insertions
        wal_path = self.durable_run(tmp_path / "data", events[:60])
        written = wal_path.read_text()
        respell_as_version_2(wal_path)
        assert '"version": 2' in wal_path.read_text().splitlines()[0]
        assert '"origin": {"key": ' in wal_path.read_text()

        revived = ReproService(data_dir=tmp_path / "data")
        (report,) = revived.store.recovery
        assert report["rewritten_from_version"] == 2
        assert (report["vertices"], report["version"]) == (60, 3)
        assert wal_path.read_text() == written
        vids = [event.vid for event in events]
        pairs = [[a, b] for a in vids[:60:3] for b in vids[:60:4]]
        got = self.handle(revived, "query_batch", session="s1",
                          pairs=pairs)["answers"]
        assert got == [reaches(run.graph, a, b) for a, b in pairs]
        for version, end in ((1, 20), (2, 40), (3, 60)):
            prefix = [[a, b] for a in vids[:end:3] for b in vids[:end:4]]
            got = self.handle(revived, "query_batch", session="s1",
                              pairs=prefix, as_of=version)["answers"]
            assert got == [reaches(run.graph, a, b) for a, b in prefix]
            if end < 60:
                response = revived.handle(Request("query", {
                    "session": "s1", "source": vids[end],
                    "target": vids[end], "as_of": version,
                }))
                assert response.code == "labeling", response.error
        self.handle(revived, "ingest", session="s1",
                    insertions=insertions_to_wire(events[60:80]))
        revived.close()

        again = ReproService(data_dir=tmp_path / "data")
        try:
            (report,) = again.store.recovery
            assert "rewritten_from_version" not in report
            assert (report["vertices"], report["version"]) == (80, 4)
            assert json.loads(wal_path.read_text().splitlines()[0])[
                "version"] == 3
            pairs = [[a, b] for a in vids[:80:3] for b in vids[:80:5]]
            got = self.handle(again, "query_batch", session="s1",
                              pairs=pairs)["answers"]
            assert got == [reaches(run.graph, a, b) for a, b in pairs]
        finally:
            again.close()

    def test_version_2_export_imports(self, running_spec, run_and_execution,
                                      tmp_path):
        """An export a release before rows wrote imports, in process and
        into a durable server, whose WAL then holds rows."""
        _, execution = run_and_execution
        _, source = make_session(running_spec, execution.insertions[:30])
        source.ingest_many(execution.insertions[30:60])
        path = checkpoint_session(source, tmp_path / "export")
        respell_as_version_2(path / "wal.jsonl")
        restored = restore_session(SessionManager(), path)
        assert restored.scheme.labels == source.scheme.labels
        assert restored.log == source.log
        assert restored.version == source.version == 2
        service = ReproService(data_dir=tmp_path / "data")
        try:
            created = self.handle(service, "create_session", name="copy",
                                  checkpoint=str(path))
            assert (created["vertices"], created["version"]) == (60, 2)
            wal_path = next((tmp_path / "data").glob("s-*/wal.jsonl"))
            lines = wal_path.read_text().splitlines(keepends=True)
            assert json.loads(lines[0])["version"] == 3
            assert lines[1:] == [
                f'{{"seq": {seq}, {text}' for seq, text in
                enumerate(source.log)
            ]
        finally:
            service.close()

    @pytest.mark.parametrize(
        "damage",
        ["short", "long", "preds-object", "preds-number"],
    )
    def test_malformed_row_refuses_the_boot(
        self, damage, run_and_execution, tmp_path
    ):
        """A row of the wrong arity, or whose preds are no array,
        refuses the boot with a ServiceError naming the session and the
        record."""
        _, execution = run_and_execution
        wal_path = self.durable_run(
            tmp_path / "data", execution.insertions[:40]
        )
        lines = wal_path.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        event = record["events"][3]
        if damage == "short":
            record["events"][3] = event[:4]
        elif damage == "long":
            record["events"][3] = event + [None]
        elif damage == "preds-object":
            event[2] = {str(pred): pred for pred in event[2]}
        else:
            event[2] = 7
        lines[2] = json.dumps(record) + "\n"
        wal_path.write_text("".join(lines))
        with pytest.raises(
            ServiceError, match="'s1'.*record 1 holds a malformed event"
        ):
            ReproService(data_dir=tmp_path / "data")

    def test_a_logged_event_takes_few_wal_bytes(self, running_spec, tmp_path):
        """A durable 2,000-event ``running-example`` session, ingested
        in 64-event batches, writes at most 64 WAL bytes per event,
        header included.  (Rows take about 50; execution-log objects
        took about 128.)"""
        run = sample_run(running_spec, 3000, random.Random(0))
        events = execution_from_derivation(run).insertions[:2000]
        assert len(events) == 2000
        wal_path = self.durable_run(tmp_path / "data", events, batch=64)
        assert wal_path.stat().st_size / len(events) <= 64


# ---------------------------------------------------------------------------
# the crash-recovery loadgen scenario (subprocess SIGKILL)
# ---------------------------------------------------------------------------


class TestCrashRecoveryScenario:
    def test_sigkill_mid_ingest_loses_nothing_acknowledged(self, tmp_path):
        from repro.loadgen import run_crash_recovery

        report = run_crash_recovery(
            data_dir=str(tmp_path / "data"),
            run_size=250,
            chunk=4,
            kill_after=20.0,  # progress-triggered long before this
            queries=150,
            verbose=False,
        )
        assert report.errors == []
        assert report.lost == []
        assert report.wrong_answers == 0
        assert 0 < report.acknowledged
        assert report.recovered_vertices >= report.acknowledged

    def test_cli_lists_the_scenario(self, capsys):
        from repro.cli import main

        assert main(["loadgen", "--list"]) == 0
        out = capsys.readouterr().out
        assert "crash-recovery" in out
