"""Crash-consistency and durability tests (repro.service.wal + fixes).

Covers the durability layer end to end -- WAL append/replay/torn-tail
handling, checkpoint generations with the CURRENT pointer, boot-time
recovery, the background checkpointer, the sync/recover_info protocol
ops -- plus the hardening fixes that rode along: fsynced checkpoint
staging and restore-validates-before-replay.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.errors import ServiceError
from repro.graphs.reachability import reaches
from repro.service import (
    Checkpointer,
    DurableStore,
    SessionManager,
    checkpoint_session,
    replay_wal,
    restore_session,
)
from repro.service.protocol import Request, insertions_to_wire
from repro.service.server import ReproService
from repro.service.sessions import Session
from repro.service.wal import WriteAheadLog
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation


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


# ---------------------------------------------------------------------------
# checkpoint staging durability (satellite 1)
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
        checkpoint_session(session, tmp_path / "ckpt", durable=True)
        monkeypatch.setattr(os, "fsync", real_fsync)
        # four staged files plus at least the directory itself
        assert len(synced) >= 5

    def test_durable_false_skips_fsync(
        self, running_spec, run_and_execution, tmp_path, monkeypatch
    ):
        _, execution = run_and_execution
        _, session = make_session(running_spec, execution.insertions[:30])
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        checkpoint_session(session, tmp_path / "ckpt", durable=False)
        assert synced == []

    def test_leftover_tmp_files_are_ignored_by_restore(
        self, running_spec, run_and_execution, tmp_path
    ):
        _, execution = run_and_execution
        _, session = make_session(running_spec, execution.insertions[:40])
        path = checkpoint_session(session, tmp_path / "ckpt")
        (path / "manifest.json.tmp").write_text("{ torn garbage")
        (path / "labels.json.tmp").write_text("")
        restored = restore_session(SessionManager(), path)
        assert len(restored) == 40

    def test_crash_mid_stage_keeps_prior_checkpoint(
        self, running_spec, run_and_execution, tmp_path, monkeypatch
    ):
        """A re-checkpoint that dies while staging leaves the previous
        checkpoint fully restorable (staged .tmp files are inert)."""
        import repro.service.checkpoint as checkpoint_module

        _, execution = run_and_execution
        events = execution.insertions
        _, session = make_session(running_spec, events[:40])
        path = checkpoint_session(session, tmp_path / "ckpt")
        session.ingest_many(events[40:80])

        real_dump = checkpoint_module._dump

        def dying_dump(document, target, indent=None):
            if str(target).endswith("manifest.json.tmp"):
                raise OSError("simulated crash while staging")
            return real_dump(document, target, indent=indent)

        monkeypatch.setattr(checkpoint_module, "_dump", dying_dump)
        with pytest.raises(OSError):
            checkpoint_session(session, path)
        monkeypatch.setattr(checkpoint_module, "_dump", real_dump)

        assert list(path.glob("*.tmp"))  # the crash left staging litter
        restored = restore_session(SessionManager(), path)
        assert len(restored) == 40  # the prior generation, intact


# ---------------------------------------------------------------------------
# restore validates before replaying (satellite 2)
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

        def spying(self, insertions):
            calls.append(self.name)
            return real(self, insertions)

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

    def test_missing_label_store_fails_before_replay(
        self, checkpoint_dir, replay_spy
    ):
        (checkpoint_dir / "labels.json").unlink()
        with pytest.raises(ServiceError, match="does not exist"):
            restore_session(SessionManager(), checkpoint_dir)
        assert replay_spy == []

    def test_corrupt_label_store_fails_before_replay(
        self, checkpoint_dir, replay_spy
    ):
        (checkpoint_dir / "labels.json").write_text("{ not json")
        with pytest.raises(ServiceError, match="unusable"):
            restore_session(SessionManager(), checkpoint_dir)
        assert replay_spy == []

    def test_scheme_mismatch_fails_before_replay(
        self, checkpoint_dir, replay_spy
    ):
        store = json.loads((checkpoint_dir / "labels.json").read_text())
        store["scheme"] = "naive"
        (checkpoint_dir / "labels.json").write_text(json.dumps(store))
        with pytest.raises(ServiceError, match="scheme"):
            restore_session(SessionManager(), checkpoint_dir)
        assert replay_spy == []


# ---------------------------------------------------------------------------
# the write-ahead log file
# ---------------------------------------------------------------------------


class TestWriteAheadLog:
    @pytest.fixture()
    def session(self, running_spec):
        return make_session(running_spec)[1]

    def test_append_replay_round_trip(self, session, tmp_path):
        wal = WriteAheadLog.create(
            tmp_path / "wal.jsonl", session, 0, 0, policy="always"
        )
        wal.append(0, 1, [{"vid": 0}])
        wal.append(1, 2, [{"vid": 1}, {"vid": 2}])
        wal.close()
        replay = replay_wal(tmp_path / "wal.jsonl")
        assert replay.dropped is None
        assert [r.seq for r in replay.records] == [0, 1]
        assert replay.records[1].start == 1
        assert replay.events == 3
        assert replay.header["session"] == "live"

    def test_torn_tail_is_dropped_and_reported(self, session, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog.create(path, session, 0, 0)
        wal.append(0, 1, [{"vid": 0}])
        wal.append(1, 2, [{"vid": 1}])
        wal.close()
        whole = path.read_bytes()
        path.write_bytes(whole[:-7])  # tear the final append
        replay = replay_wal(path)
        assert replay.dropped is not None
        assert [r.seq for r in replay.records] == [0]
        assert replay.next_seq == 1  # the reported resume point

    def test_resume_truncates_the_torn_tail(self, session, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog.create(path, session, 0, 0)
        wal.append(0, 1, [{"vid": 0}])
        wal.append(1, 2, [{"vid": 1}])
        wal.close()
        path.write_bytes(path.read_bytes()[:-7])
        replay = replay_wal(path)
        resumed = WriteAheadLog.resume(path, replay)
        resumed.append(1, 2, [{"vid": 1}])  # re-acknowledged after loss
        resumed.close()
        healed = replay_wal(path)
        assert healed.dropped is None
        assert [r.seq for r in healed.records] == [0, 1]

    def test_seq_gap_drops_the_rest(self, session, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog.create(path, session, 0, 0)
        wal.append(0, 1, [{"vid": 0}])
        wal.close()
        with open(path, "a") as handle:
            handle.write(
                json.dumps(
                    {"seq": 5, "start": 9, "version": 9, "events": []}
                )
                + "\n"
            )
        replay = replay_wal(path)
        assert "seq" in replay.dropped
        assert [r.seq for r in replay.records] == [0]

    def test_unreadable_header_is_fatal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ServiceError, match="not a write-ahead log"):
            replay_wal(path)

    def test_truncate_to_base_keeps_uncovered_records(
        self, session, tmp_path
    ):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog.create(path, session, 0, 0)
        wal.append(0, 1, [{"vid": 0}, {"vid": 1}])
        wal.append(2, 2, [{"vid": 2}])
        wal.append(3, 3, [{"vid": 3}])
        assert wal.truncate_to_base(2, 3) == 1  # first two covered
        wal.append(4, 4, [{"vid": 4}])
        wal.close()
        replay = replay_wal(path)
        assert replay.header["base_vertices"] == 3
        assert [r.start for r in replay.records] == [3, 4]
        assert [r.seq for r in replay.records] == [0, 1]

    def test_fsync_policies_count_unsynced(self, session, tmp_path):
        never = WriteAheadLog.create(
            tmp_path / "never.jsonl", session, 0, 0, policy="never"
        )
        never.append(0, 1, [{"vid": 0}])
        assert never.unsynced == 1
        never.sync()
        assert never.unsynced == 0
        never.close()
        always = WriteAheadLog.create(
            tmp_path / "always.jsonl", session, 0, 0, policy="always"
        )
        always.append(0, 1, [{"vid": 0}])
        assert always.unsynced == 0
        always.close()
        batch = WriteAheadLog.create(
            tmp_path / "batch.jsonl", session, 0, 0,
            policy="batch", batch_records=2,
        )
        batch.append(0, 1, [{"vid": 0}])
        assert batch.unsynced == 1
        batch.append(1, 2, [{"vid": 1}])
        assert batch.unsynced == 0  # the batch threshold fsynced
        batch.close()

    def test_unknown_policy_rejected(self, session, tmp_path):
        with pytest.raises(ServiceError, match="fsync"):
            WriteAheadLog.create(
                tmp_path / "wal.jsonl", session, 0, 0, policy="sometimes"
            )

    def test_failed_append_poisons_the_log(self, session, tmp_path):
        """After one failed append the log must refuse every later one:
        writing past a possibly-torn line would let recovery silently
        drop acknowledged records behind the tear."""
        wal = WriteAheadLog.create(tmp_path / "wal.jsonl", session, 0, 0)
        wal.append(0, 1, [{"vid": 0}])
        wal._handle.close()  # force the next write to fail
        with pytest.raises(ServiceError, match="append failed"):
            wal.append(1, 2, [{"vid": 1}])
        assert wal.failed
        with pytest.raises(ServiceError, match="poisoned"):
            wal.append(2, 3, [{"vid": 2}])
        with pytest.raises(ServiceError, match="poisoned"):
            wal.sync()
        wal.close()  # teardown of a poisoned log must not raise


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
        # roll a checkpoint, then keep ingesting into the WAL
        assert service.handle(Request("snapshot", {"session": "s1"})).ok
        self.ingest(service, "s1", events[40:70])
        service.close()

        revived = ReproService(data_dir=tmp_path / "data")
        report = revived.store.recovery[0]
        assert report["status"] == "recovered"
        assert report["checkpoint_vertices"] == 40
        assert report["wal_events_replayed"] == 30
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

    def test_missing_wal_next_to_complete_checkpoint_rearms(
        self, run_and_execution, tmp_path
    ):
        """A crash between the first checkpoint and the WAL creation
        (inside an unacknowledged create) must not brick the boot: the
        checkpoint is the whole acknowledged state."""
        _, execution = run_and_execution
        service = ReproService(data_dir=tmp_path / "data")
        self.create(service, "s1")
        self.ingest(service, "s1", execution.insertions[:15])
        assert service.handle(Request("snapshot", {"session": "s1"})).ok
        service.close()
        next((tmp_path / "data").glob("s-*/wal.jsonl")).unlink()

        revived = ReproService(data_dir=tmp_path / "data")
        report = revived.store.recovery[0]
        assert report["status"] == "recovered"
        assert report["wal_rearmed"]
        assert report["vertices"] == 15
        # the re-armed WAL accepts new acknowledged ingests
        self.ingest(revived, "s1", execution.insertions[15:25])
        revived.close()
        third = ReproService(data_dir=tmp_path / "data")
        assert third.store.recovery[0]["vertices"] == 25
        third.close()

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
        """A roll holding a superseded Session (close + recreate raced
        it) must not write the old state over the successor's."""
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

    def test_checkpoint_pending_surfaces_poisoned_wal(
        self, running_spec, run_and_execution, tmp_path
    ):
        _, execution = run_and_execution
        store = DurableStore(tmp_path / "data")
        _, session = make_session(running_spec)
        store.register(session)
        session.ingest_many(execution.insertions[:10])
        store._entries["live"].wal.failed = True  # as a failed append would
        assert store.checkpoint_pending() == []
        assert store.errors and "poisoned" in store.errors[0]
        assert len(store.errors) == 1
        store.checkpoint_pending()  # repeated ticks do not spam
        assert len(store.errors) == 1
        store.close()

    def test_checkpointer_rolls_outstanding_wals(
        self, run_and_execution, running_spec, tmp_path
    ):
        _, execution = run_and_execution
        store = DurableStore(tmp_path / "data")
        manager, session = make_session(running_spec)
        store.register(session)
        session.ingest_many(execution.insertions[:25])
        checkpointer = Checkpointer(store, interval=0.05)
        checkpointer.start()
        deadline = time.monotonic() + 10.0
        try:
            while time.monotonic() < deadline:
                info = store.info()["sessions"]["live"]
                if (
                    info["wal_records"] == 0
                    and info["checkpoint_vertices"] == 25
                ):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("checkpointer never rolled the WAL")
        finally:
            checkpointer.stop()
            store.close()
        # the rolled state recovers without any WAL replay
        revived = SessionManager()
        reports = DurableStore(tmp_path / "data").recover(revived)
        assert reports[0]["checkpoint_vertices"] == 25
        assert reports[0]["wal_events_replayed"] == 0

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
