"""The crash-recovery scenario: SIGKILL a durable server mid-ingest.

This is the durability layer's acceptance test, run as a real loadgen
scenario (``repro loadgen crash-recovery``): start a *subprocess*
server with ``--data-dir``, ingest a synthesized run chunk by chunk
recording exactly which insertions were acknowledged, ``SIGKILL`` the
server mid-stream (no warning, no flush -- the closest a test gets to
pulling the plug on a process), restart it over the same data dir, and
verify against BFS ground truth that **every acknowledged insertion
survived**: each acked vertex is still present, and reachability
answers over the acked prefix match the materialized run graph.

Insertions the client never got an ``ok`` for are allowed to be lost
(they were never acknowledged); an acknowledged insertion lost after
recovery is a durability bug and fails the scenario.

The server is killed from a watchdog thread while the ingest loop is
running, so the kill lands mid-request with high probability; the
ingest loop treats the resulting connection error as the expected
crash, not a failure.

``kill-worker`` (:func:`run_kill_worker`) is the cluster variant: a
``repro serve --workers N --data-dir`` cluster, the ingest stream
aimed at one session, and a SIGKILL aimed at the *worker process
owning it* while the router stays up.  The supervisor must detect the
death, restart the worker, and replay its WAL; the client sees a
structured ``service`` error for the interrupted request (never a
dropped connection -- the router holds it open), probes whether the
failed chunk survived (one ingest request is one atomic WAL record,
so its first vertex's presence decides the whole chunk), resends it
if not, and finishes the run.  Zero acknowledged insertions may be
lost, and every reachability answer must match BFS ground truth.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import repro
from repro.errors import ProtocolError, ServiceError
from repro.graphs.reachability import reaches
from repro.loadgen.runner import LoadReport  # noqa: F401 (sibling API)
from repro.service.client import ServiceClient
from repro.datasets import resolve_spec
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation

SCENARIO_NAME = "crash-recovery"
SCENARIO_SUMMARY = (
    "SIGKILL a durable server mid-ingest, restart, verify no "
    "acknowledged insertion was lost"
)

KILL_WORKER_SCENARIO = "kill-worker"
KILL_WORKER_SUMMARY = (
    "SIGKILL one cluster worker mid-ingest; the supervisor restarts "
    "it, WAL replay loses zero acknowledged insertions"
)

KILL_PRIMARY_SCENARIO = "kill-primary"
KILL_PRIMARY_SUMMARY = (
    "SIGKILL a replicated primary mid-ingest, promote the most-"
    "caught-up replica, verify zero acknowledged loss"
)


@dataclass
class CrashReport:
    """Outcome of one crash-recovery scenario run."""

    scenario: str = SCENARIO_NAME
    fsync: str = "always"
    spec: str = "running-example"
    run_size: int = 0
    acknowledged: int = 0       # insertions the client got an 'ok' for
    unacknowledged: int = 0     # in flight / never sent when killed
    recovered_vertices: int = 0
    lost: List[int] = field(default_factory=list)  # acked vids missing
    verified_pairs: int = 0
    wrong_answers: int = 0
    torn_tail: Optional[str] = None  # recovery's dropped-tail report
    kill_after: float = 0.0
    errors: List[str] = field(default_factory=list)
    # cluster (kill-worker) fields; zero on the single-server scenario
    workers: int = 0
    worker_restarts: int = 0
    interrupted_chunks: int = 0
    resent_chunks: int = 0
    # replication (kill-primary) fields
    replicas: int = 0
    promoted_port: int = 0
    promoted_epoch: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors and not self.lost and not self.wrong_answers

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "fsync": self.fsync,
            "spec": self.spec,
            "run_size": self.run_size,
            "acknowledged": self.acknowledged,
            "unacknowledged": self.unacknowledged,
            "recovered_vertices": self.recovered_vertices,
            "lost": list(self.lost),
            "verified_pairs": self.verified_pairs,
            "wrong_answers": self.wrong_answers,
            "torn_tail": self.torn_tail,
            "kill_after": self.kill_after,
            "workers": self.workers,
            "worker_restarts": self.worker_restarts,
            "interrupted_chunks": self.interrupted_chunks,
            "resent_chunks": self.resent_chunks,
            "replicas": self.replicas,
            "promoted_port": self.promoted_port,
            "promoted_epoch": self.promoted_epoch,
            "ok": self.ok,
            "errors": list(self.errors),
        }


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_server(
    port: int, data_dir: str, fsync: str, extra: Optional[List[str]] = None
) -> subprocess.Popen:
    """Start ``repro serve --data-dir`` as a killable subprocess."""
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_root
    )
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        str(port),
        "--data-dir",
        data_dir,
        "--fsync",
        fsync,
    ] + list(extra or [])
    return subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_ready(port: int, process: subprocess.Popen, timeout: float = 30.0):
    """Poll until the server answers ``ping`` (or its process died)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise ServiceError(
                f"server exited with {process.returncode} before "
                "becoming ready"
            )
        try:
            with ServiceClient("127.0.0.1", port, timeout=5.0) as client:
                if client.ping():
                    return
        except OSError:
            time.sleep(0.05)
    raise ServiceError(f"server on port {port} never became ready")


def run_crash_recovery(
    data_dir: Optional[str] = None,
    spec: str = "running-example",
    scheme: str = "drl",
    fsync: str = "always",
    run_size: int = 800,
    chunk: int = 4,
    kill_after: float = 1.0,
    queries: int = 400,
    seed: int = 0,
    verbose: bool = True,
) -> CrashReport:
    """Run the scenario; see the module docstring for the contract.

    A watchdog SIGKILLs the server as soon as half the run has been
    acknowledged -- so the kill reliably lands mid-stream, with real
    acknowledged state in an open WAL -- or after
    ``kill_after`` seconds if ingest is slower than that.  The
    restarted server recovers from ``data_dir`` (a temp dir by
    default) and every acknowledged insertion is verified present with
    BFS-checked reachability.
    """
    report = CrashReport(fsync=fsync, spec=spec, kill_after=kill_after)

    def say(message: str) -> None:
        if verbose:
            print(f"crash-recovery: {message}")

    specification = resolve_spec(spec)
    run = sample_run(specification, run_size, random.Random(seed))
    execution = execution_from_derivation(run)
    events = execution.insertions
    report.run_size = len(events)

    owns_dir = data_dir is None
    if owns_dir:
        tempdir = tempfile.TemporaryDirectory(prefix="repro-crash-")
        data_dir = tempdir.name
    port = _free_port()
    say(
        f"starting durable server on port {port} "
        f"(fsync={fsync}, data dir {data_dir})"
    )
    process = _spawn_server(port, data_dir, fsync)
    acked: List[int] = []
    kill_threshold = max(chunk, len(events) // 2)

    def watchdog() -> None:
        # kill once half the run is acknowledged (mid-stream for sure),
        # or after the time limit if ingest is slower than that
        deadline = time.monotonic() + kill_after
        while time.monotonic() < deadline and len(acked) < kill_threshold:
            time.sleep(0.001)
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)

    killer = threading.Thread(target=watchdog, daemon=True)
    try:
        _wait_ready(port, process)
        killer.start()
        try:
            with ServiceClient("127.0.0.1", port, timeout=10.0) as client:
                client.create_session(
                    "crash", spec=spec, scheme=scheme
                )
                for start in range(0, len(events), chunk):
                    batch = events[start : start + chunk]
                    client.ingest("crash", batch)
                    # the server acknowledged: these must survive
                    acked.extend(event.vid for event in batch)
        except (OSError, ProtocolError):
            pass  # the kill landed mid-request: the expected crash
        killer.join(timeout=kill_after + 30.0)
        process.wait(timeout=30.0)
        report.acknowledged = len(acked)
        report.unacknowledged = len(events) - len(acked)
        say(
            f"server killed; {len(acked)}/{len(events)} insertions "
            "had been acknowledged"
        )
        if not acked:
            report.errors.append(
                "the server died before acknowledging any insertion; "
                "raise kill_after"
            )
            return report

        say("restarting over the same data dir")
        process = _spawn_server(port, str(data_dir), fsync)
        _wait_ready(port, process)
        with ServiceClient("127.0.0.1", port, timeout=30.0) as client:
            info = client.recover_info()
            recovered = {
                r["session"]: r for r in info.get("recovered", [])
            }
            record = recovered.get("crash")
            if record is None or record.get("skipped"):
                report.errors.append(
                    f"session 'crash' was not recovered: {recovered}"
                )
                return report
            report.recovered_vertices = record.get("vertices", 0)
            report.torn_tail = record.get("torn_tail")
            if report.torn_tail:
                say(
                    f"recovery dropped a torn WAL tail "
                    f"({report.torn_tail}; resume seq "
                    f"{record.get('resume_seq')})"
                )
            # presence: a (v, v) query probes v's label; an unlabeled
            # vertex is a LabelingError, so one batch proves them all
            try:
                client.query_batch("crash", [(v, v) for v in acked])
            except Exception as exc:  # noqa: BLE001 - report, don't die
                report.errors.append(
                    f"presence probe over acked vertices failed: {exc}"
                )
                for vid in acked:  # narrow down the missing ones
                    try:
                        client.query_batch("crash", [(vid, vid)])
                    except Exception:
                        report.lost.append(vid)
                say(
                    f"{len(report.lost)} acknowledged insertions "
                    "missing after recovery"
                )
                return report
            if report.recovered_vertices < len(acked):
                report.errors.append(
                    f"recovered {report.recovered_vertices} vertices "
                    f"< {len(acked)} acknowledged"
                )
            # reachability over the acked prefix, BFS-verified (edges
            # only ever point at later insertions, so the full-run
            # graph restricted to acked endpoints is exact)
            rng = random.Random(seed + 1)
            pairs = [
                (rng.choice(acked), rng.choice(acked))
                for _ in range(queries)
            ]
            answers = client.query_batch("crash", pairs)
            wrong = sum(
                1
                for (a, b), answer in zip(pairs, answers)
                if answer != reaches(run.graph, a, b)
            )
            report.verified_pairs = len(pairs)
            report.wrong_answers = wrong
            if wrong:
                report.errors.append(
                    f"{wrong}/{len(pairs)} post-recovery answers "
                    "contradict BFS ground truth"
                )
            say(
                f"zero acknowledged insertions lost; {len(pairs)} "
                f"reachability answers BFS-verified ({wrong} wrong)"
            )
            client.shutdown_server()
        process.wait(timeout=30.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30.0)
        if owns_dir:
            tempdir.cleanup()
    return report


# ---------------------------------------------------------------------------
# the replication variant
# ---------------------------------------------------------------------------


def run_kill_primary(
    data_dir: Optional[str] = None,
    spec: str = "running-example",
    scheme: str = "drl",
    fsync: str = "always",
    run_size: int = 800,
    chunk: int = 4,
    kill_after: float = 2.0,
    queries: int = 400,
    seed: int = 0,
    replicas: int = 2,
    verbose: bool = True,
) -> CrashReport:
    """SIGKILL the primary mid-ingest; promote; prove zero acked loss.

    Starts one primary (``--repl-min-acks 1``: an ingest is only
    acknowledged once at least one replica covers it) and ``replicas``
    read replicas following it, streams a run chunk by chunk, and
    SIGKILLs the *primary process* once half the run is acknowledged.
    The most-caught-up replica (``choose_promotion_target``) is then
    promoted under a bumped fencing epoch; because every acknowledged
    write was replica-covered before its ack, the promoted server must
    hold all of them -- the ingest stream resumes against it (probing
    whether the interrupted chunk's atomic record already shipped
    before resending), and the full run verifies like the other crash
    scenarios: every acked vertex present, reachability BFS-checked.
    Replica staleness is asserted wire-visible along the way (the
    ``replica_lag`` object on replica reads).
    """
    if replicas < 1:
        raise ServiceError(
            "kill-primary needs at least one replica to promote"
        )
    report = CrashReport(
        scenario=KILL_PRIMARY_SCENARIO, fsync=fsync, spec=spec,
        kill_after=kill_after, replicas=replicas,
    )

    def say(message: str) -> None:
        if verbose:
            print(f"kill-primary: {message}")

    specification = resolve_spec(spec)
    run = sample_run(specification, run_size, random.Random(seed))
    execution = execution_from_derivation(run)
    events = execution.insertions
    report.run_size = len(events)

    owns_dir = data_dir is None
    if owns_dir:
        tempdir = tempfile.TemporaryDirectory(prefix="repro-killp-")
        data_dir = tempdir.name
    primary_port = _free_port()
    replica_ports = [_free_port() for _ in range(replicas)]
    say(
        f"starting primary on port {primary_port} with {replicas} "
        f"replica(s) on {replica_ports} (fsync={fsync}, data dir "
        f"{data_dir})"
    )
    primary = _spawn_server(
        primary_port, os.path.join(str(data_dir), "primary"), fsync,
        extra=["--repl-min-acks", "1"],
    )
    fleet: List[subprocess.Popen] = []
    session = "crash"
    acked: List[int] = []
    kill_threshold = max(chunk, len(events) // 2)
    try:
        _wait_ready(primary_port, primary)
        for index, port in enumerate(replica_ports):
            peers = ",".join(
                f"127.0.0.1:{p}" for p in replica_ports if p != port
            )
            extra = [
                "--replicate-from", f"127.0.0.1:{primary_port}",
                "--replica-id", f"replica-{index}",
            ]
            if peers:
                extra += ["--peers", peers]
            fleet.append(_spawn_server(
                port, os.path.join(str(data_dir), f"replica-{index}"),
                fsync, extra=extra,
            ))
        for port, process in zip(replica_ports, fleet):
            _wait_ready(port, process)

        def watchdog() -> None:
            deadline = time.monotonic() + kill_after
            while (time.monotonic() < deadline
                   and len(acked) < kill_threshold):
                time.sleep(0.001)
            if primary.poll() is None:
                primary.send_signal(signal.SIGKILL)

        killer = threading.Thread(target=watchdog, daemon=True)
        pending = 0  # first event index not certainly acknowledged
        try:
            with ServiceClient(
                "127.0.0.1", primary_port, timeout=30.0
            ) as client:
                client.create_session(session, spec=spec, scheme=scheme)
                killer.start()
                for start in range(0, len(events), chunk):
                    batch = events[start : start + chunk]
                    client.ingest(session, batch)
                    acked.extend(event.vid for event in batch)
                    pending = start + chunk
        except (OSError, ProtocolError, ServiceError):
            # the kill landed mid-request (or the ack wait died with
            # the primary): everything from `pending` on is uncertain
            report.interrupted_chunks = 1
        killer.join(timeout=kill_after + 30.0)
        primary.wait(timeout=30.0)
        report.acknowledged = len(acked)
        report.unacknowledged = len(events) - len(acked)
        say(
            f"primary killed; {len(acked)}/{len(events)} insertions "
            "had been acknowledged"
        )
        if not acked:
            report.errors.append(
                "the primary died before acknowledging any insertion; "
                "raise kill_after"
            )
            return report
        # staleness must be wire-visible: a read served by a replica
        # (they are all still up) carries the replica_lag object
        if not _probe_replica_lag(replica_ports[0], session, acked[0]):
            report.errors.append(
                "no replica read carried a replica_lag object; "
                "staleness is not wire-visible"
            )

        from repro.service.replication import choose_promotion_target

        endpoints = [("127.0.0.1", port) for port in replica_ports]
        target = choose_promotion_target(endpoints)
        if target is None:
            report.errors.append(
                f"no live replica to promote among {endpoints}"
            )
            return report
        report.promoted_port = target[1]
        with ServiceClient(*target, timeout=30.0) as client:
            promoted = client.promote()
            report.promoted_epoch = promoted["epoch"]
            say(
                f"promoted 127.0.0.1:{target[1]} to primary "
                f"(epoch {promoted['epoch']}, applied "
                f"{promoted['applied']} records)"
            )
            # finish the run against the new primary, deciding the
            # interrupted chunk by probing its atomic record
            for start in range(pending, len(events), chunk):
                batch = events[start : start + chunk]
                if start == pending and report.interrupted_chunks:
                    if _vertex_present(client, session, batch[0].vid):
                        acked.extend(ev.vid for ev in batch)
                        continue
                    report.resent_chunks += 1
                client.ingest(session, batch)
                acked.extend(event.vid for event in batch)
            report.acknowledged = len(acked)
            report.unacknowledged = len(events) - len(acked)

            # presence of every acknowledged insertion, in one batch
            try:
                client.query_batch(session, [(v, v) for v in acked])
            except Exception as exc:  # noqa: BLE001 - report, don't die
                report.errors.append(
                    f"presence probe over acked vertices failed: {exc}"
                )
                for vid in acked:
                    try:
                        client.query_batch(session, [(vid, vid)])
                    except Exception:
                        report.lost.append(vid)
                say(
                    f"{len(report.lost)} acknowledged insertions "
                    "missing after promotion"
                )
                return report

            rng = random.Random(seed + 1)
            pairs = [
                (rng.choice(acked), rng.choice(acked))
                for _ in range(queries)
            ]
            answers = client.query_batch(session, pairs)
            wrong = sum(
                1
                for (a, b), answer in zip(pairs, answers)
                if answer != reaches(run.graph, a, b)
            )
            report.verified_pairs = len(pairs)
            report.wrong_answers = wrong
            if wrong:
                report.errors.append(
                    f"{wrong}/{len(pairs)} post-promotion answers "
                    "contradict BFS ground truth"
                )
            say(
                f"zero acknowledged insertions lost across the "
                f"failover; {len(pairs)} answers BFS-verified "
                f"({wrong} wrong)"
            )
            client.shutdown_server()
    finally:
        for process in [primary] + fleet:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30.0)
        if owns_dir:
            tempdir.cleanup()
    return report


def _probe_replica_lag(port: int, session: str, vid: int) -> bool:
    """Whether a replica read carries the wire-visible lag object.

    Retries briefly: the replica may still be applying the snapshot
    that creates the session.  Returns ``False`` (never raises) so the
    caller can fail the run with a structured report error.
    """
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            with ServiceClient("127.0.0.1", port, timeout=5.0) as reader:
                reader.query_batch(session, [(vid, vid)])
                return reader.last_replica_lag is not None
        except Exception:  # noqa: BLE001 - still syncing; retry
            time.sleep(0.05)
    return False


def _vertex_present(
    client: ServiceClient, session: str, vid: int
) -> bool:
    """Whether ``vid`` survived onto the promoted primary."""
    try:
        client.query_batch(session, [(vid, vid)])
        return True
    except (OSError, ProtocolError):
        raise
    except Exception:
        # LabelingError and kin: the vertex is gone -> not applied
        return False


# ---------------------------------------------------------------------------
# the cluster variant
# ---------------------------------------------------------------------------


def _chunk_survived(
    client: ServiceClient, session: str, vid: int, timeout: float = 30.0
) -> bool:
    """Whether an interrupted chunk's WAL record survived the crash.

    One ingest request is one atomic WAL record, so probing the
    chunk's first vertex decides the whole chunk: present means the
    record was durable before the kill, absent means it never landed
    and the chunk must be resent.  Retries while the worker restart is
    still in flight (``service`` errors).
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.query_batch(session, [(vid, vid)])
            return True
        except ServiceError:
            # worker still restarting (or died again); wait and retry
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)
        except Exception:
            # LabelingError and kin: the vertex is gone -> not applied
            return False


def run_kill_worker(
    data_dir: Optional[str] = None,
    spec: str = "running-example",
    scheme: str = "drl",
    fsync: str = "always",
    run_size: int = 800,
    chunk: int = 4,
    kill_after: float = 1.0,
    queries: int = 400,
    seed: int = 0,
    workers: int = 2,
    verbose: bool = True,
) -> CrashReport:
    """SIGKILL the worker owning the session; prove zero acked loss.

    Starts a ``--workers N`` cluster subprocess, streams one session's
    run chunk by chunk, and SIGKILLs the *owning worker process* (its
    pid comes from ``cluster_info``) once half the run is acknowledged.
    The router never goes down: the interrupted request fails with a
    structured ``service`` error on a *live* connection, the
    supervisor restarts the worker, WAL replay restores everything
    acknowledged, and the ingest loop resumes -- probing whether the
    failed chunk's atomic WAL record survived before deciding to
    resend it.  The full run then verifies like the single-server
    scenario: every acked vertex present, reachability BFS-checked.
    """
    if workers < 2:
        raise ServiceError(
            "kill-worker needs a cluster (workers >= 2): with one "
            "worker there is no surviving fleet to prove routing "
            "stays up"
        )
    report = CrashReport(
        scenario=KILL_WORKER_SCENARIO, fsync=fsync, spec=spec,
        kill_after=kill_after, workers=workers,
    )

    def say(message: str) -> None:
        if verbose:
            print(f"kill-worker: {message}")

    specification = resolve_spec(spec)
    run = sample_run(specification, run_size, random.Random(seed))
    execution = execution_from_derivation(run)
    events = execution.insertions
    report.run_size = len(events)

    owns_dir = data_dir is None
    if owns_dir:
        tempdir = tempfile.TemporaryDirectory(prefix="repro-killw-")
        data_dir = tempdir.name
    port = _free_port()
    say(
        f"starting {workers}-worker cluster on port {port} "
        f"(fsync={fsync}, data dir {data_dir})"
    )
    process = _spawn_server(
        port, str(data_dir), fsync, extra=["--workers", str(workers)]
    )
    acked: List[int] = []
    kill_threshold = max(chunk, len(events) // 2)
    session = "crash"

    try:
        _wait_ready(port, process)
        with ServiceClient("127.0.0.1", port, timeout=30.0) as client:
            topology = client.cluster_info()
            from repro.service.cluster import session_worker

            owner = session_worker(session, workers)
            victim_pid = topology["per_worker"][owner]["pid"]
            say(
                f"session {session!r} owned by worker {owner} "
                f"(pid {victim_pid}); killing it mid-ingest"
            )
            client.create_session(session, spec=spec, scheme=scheme)

            def watchdog() -> None:
                deadline = time.monotonic() + kill_after
                while (time.monotonic() < deadline
                       and len(acked) < kill_threshold):
                    time.sleep(0.001)
                try:
                    os.kill(victim_pid, signal.SIGKILL)
                except ProcessLookupError:  # pragma: no cover - raced
                    pass

            killer = threading.Thread(target=watchdog, daemon=True)
            killer.start()
            for start in range(0, len(events), chunk):
                batch = events[start : start + chunk]
                while True:
                    try:
                        client.ingest(session, batch)
                        acked.extend(event.vid for event in batch)
                        break
                    except (ServiceError, ProtocolError, OSError):
                        # the kill landed on this chunk; the router is
                        # still up, the worker is restarting
                        report.interrupted_chunks += 1
                        if _chunk_survived(client, session,
                                           batch[0].vid):
                            # the atomic WAL record beat the kill: the
                            # chunk is durable, count it acknowledged
                            acked.extend(ev.vid for ev in batch)
                            break
                        report.resent_chunks += 1
            killer.join(timeout=kill_after + 30.0)
            report.acknowledged = len(acked)
            report.unacknowledged = len(events) - len(acked)
            say(
                f"{len(acked)}/{len(events)} insertions acknowledged; "
                f"{report.interrupted_chunks} chunk(s) interrupted, "
                f"{report.resent_chunks} resent"
            )

            topology = client.cluster_info()
            report.worker_restarts = topology.get("restarts", 0)
            if report.worker_restarts < 1:
                report.errors.append(
                    "the victim worker was never restarted; the kill "
                    "missed (raise kill_after)"
                )
                return report
            if not all(
                row.get("alive")
                for row in topology.get("per_worker", [])
            ):
                report.errors.append(
                    f"fleet not fully alive after restart: {topology}"
                )
                return report

            info = client.recover_info()
            owner_info = info.get("per_worker", [])[owner]
            recovered = {
                r["session"]: r
                for r in owner_info.get("recovered", [])
            }
            record = recovered.get(session)
            if record is None or record.get("skipped"):
                report.errors.append(
                    f"session {session!r} was not WAL-recovered by "
                    f"the restarted worker: {recovered}"
                )
                return report
            report.recovered_vertices = record.get("vertices", 0)
            report.torn_tail = record.get("torn_tail")
            if report.torn_tail:
                say(
                    f"recovery dropped a torn WAL tail "
                    f"({report.torn_tail})"
                )

            # presence of every acknowledged insertion, in one batch
            try:
                client.query_batch(session, [(v, v) for v in acked])
            except Exception as exc:  # noqa: BLE001 - report, don't die
                report.errors.append(
                    f"presence probe over acked vertices failed: {exc}"
                )
                for vid in acked:
                    try:
                        client.query_batch(session, [(vid, vid)])
                    except Exception:
                        report.lost.append(vid)
                say(
                    f"{len(report.lost)} acknowledged insertions "
                    "missing after worker restart"
                )
                return report

            rng = random.Random(seed + 1)
            pairs = [
                (rng.choice(acked), rng.choice(acked))
                for _ in range(queries)
            ]
            answers = client.query_batch(session, pairs)
            wrong = sum(
                1
                for (a, b), answer in zip(pairs, answers)
                if answer != reaches(run.graph, a, b)
            )
            report.verified_pairs = len(pairs)
            report.wrong_answers = wrong
            if wrong:
                report.errors.append(
                    f"{wrong}/{len(pairs)} post-restart answers "
                    "contradict BFS ground truth"
                )
            say(
                f"zero acknowledged insertions lost across "
                f"{report.worker_restarts} worker restart(s); "
                f"{len(pairs)} answers BFS-verified ({wrong} wrong)"
            )
            client.shutdown_server()
        process.wait(timeout=30.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30.0)
        if owns_dir:
            tempdir.cleanup()
    return report
