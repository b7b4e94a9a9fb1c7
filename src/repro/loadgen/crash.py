"""One fault harness: a seeded ingest run against a topology under a fault.

:func:`run_fault` starts a durable ``single`` server, ``cluster`` or
``replicated`` fleet as subprocesses and ingests one session's sampled
run in 4-event chunks, while a fault SIGKILLs a named role at two
progress marks, or a failpoint armed in a named role crashes it.  One
rule recovers: restart what died, unarmed.  A failed request's chunk is
probed after recovery and resent if its atomic WAL record did not land;
an acknowledged chunk is never resent.  One checker runs at the end: no
acknowledged insertion lost on the entry point or any caught-up
replica, the whole run acknowledged, BFS-equal answers, and no process
of the fleet alive 10 s after its shutdown.  docs/SERVICE.md ("The fault
harness") states the contract; ``repro loadgen``'s fault scenarios are
the rows of :data:`PRESETS`.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import repro
from repro.datasets import resolve_spec
from repro.errors import (
    LabelingError,
    ProtocolError,
    ReproError,
    ServiceError,
    SessionNotFoundError,
)
from repro.faults import ENV_VAR
from repro.graphs.reachability import reaches
from repro.service.client import ServiceClient
from repro.service.cluster import session_worker
from repro.service.replication import choose_promotion_target
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation

SPEC = "running-example"
SESSION = "crash"
CHUNK = 4  # insertions per ingest request, each one atomic WAL record
MARKS = (1 / 3, 2 / 3)  # shares of the run acknowledged when a kill lands
GONE_TIMEOUT = 10.0

#: per topology: the role a SIGKILL names, and the roles a failpoint
#: may be armed in
ROLES = {
    "single": ("server", ("server",)),
    "cluster": ("worker", ("router", "workers")),
    "replicated": ("primary", ("replica", "replicas")),
}


#: the ``repro loadgen`` fault scenarios: (topology, role killed, summary)
PRESETS = {
    "crash-recovery": (
        "single", "server", "SIGKILL a durable server mid-ingest, restart, "
        "verify no acknowledged insertion was lost"),
    "kill-worker": (
        "cluster", "worker", "SIGKILL one cluster worker mid-ingest; the "
        "supervisor restarts it, WAL replay loses zero acknowledged "
        "insertions"),
    "kill-primary": (
        "replicated", "primary", "SIGKILL a replicated primary mid-ingest, "
        "promote the most-caught-up replica, verify zero acknowledged loss"),
}


@dataclass
class CrashReport:
    """Outcome of one :func:`run_fault` run; ``faults`` holds a row per
    fault that landed (the ``role`` that died, ``acked`` by then, and a
    ``pid`` and ``exit`` status, ``respawns`` or ``promoted`` port and
    epoch)."""

    topology: str
    size: int
    fsync: str
    run_size: int = 0
    acknowledged: int = 0
    lost: List[int] = field(default_factory=list)  # acked vids missing
    verified_pairs: int = 0
    wrong_answers: int = 0
    interrupted_chunks: int = 0
    resent_chunks: int = 0
    faults: List[Dict[str, Any]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and not self.lost and not self.wrong_answers

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "ok": self.ok}


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_server(port: int, data_dir: str, fsync: str, extra: Sequence[str],
                  failpoints: Optional[str]) -> subprocess.Popen:
    """Start ``repro serve --data-dir`` as a killable subprocess, with
    ``failpoints`` (if any) in its environment and nothing else armed."""
    env = dict(os.environ)
    env.pop(ENV_VAR, None)
    if failpoints:
        env[ENV_VAR] = failpoints
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")]))
    command = [
        sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
        "--port", str(port), "--data-dir", data_dir, "--fsync", fsync,
        *extra,
    ]
    return subprocess.Popen(
        command, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _poll(probe, timeout: float = GONE_TIMEOUT):
    """Call ``probe`` until it answers falsy or ``timeout`` s passed;
    returns its last answer."""
    deadline = time.monotonic() + timeout
    while True:
        answer = probe()
        if not answer or time.monotonic() >= deadline:
            return answer
        time.sleep(0.02)


def _wait_ready(port: int, process: subprocess.Popen) -> None:
    """Poll until the server answers ``ping`` (or its process died)."""
    def unready() -> bool:
        try:
            with ServiceClient("127.0.0.1", port, timeout=5.0) as client:
                return not client.ping()
        except OSError:
            return process.poll() is None

    if _poll(unready, 30.0) or process.poll() is not None:
        raise ServiceError(f"server on port {port} never became ready "
                           f"(exit status {process.returncode})")


def _alive(pid: int) -> bool:
    """Whether a process that is not our child runs; a zombie has ended."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return True  # no /proc: a zombie cannot be told apart


def _survivors(
    processes: Sequence[subprocess.Popen], pids: Sequence[int] = ()
) -> List[int]:
    """The pids alive after up to 10 s; ``processes`` are our children."""
    return _poll(lambda: [p.pid for p in processes if p.poll() is None]
                 + [pid for pid in pids if _alive(pid)])


def _missing(client: ServiceClient, vids: List[int]) -> List[int]:
    """The ``vids`` not labeled behind ``client``, in one batch when none
    is.  Probing an interrupted chunk's first vertex decides the whole
    chunk, since one ingest request is one atomic WAL record."""
    try:
        client.query_batch(SESSION, [(vid, vid) for vid in vids])
        return []
    except SessionNotFoundError:
        return list(vids)
    except LabelingError:
        if len(vids) == 1:
            return list(vids)
        return [vid for vid in vids if _missing(client, [vid])]


class _Fleet:
    """The processes of one topology, and the one recovery rule."""

    def __init__(self, topology: str, size: int, root: str, fsync: str,
                 report: CrashReport, say) -> None:
        self.topology, self.size, self.fsync = topology, size, fsync
        self.report, self.say = report, say
        nodes = size + 1 if topology == "replicated" else 1
        self.ports = [_free_port() for _ in range(nodes)]
        self.dirs = [root if nodes == 1 else os.path.join(root, f"node-{i}")
                     for i in range(nodes)]
        self.procs: List[subprocess.Popen] = []
        self.spawned: List[subprocess.Popen] = []  # every process started
        self.workers: set = set()  # every cluster worker pid seen
        self.acked: List[int] = []  # the ledger: acknowledged vids
        self.primary = 0  # the entry point's node
        self.restarts = 0  # the cluster supervisor's respawns seen
        self.recovered_at = time.monotonic()

    def start(self, failpoint: Optional[str], armed_in: Optional[str]):
        nodes = range(len(self.ports))
        armed = {"replica": [1], "replicas": nodes[1:]}.get(armed_in, [0])
        self.procs = [self._spawn(index, failpoint if index in armed else None,
                                  in_env=armed_in == "workers")
                      for index in nodes]
        for index in nodes:
            self._ready(index)
        self.recovered_at = time.monotonic()

    def _spawn(self, index: int, failpoint: Optional[str] = None,
               in_env: bool = False) -> subprocess.Popen:
        extra: List[str] = []
        if self.topology == "cluster":
            extra += ["--workers", str(self.size)]
        elif self.topology == "replicated":
            peers = [f"127.0.0.1:{port}" for port in self.ports
                     if port != self.ports[index]]
            extra += ["--repl-min-acks", "1", "--peers", ",".join(peers)]
            if index != self.primary:
                extra += ["--replicate-from",
                          f"127.0.0.1:{self.ports[self.primary]}",
                          "--replica-id", f"node-{index}"]
        if failpoint and not in_env:
            extra += ["--failpoints", failpoint]
        process = _spawn_server(
            self.ports[index], self.dirs[index], self.fsync, extra,
            failpoint if in_env else None,
        )
        self.spawned.append(process)
        return process

    def _restart(self, index: int) -> None:
        self.procs[index] = self._spawn(index)
        self._ready(index)

    def _ready(self, index: int) -> None:
        _wait_ready(self.ports[index], self.procs[index])
        if self.topology == "cluster":  # a new router counts from 0
            with self.client() as client:
                self.restarts = self._note(client.cluster_info())["restarts"]

    def client(self, index: Optional[int] = None) -> ServiceClient:
        port = self.ports[self.primary if index is None else index]
        return ServiceClient("127.0.0.1", port, timeout=30.0,
                             reconnect=False)

    def _note(self, info: Dict[str, Any]) -> Dict[str, Any]:
        self.workers.update(row["pid"] for row in info["per_worker"]
                            if row.get("pid"))
        return info

    def victim(self) -> int:
        """The pid a SIGKILL of this topology's kill role lands on now."""
        if self.topology == "cluster":  # a respawn changes the pid
            with self.client() as client:
                info = self._note(client.cluster_info())
            return info["per_worker"][session_worker(SESSION, self.size)][
                "pid"]
        return self.procs[self.primary].pid

    def _landed(self, role: str, process=None, **detail: Any) -> None:
        row = {"role": role, "acked": len(self.acked), **detail}
        if process is not None:
            row.update(pid=process.pid, exit=process.returncode)
        self.report.faults.append(row)
        self.say(f"fault: {row}")

    def recover(self, failure: Optional[Exception] = None,
                killed: bool = False) -> None:
        """The one recovery rule: restart what died, unarmed."""
        landed = len(self.report.faults)
        entry = self.procs[self.primary]
        if (isinstance(failure, (OSError, ProtocolError))
                or killed and self.topology != "cluster"):
            # the entry point died: its sockets close before it is reaped
            _survivors([entry])
        if self.topology == "cluster" and (failure is not None or killed):
            self._await_respawn(entry)
        if entry.poll() is not None:
            if self.topology == "replicated":
                self._landed("primary", entry, promoted=self._fail_over())
            else:
                self._restart_fleet()
                self._landed("server" if self.topology == "single"
                             else "router", entry)
        for index, process in enumerate(self.procs):
            if process.poll() is not None:  # a replica's death fails no request
                self._landed("replica", process)
                self._restart(index)
        if failure is not None and len(self.report.faults) == landed:
            raise ServiceError(f"a request failed, but nothing died: "
                               f"{type(failure).__name__}: {failure}")
        self.recovered_at = time.monotonic()

    def _await_respawn(self, router: subprocess.Popen) -> None:
        """Wait until the supervisor respawned a dead worker and every
        worker is alive, or the router died too."""
        def waiting() -> bool:
            try:
                with self.client() as client:
                    info = self._note(client.cluster_info())
            except (OSError, ReproError):
                return router.poll() is None
            if info["restarts"] > self.restarts and all(
                    row["alive"] for row in info["per_worker"]):
                self._landed("worker",
                             respawns=info["restarts"] - self.restarts)
                self.restarts = info["restarts"]
                return False
            return True

        if _poll(waiting, 30.0):
            raise ServiceError("no worker respawn seen within 30 s")

    def _restart_fleet(self) -> None:
        # a router's workers stop at the EOF of their boot pipe, and a
        # new fleet needs the data dir locks they hold
        left = _survivors([], sorted(self.workers))
        if left:
            self.report.errors.append(
                f"cluster workers {left} outlived their router")
            self.kill(left)
        self._restart(0)

    def _fail_over(self) -> List[int]:
        """Promote the chosen replica; the old primary rejoins as a
        replica of it.  Returns the new primary's port and epoch."""
        dead = self.primary
        for _ in self.ports:
            live = [("127.0.0.1", port)
                    for index, port in enumerate(self.ports)
                    if index != dead and self.procs[index].poll() is None]
            target = choose_promotion_target(live)
            if target is None:
                raise ServiceError(f"no live replica to promote in {live}")
            index = self.ports.index(target[1])
            try:
                with self.client(index) as client:
                    epoch = client.promote()["epoch"]
                break
            except (OSError, ProtocolError):  # died mid-promotion
                _survivors([self.procs[index]])
                self._landed("replica", self.procs[index])
                self._restart(index)
        else:
            raise ServiceError("every promotion attempt failed")
        self.primary = index
        self._restart(dead)
        return [target[1], epoch]

    def stop(self) -> None:
        """Shut every node down; no process may outlive it by 10 s."""
        for index, process in enumerate(self.procs):
            if process.poll() is None:
                with self.client(index) as client:
                    client.shutdown_server()
        left = _survivors(self.spawned, sorted(self.workers))
        if left:
            self.report.errors.append(f"processes {left} outlived shutdown")
            self.kill(self.workers.intersection(left))

    def kill(self, workers=()) -> None:
        """SIGKILL every process the harness started, and ``workers``."""
        for process in self.spawned:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30.0)
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def _ingest(fleet: _Fleet, events, kill: Optional[str], kill_after: float,
            report: CrashReport) -> None:
    """Send the run chunk by chunk, each until it is acknowledged."""
    marks = [int(len(events) * share) for share in MARKS] if kill else []
    client = fleet.client()
    try:
        client.create_session(SESSION, spec=SPEC)
        for start in range(0, len(events), CHUNK):
            batch = events[start:start + CHUNK]
            while True:
                killer = None
                if marks and (len(fleet.acked) >= marks[0]
                              or time.monotonic() >= fleet.recovered_at
                              + kill_after):
                    marks.pop(0)
                    # from a thread, to land while this chunk is in flight
                    killer = threading.Thread(
                        target=os.kill, args=(fleet.victim(), signal.SIGKILL))
                    killer.start()
                failure = None
                try:
                    client.ingest(SESSION, batch)
                    fleet.acked.extend(event.vid for event in batch)
                except (OSError, ReproError) as exc:
                    failure = exc
                if killer is not None:
                    killer.join()
                if killer is not None or failure is not None:
                    client.close()
                    fleet.recover(failure, killed=killer is not None)
                    client = fleet.client()
                if failure is None:
                    break
                report.interrupted_chunks += 1
                if not _missing(client, [batch[0].vid]):
                    fleet.acked.extend(event.vid for event in batch)
                    break
                report.resent_chunks += 1
    finally:
        client.close()


def _check(fleet: _Fleet, run, queries: int, seed: int,
           report: CrashReport) -> None:
    acked = fleet.acked
    report.acknowledged = len(acked)
    if len(acked) != report.run_size:
        report.errors.append(
            f"{len(acked)} of {report.run_size} insertions acknowledged")
    with fleet.client() as client:
        report.lost = _missing(client, acked)
        present = sorted(set(acked) - set(report.lost))
        rng = random.Random(seed + 1)
        pairs = [(rng.choice(present), rng.choice(present))
                 for _ in range(queries)] if present else []
        answers = client.query_batch(SESSION, pairs) if pairs else []
    report.verified_pairs = len(pairs)
    report.wrong_answers = sum(
        answer != reaches(run.graph, a, b)
        for (a, b), answer in zip(pairs, answers)
    )
    for index in range(len(fleet.ports)):
        if index == fleet.primary:
            continue
        with fleet.client(index) as reader:
            # until it caught up with the primary
            missing = _poll(lambda: _missing(reader, acked))
            if missing:
                report.errors.append(
                    f"replica node-{index} lacks {len(missing)} acknowledged "
                    f"insertions, e.g. {missing[:5]}")
            if reader.last_replica_lag is None:
                report.errors.append(
                    f"replica node-{index} answered without replica_lag")


def run_fault(
    topology: str,
    kill: Optional[str] = None,
    failpoint: Optional[str] = None,
    armed_in: Optional[str] = None,
    size: int = 2,
    data_dir: Optional[str] = None,
    fsync: str = "always",
    run_size: int = 800,
    kill_after: float = 2.0,
    queries: int = 400,
    seed: int = 0,
    verbose: bool = True,
) -> CrashReport:
    """Ingest a seeded run into ``topology`` under a fault, recover,
    finish the run and check it once.

    ``size`` counts a cluster's workers or a fleet's replicas.  ``kill``
    names the role SIGKILLed at each mark (:data:`ROLES`); ``failpoint``
    is a :mod:`repro.faults` spec armed in the role ``armed_in`` names
    (``replica`` is the first one).  ``data_dir`` defaults to a
    temporary directory.
    """
    kill_role, arm_roles = ROLES.get(topology, (None, ()))
    if (kill_role is None or kill not in (None, kill_role) or size < 1
            or (failpoint is None) != (armed_in is None)
            or armed_in not in (None, *arm_roles)):
        raise ServiceError(
            f"a fault run takes a topology in {sorted(ROLES)} of size >= 1 "
            f"(got {topology!r}, {size}), a SIGKILL of its {kill_role!r} "
            f"and a failpoint armed in one of {arm_roles}")
    report = CrashReport(topology=topology, size=size, fsync=fsync)

    def say(message: str) -> None:
        if verbose:
            print(f"{topology}: {message}")

    run = sample_run(resolve_spec(SPEC), run_size, random.Random(seed))
    events = execution_from_derivation(run).insertions
    report.run_size = len(events)
    with tempfile.TemporaryDirectory(prefix="repro-fault-") as scratch:
        fleet = _Fleet(topology, size, data_dir or scratch, fsync, report,
                       say)
        try:
            say(f"starting on ports {fleet.ports} under {fsync} fsync; "
                f"kill {kill}, failpoint {failpoint} in {armed_in}")
            fleet.start(failpoint, armed_in)
            _ingest(fleet, events, kill, kill_after, report)
            fleet.recover()  # a dead replica failed no request
            _check(fleet, run, queries, seed, report)
            fleet.stop()
        except (OSError, ReproError) as exc:
            report.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            fleet.kill()
    return report
