"""The fleet a run spawns, its faults and its one recovery rule.

A :class:`Fleet` starts a durable ``single`` server, a ``cluster`` of N
workers or a ``replicated`` primary with N replicas as ``repro serve``
subprocesses.  Faults are SIGKILLs of the topology's named role, fired
when a third and two thirds of the run's events are acknowledged (or
``kill_after`` seconds after the last recovery), and failpoints armed
in a named role at spawn.  One rule recovers: restart what died,
unarmed.  docs/SERVICE.md ("The fault harness") states the contract.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import repro
from repro.errors import (
    LabelingError,
    ProtocolError,
    ReproError,
    ServiceError,
    SessionNotFoundError,
)
from repro.faults import ENV_VAR
from repro.service.client import ServiceClient
from repro.service.cluster import session_worker
from repro.service.replication import choose_promotion_target, probe_replication

MARKS = (1 / 3, 2 / 3)  # shares of the run acknowledged when a kill lands
GONE_TIMEOUT = 10.0

#: per topology: the role a SIGKILL names, and the roles a failpoint
#: may be armed in
ROLES = {
    "single": ("server", ("server",)),
    "cluster": ("worker", ("router", "workers")),
    "replicated": ("primary", ("replica", "replicas")),
}


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


def poll(probe, timeout: float = GONE_TIMEOUT):
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

    if poll(unready, 30.0) or process.poll() is not None:
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
    return poll(lambda: [p.pid for p in processes if p.poll() is None]
                + [pid for pid in pids if _alive(pid)])


def missing(client: ServiceClient, session: str, vids: List[int]
            ) -> List[int]:
    """The ``vids`` not labeled in ``session`` behind ``client``, in one
    batch when none is.  Probing an interrupted chunk's first vertex
    decides the whole chunk, since one ingest request is one atomic WAL
    record."""
    try:
        client.query_batch(session, [(vid, vid) for vid in vids])
        return []
    except SessionNotFoundError:
        return list(vids)
    except LabelingError:
        if len(vids) == 1:
            return list(vids)
        return [vid for vid in vids if missing(client, session, [vid])]


class Fleet:
    """The processes of one topology, its kills and the recovery rule.

    ``generation`` counts recoveries: a request sent under an older one
    failed to a fault already recovered from, so its sender reconnects
    instead of recovering again.
    """

    def __init__(self, topology: str, size: int, root: str, fsync: str,
                 kill: Optional[str], kill_after: float, report,
                 say) -> None:
        self.topology, self.size, self.fsync = topology, size, fsync
        self.kill_role, self.kill_after = kill, kill_after
        self.report, self.say = report, say
        nodes = size + 1 if topology == "replicated" else 1
        self.ports = [_free_port() for _ in range(nodes)]
        # a cluster router refuses --metrics-port (workers are processes)
        self.metrics_ports = ([] if topology == "cluster"
                              else [_free_port() for _ in range(nodes)])
        self.dirs = [root if nodes == 1 else os.path.join(root, f"node-{i}")
                     for i in range(nodes)]
        self.procs: List[subprocess.Popen] = []
        self.spawned: List[subprocess.Popen] = []  # every process started
        self.workers: set = set()  # every cluster worker pid seen
        self.primary = 0  # the entry point's node
        self.restarts = 0  # the cluster supervisor's respawns seen
        self.generation = 0
        self.acked = 0  # events acknowledged, across every stream
        self.marks: List[int] = []
        self.pending = False  # a kill fired and is not yet recovered
        self.recovered_at = time.monotonic()
        self._lock = threading.Lock()  # acked, marks, pending
        self._recovery = threading.Lock()  # one recovery at a time

    def start(self, failpoint: Optional[str], armed_in: Optional[str],
              events: int) -> None:
        """Spawn every node; kills land at :data:`MARKS` of ``events``."""
        if self.kill_role:
            self.marks = [int(events * share) for share in MARKS]
        nodes = range(len(self.ports))
        armed = {"replica": [1], "replicas": nodes[1:]}.get(armed_in, [0])
        self.procs = [self._spawn(index, failpoint if index in armed else None,
                                  in_env=armed_in == "workers")
                      for index in nodes]
        for index in nodes:
            self._ready(index)
        for index in self.replicas() if self.topology == "replicated" else ():
            # a replica that first subscribes after the writes takes them
            # from a reset snapshot, where no apply failpoint fires
            if poll(lambda: (probe_replication(("127.0.0.1", self.ports[index]))
                             or {}).get("token") is None, 30.0):
                raise ServiceError(f"replica on port {self.ports[index]} "
                                   "never subscribed to the primary")
        self.recovered_at = time.monotonic()

    def _spawn(self, index: int, failpoint: Optional[str] = None,
               in_env: bool = False) -> subprocess.Popen:
        extra: List[str] = []
        if self.topology == "cluster":
            extra += ["--workers", str(self.size)]
        else:
            extra += ["--metrics-port", str(self.metrics_ports[index])]
        if self.topology == "replicated":
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
        """A connection to node ``index``, the entry point by default."""
        port = self.ports[self.primary if index is None else index]
        return ServiceClient("127.0.0.1", port, timeout=30.0,
                             reconnect=False)

    def replicas(self) -> List[int]:
        return [index for index in range(len(self.ports))
                if index != self.primary]

    def _note(self, info: Dict[str, Any]) -> Dict[str, Any]:
        self.workers.update(row["pid"] for row in info["per_worker"]
                            if row.get("pid"))
        return info

    def acknowledge(self, events: int) -> None:
        with self._lock:
            self.acked += events

    def kill_due(self, session: str) -> Optional[threading.Thread]:
        """Fire the next kill if it is due: a started thread SIGKILLing
        the kill role (for a cluster, the worker hosting ``session``),
        to land while the caller's request is in flight."""
        with self._lock:
            if self.pending or not self.marks or (
                    self.acked < self.marks[0] and time.monotonic()
                    < self.recovered_at + self.kill_after):
                return None
            self.marks.pop(0)
            self.pending = True
        if self.topology == "cluster":  # a respawn changes the pid
            with self.client() as client:
                info = self._note(client.cluster_info())
            pid = info["per_worker"][session_worker(session, self.size)][
                "pid"]
        else:
            pid = self.procs[self.primary].pid
        killer = threading.Thread(target=os.kill, args=(pid, signal.SIGKILL))
        killer.start()
        return killer

    def _landed(self, role: str, process=None, **detail: Any) -> None:
        row = {"role": role, "acked": self.acked, **detail}
        if process is not None:
            row.update(pid=process.pid, exit=process.returncode)
        self.report.faults.append(row)
        self.say(f"fault: {row}")

    def recover(self, failure: Optional[Exception] = None,
                killed: bool = False, seen: Optional[int] = None) -> None:
        """The one recovery rule: restart what died, unarmed.

        ``seen`` is the generation the failed request was sent under;
        a later one means another caller recovered from this fault.
        """
        with self._recovery:
            if seen is not None and seen != self.generation:
                return
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
            with self._lock:
                self.generation += 1
                self.pending = False
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

        if poll(waiting, 30.0):
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
        """SIGKILL every process the fleet started, and ``workers``."""
        for process in self.spawned:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30.0)
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
