"""The process-per-shard serving tier: supervisor + hash router.

One Python process serves every request under one GIL, so the packed
batch kernels can never use more than one core.  Sessions, however,
are *embarrassingly partitionable*: a session's labels and WAL are
touched only by requests naming that session.
:class:`ClusterSupervisor` exploits that:

* it forks ``N`` **worker processes** (``multiprocessing`` spawn
  context), each a complete, unmodified single-process server --
  its own :class:`~repro.service.server.ReproService` (engine +
  session manager + optional :class:`~repro.service.wal.DurableStore`
  rooted at ``data_dir/worker-<i>/``) behind a
  :class:`~repro.service.server.ReproServer` on an ephemeral loopback
  port;
* it fronts them with a **single-threaded non-blocking router**
  (:mod:`selectors`) that speaks the existing JSON-lines protocol to
  clients, owns no session state, and does no labeling work -- so the
  GIL it runs under is spent purely on byte shuffling.

Routing
-------
Each session lives on exactly one worker, chosen by a **stable** hash
of its name (:func:`session_worker` -- CRC-32, *not* Python's salted
``hash()``), so the same name maps to the same worker directory across
restarts and the worker's WAL layout stays valid.  A
session-scoped request line is forwarded to its owner *verbatim* and
the worker's response line -- which already echoes the client's
request id -- is relayed back untouched: the single-owner fast path
rewrites zero bytes.

Every client connection gets its **own channel** (a loopback TCP
connection) to each worker it addresses, opened on first use.  The
worker serves a channel on its own handler thread, exactly as it
would serve that client directly, so a routed connection has a direct
connection's concurrency and ordering: labels never change once
assigned, so a read needs no lock and never waits behind another
client's fsync-acked ingest or session close.  Responses on a channel
arrive strictly in request order (the protocol's ordering guarantee),
so the router matches them positionally, with no id table, and a
per-client slot queue keeps each client's responses in request order
across its channels.  When a client disconnects, its channels are
half-closed: the worker finishes what was already sent, and the router
reaps each channel at its EOF.

Fan-out ops (``schemes``/``stats``/``metrics``/``list_sessions``/
``recover_info``/``sync``/``ping``/``shutdown``) broadcast to every
worker and merge: ``stats`` sums the counters (plus ``per_worker``
rows), ``metrics`` asks workers for their **raw all-integer
histogram state** and merges it *exactly*
(:meth:`~repro.obs.histogram.HistogramSnapshot.merge` is associative),
then summarizes.  A ``shutdown`` reaches a worker only once everything
already forwarded to it is answered, and the router refuses new work
from then on.  A request naming sessions owned by different workers
is rejected with a structured ``protocol`` error -- cross-worker
requests have no single owner and no atomicity story -- and so are
the replication ops, with a ``service`` error: a replica follows each
worker directly, never the router.

Failover
--------
Every worker's process sentinel is registered in the selector.  When a
worker dies (crash, OOM kill, SIGKILL), the requests in flight on
every channel to it fail with structured ``service`` errors -- the
router and every other worker keep serving -- and the supervisor
immediately respawns it; each client opens a fresh channel on its next
request.  A durable worker replays its WALs on boot (the
``data_dir/worker-<i>/`` layout is per-worker, so recovery is local),
which is what makes "SIGKILL one worker, lose zero acknowledged
ingests" hold; the kernel releases the dead worker's ``LOCK`` flock,
so the respawn can always mount the store.

A ``cluster.json`` manifest in the data dir records the worker count:
booting the same data dir with a different ``--workers`` would hash
sessions to the wrong directories, so the mismatch is refused.
"""

from __future__ import annotations

import errno
import json
import logging
import multiprocessing
import os
import selectors
import signal
import socket
import time
import zlib
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple, Union

from repro.errors import ProtocolError, ServiceError
from repro.faults import FAILPOINTS
from repro.obs.histogram import HistogramSnapshot, merge_snapshots
from repro.obs.logs import log_event
from repro.service.protocol import (
    MAX_BATCH,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    error_response,
)

_cluster_logger = logging.getLogger("repro.service.cluster")

#: manifest file recording the worker count a data dir was laid out for
MANIFEST = "cluster.json"

#: seconds a freshly spawned worker gets to report its port
WORKER_BOOT_TIMEOUT = 60.0

#: ops forwarded to the one worker owning the named session
_SESSION_OPS = frozenset({"ingest", "query", "query_batch", "snapshot",
                          "close"})

#: ops broadcast to every worker and merged
_BROADCAST_OPS = frozenset({"schemes", "stats", "metrics",
                            "list_sessions", "recover_info", "ping",
                            "shutdown"})

#: replication pairs whole *servers*, not routed shards: the router
#: answers these itself with a structured ``service`` error
_REPLICATION_OPS = frozenset({"repl_subscribe", "repl_ack", "promote"})

#: every op the router knows how to place: session-keyed forwards,
#: broadcasts, the replication refusals, and the special cases
#: ``_route`` handles inline (``cluster_info`` is answered by the
#: router itself; a ``create_session`` is forwarded to the owner of
#: its ``name``; a session-less ``sync`` broadcasts, a keyed one
#: forwards).  The ``ops-surface`` rule of :mod:`repro.analysis` fails
#: the build if this union ever drifts from ``protocol.OPS``.
_ROUTED_OPS = _SESSION_OPS | _BROADCAST_OPS | _REPLICATION_OPS | frozenset({
    "cluster_info", "create_session", "sync",
})


def session_worker(name: str, workers: int) -> int:
    """The worker index owning session ``name`` -- stable across
    processes and restarts.

    CRC-32 of the UTF-8 name, not Python's ``hash()``: the builtin is
    salted per process (PYTHONHASHSEED), which would scatter a restart
    onto the wrong worker directories.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return zlib.crc32(name.encode("utf-8")) % workers


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------


def _worker_main(index: int, conn, config: Dict[str, Any]) -> None:
    """Entry point of one worker process (spawn target).

    Builds an ordinary single-process server (the exact code path
    ``--workers 0`` runs), binds an ephemeral loopback port, reports it
    through ``conn``, and serves until a ``shutdown`` request arrives.
    A durable worker replays its WALs inside
    ``ReproService.__init__`` before the port is ever reported, so the
    router never routes to a half-recovered worker.
    """
    # the router owns lifecycle; a terminal Ctrl-C must not race it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # spawn children inherit the environment but not the parent's
    # armed registry state; re-arm so failpoints fire inside workers
    FAILPOINTS.arm_from_env()
    from repro.service.server import ReproServer, ReproService

    try:
        service = ReproService(
            max_batch=config["max_batch"],
            data_dir=config["data_dir"],
            fsync=config["fsync"],
            slow_threshold=config["slow_threshold"],
        )
        server = ReproServer(("127.0.0.1", 0), service)
    except Exception as exc:
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    conn.send(("ready", server.port))
    conn.close()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        service.close()


class _Worker:
    """The supervisor's handle on one worker process and on every
    open channel to it."""

    __slots__ = ("index", "process", "port", "restarts", "channels")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.port: int = 0
        self.restarts: int = 0
        self.channels: Set[_Channel] = set()


# ---------------------------------------------------------------------------
# router bookkeeping
# ---------------------------------------------------------------------------


class _Slot:
    """One client request's place in that client's response order.

    Responses must leave a connection in request order even when a
    fast single-owner answer overtakes a slow broadcast merge, so each
    request takes a slot in the client's deque and the flusher only
    emits from the front.
    """

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data: Optional[bytes] = None  # the ready response line


class _Gather:
    """One broadcast request waiting for every worker's answer."""

    __slots__ = ("op", "request", "slot", "client", "replies", "missing")

    def __init__(self, op: str, request: Request, slot: _Slot,
                 client: "_ClientConn", workers: int) -> None:
        self.op = op
        self.request = request
        self.slot = slot
        self.client = client
        self.replies: List[Optional[Response]] = [None] * workers
        self.missing = workers


class _ClientConn:
    """One client connection's buffers, response order and channels.

    The router's own requests (the ``shutdown`` it sends each worker)
    go through a stand-in with no socket that is ``closed`` from the
    start: nobody reads its answers.
    """

    __slots__ = ("sock", "recv", "send", "slots", "closed", "peer",
                 "channels")

    def __init__(self, sock: Optional[socket.socket], peer: str) -> None:
        self.sock = sock
        self.recv = b""
        self.send = bytearray()
        self.slots: Deque[_Slot] = deque()
        self.closed = sock is None
        self.peer = peer
        # worker index -> this client's channel to that worker
        self.channels: Dict[int, _Channel] = {}


class _Channel:
    """One client's connection to one worker.

    The worker serves it on a handler thread of its own and answers in
    request order, so ``pending`` matches replies positionally: each
    entry is the client's :class:`_Slot` (a forward) or a
    :class:`_Gather` (this worker's part of a broadcast).
    """

    __slots__ = ("sock", "index", "client", "recv", "send", "pending",
                 "draining", "closed")

    def __init__(self, sock: socket.socket, index: int,
                 client: _ClientConn) -> None:
        self.sock = sock
        self.index = index
        self.client = client
        self.recv = b""
        self.send = bytearray()
        self.pending: Deque[Union[_Slot, _Gather]] = deque()
        # the client is gone: half-close once ``send`` is flushed
        self.draining = False
        self.closed = False


# ---------------------------------------------------------------------------
# the supervisor
# ---------------------------------------------------------------------------


class ClusterSupervisor:
    """Runs the worker fleet and the routing frontend.

    Usage::

        supervisor = ClusterSupervisor(workers=4, port=0,
                                       data_dir="/var/lib/repro")
        supervisor.start()            # spawn workers, bind the port
        supervisor.serve_forever()    # the router loop (blocking)

    ``workers=0`` is not a cluster -- callers keep the in-process
    :class:`~repro.service.server.ReproServer` path for that.
    """

    def __init__(
        self,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = MAX_BATCH,
        data_dir: Optional[str] = None,
        fsync: str = "always",
        slow_threshold: float = 0.5,
    ) -> None:
        if workers < 1:
            raise ValueError("a cluster needs at least 1 worker")
        self.workers = workers
        self.host = host
        self._requested_port = port
        self.data_dir = data_dir
        self._config = {
            "max_batch": max_batch,
            "data_dir": None,  # per-worker, filled at spawn
            "fsync": fsync,
            "slow_threshold": slow_threshold,
        }
        self._mp = multiprocessing.get_context("spawn")
        self._fleet: List[_Worker] = [_Worker(i) for i in range(workers)]
        # the stand-in client whose channels carry the router's own
        # requests: the ``shutdown`` each worker finally receives
        self._router = _ClientConn(None, "router")
        # (worker index, gather, request line): a ``shutdown`` waiting
        # for everything already forwarded to that worker to be answered
        self._held: List[Tuple[int, _Gather, bytes]] = []
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._wakeup_r: Optional[socket.socket] = None
        self._wakeup_w: Optional[socket.socket] = None
        self._clients: Dict[socket.socket, _ClientConn] = {}
        self._running = False
        self._stopping = False
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The router's bound port (valid after :meth:`start`)."""
        if self._listener is None:
            raise ServiceError("cluster is not started")
        return self._listener.getsockname()[1]

    def start(self) -> "ClusterSupervisor":
        """Spawn the fleet and bind the client port."""
        if self._started:
            raise ServiceError("cluster already started")
        self._check_manifest()
        self._selector = selectors.DefaultSelector()
        # every worker boots at once, so N workers start in about one
        # worker's boot time; a failed boot takes the others down
        launched = [(worker, *self._launch(worker)) for worker in self._fleet]
        deadline = time.monotonic() + WORKER_BOOT_TIMEOUT
        try:
            for worker, process, pipe in launched:
                self._await_ready(worker, process, pipe, deadline)
        except BaseException:
            for _worker, process, pipe in launched:
                pipe.close()
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5)
            raise
        self._listener = socket.create_server(
            (self.host, self._requested_port), backlog=128,
            reuse_port=False,
        )
        self._listener.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ,
                                ("accept", None))
        self._wakeup_r, self._wakeup_w = socket.socketpair()
        self._wakeup_r.setblocking(False)
        self._selector.register(self._wakeup_r, selectors.EVENT_READ,
                                ("wakeup", None))
        self._started = True
        log_event(
            _cluster_logger, logging.INFO, "cluster-start",
            workers=self.workers, port=self.port,
            pids=[w.process.pid for w in self._fleet],
        )
        return self

    def _check_manifest(self) -> None:
        if self.data_dir is None:
            return
        os.makedirs(self.data_dir, exist_ok=True)
        path = os.path.join(self.data_dir, MANIFEST)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            laid_out = int(manifest.get("workers", 0))
            if laid_out != self.workers:
                raise ServiceError(
                    f"data dir {self.data_dir!r} was laid out for "
                    f"{laid_out} workers; starting with {self.workers} "
                    f"would route sessions to the wrong worker "
                    f"directories"
                )
        else:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"workers": self.workers}, handle)
                handle.write("\n")

    def _worker_dir(self, index: int) -> Optional[str]:
        if self.data_dir is None:
            return None
        return os.path.join(self.data_dir, f"worker-{index}")

    def _spawn(self, worker: _Worker) -> None:
        """Start one worker process, learn its port, watch its death."""
        process, pipe = self._launch(worker)
        self._await_ready(worker, process, pipe,
                          time.monotonic() + WORKER_BOOT_TIMEOUT)

    def _launch(self, worker: _Worker) -> Tuple[
        multiprocessing.process.BaseProcess,
        multiprocessing.connection.Connection,
    ]:
        """Start one worker process; returns it and the pipe on which
        it will report its port."""
        parent, child = self._mp.Pipe(duplex=False)
        config = dict(self._config)
        config["data_dir"] = self._worker_dir(worker.index)
        process = self._mp.Process(
            target=_worker_main,
            args=(worker.index, child, config),
            name=f"repro-worker-{worker.index}",
            daemon=True,
        )
        process.start()
        child.close()
        return process, parent

    def _await_ready(
        self,
        worker: _Worker,
        process: multiprocessing.process.BaseProcess,
        pipe: multiprocessing.connection.Connection,
        deadline: float,
    ) -> None:
        """Learn a launched worker's port by ``deadline`` (a
        ``time.monotonic()`` instant) and watch its death."""
        try:
            if not pipe.poll(max(0.0, deadline - time.monotonic())):
                process.terminate()
                raise ServiceError(
                    f"worker {worker.index} did not report a port within "
                    f"{WORKER_BOOT_TIMEOUT}s"
                )
            status, payload = pipe.recv()
        finally:
            pipe.close()
        if status != "ready":
            process.join(timeout=5)
            raise ServiceError(
                f"worker {worker.index} failed to boot: {payload}"
            )
        worker.process = process
        worker.port = payload
        # the sentinel becomes readable the instant the process dies --
        # faster and more reliable than noticing a socket EOF
        self._selector.register(process.sentinel, selectors.EVENT_READ,
                                ("sentinel", worker.index))

    def stop(self) -> None:
        """Stop the router loop and the fleet (thread-safe)."""
        if self._wakeup_w is not None:
            try:
                self._wakeup_w.send(b"x")
            except OSError:  # pragma: no cover - already closed
                pass

    # ------------------------------------------------------------------
    # the router loop
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the router until ``shutdown`` (op or :meth:`stop`)."""
        if not self._started:
            raise ServiceError("call start() before serve_forever()")
        self._running = True
        try:
            while self._running:
                if self._held:
                    self._release_held()
                if self._stopping and self._drained():
                    break
                for key, events in self._selector.select(timeout=0.5):
                    kind, payload = key.data
                    if kind == "channel":
                        self._channel_event(payload, events)
                    elif kind == "client":
                        self._client_event(payload, events)
                    elif kind == "accept":
                        self._accept()
                    elif kind == "sentinel":
                        self._worker_died(payload)
                    elif kind == "wakeup":
                        self._wakeup_r.recv(4096)
                        self._begin_shutdown()
        finally:
            self._running = False
            self._cleanup()

    def _drained(self) -> bool:
        # a shutdown is done once every worker has answered everything
        # sent to it -- its own shutdown included -- and every client's
        # responses are computed AND handed to the kernel, so the last
        # flush is never cut off
        return (
            not self._held
            and not any(channel.pending for worker in self._fleet
                        for channel in worker.channels)
            and all(not c.send and not c.slots
                    for c in self._clients.values())
        )

    def _cleanup(self) -> None:
        for client in list(self._clients.values()):
            self._close_client(client)
        for worker in self._fleet:
            for channel in worker.channels:
                try:
                    self._selector.unregister(channel.sock)
                except (KeyError, ValueError):
                    pass
                channel.sock.close()
            worker.channels.clear()
            if worker.process is not None:
                try:
                    self._selector.unregister(worker.process.sentinel)
                except (KeyError, ValueError):
                    pass
                if not self._stopping and worker.process.is_alive():
                    # exception-path teardown: nobody broadcast a
                    # shutdown, so don't wait politely
                    worker.process.terminate()
                worker.process.join(timeout=10)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5)
        for sock in (self._listener, self._wakeup_r, self._wakeup_w):
            if sock is not None:
                sock.close()
        if self._selector is not None:
            self._selector.close()
        self._started = False
        log_event(_cluster_logger, logging.INFO, "cluster-stop",
                  restarts=sum(w.restarts for w in self._fleet))

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        try:
            sock, address = self._listener.accept()
        except OSError:  # pragma: no cover - raced disconnect
            return
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP test sockets
            pass
        try:
            peer = "%s:%s" % address[:2]
        except Exception:  # pragma: no cover - exotic families
            peer = str(address)
        client = _ClientConn(sock, peer)
        self._clients[sock] = client
        self._selector.register(sock, selectors.EVENT_READ,
                                ("client", client))

    def _client_event(self, client: _ClientConn, events: int) -> None:
        if events & selectors.EVENT_WRITE and client.send:
            self._flush_client(client)
        if client.closed or not events & selectors.EVENT_READ:
            return
        try:
            data = client.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._close_client(client)
            return
        if not data:
            self._close_client(client)
            return
        client.recv += data
        while b"\n" in client.recv:
            line, client.recv = client.recv.split(b"\n", 1)
            if line.strip():
                self._route(client, line + b"\n")

    def _close_client(self, client: _ClientConn) -> None:
        if client.closed:
            return
        client.closed = True
        self._clients.pop(client.sock, None)
        try:
            self._selector.unregister(client.sock)
        except (KeyError, ValueError):
            pass
        client.sock.close()
        # the workers still answer what the client already sent (the
        # replies are dropped); each channel is reaped at its EOF
        for channel in client.channels.values():
            channel.draining = True
            if not channel.send:
                self._half_close(channel)

    def _client_interest(self, client: _ClientConn) -> None:
        if client.closed:
            return
        events = selectors.EVENT_READ
        if client.send:
            events |= selectors.EVENT_WRITE
        self._selector.modify(client.sock, events, ("client", client))

    def _flush_client(self, client: _ClientConn) -> None:
        try:
            while client.send:
                sent = client.sock.send(client.send)
                del client.send[:sent]
        except BlockingIOError:
            pass
        except OSError:
            self._close_client(client)
            return
        self._client_interest(client)

    def _emit(self, client: _ClientConn, slot: _Slot,
              data: bytes) -> None:
        """Fill a slot and flush every leading ready slot in order."""
        slot.data = data
        while client.slots and client.slots[0].data is not None:
            client.send += client.slots.popleft().data
        if client.send and not client.closed:
            self._flush_client(client)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(self, client: _ClientConn, raw: bytes) -> None:
        slot = _Slot()
        client.slots.append(slot)
        try:
            request = decode_request(raw.decode("utf-8",
                                                errors="replace"))
        except ProtocolError as exc:
            self._emit(client, slot, encode_response(
                error_response(exc)).encode("utf-8"))
            return
        try:
            op = request.op
            if op == "cluster_info":
                self._answer(client, slot, request,
                             self._cluster_info())
            elif self._stopping:
                raise ServiceError("the cluster is shutting down")
            elif op in _REPLICATION_OPS:
                raise ServiceError(
                    f"op {op!r} rejected: replication follows each "
                    f"worker directly, not the router"
                )
            elif op in _BROADCAST_OPS:
                self._broadcast(client, slot, request)
            elif op == "sync" and request.params.get("session") is None:
                self._broadcast(client, slot, request)
            else:
                self._send(client, self._owner_of(request), slot, raw)
        except Exception as exc:
            self._emit(client, slot, encode_response(
                error_response(exc, request.id)).encode("utf-8"))

    def _answer(self, client: _ClientConn, slot: _Slot,
                request: Request, result: Any) -> None:
        response = Response(ok=True, result=result, id=request.id,
                            trace_id=request.trace_id)
        self._emit(client, slot,
                   encode_response(response).encode("utf-8"))

    def _owner_of(self, request: Request) -> int:
        """The worker index a session-scoped request routes to.

        A malformed routing key (missing, non-string) is *not* judged
        here -- the request goes to worker 0, whose unmodified op
        handler produces the canonical structured error.  The one
        router-level rejection is a *list* of sessions spanning
        workers: no single worker could own it.
        """
        key = "name" if request.op == "create_session" else "session"
        value = request.params.get(key)
        if isinstance(value, str):
            return session_worker(value, self.workers)
        if isinstance(value, list):
            owners = {
                session_worker(item, self.workers)
                for item in value if isinstance(item, str)
            }
            if len(owners) > 1:
                raise ProtocolError(
                    f"op {request.op!r} mixes sessions owned by "
                    f"different workers; cross-worker requests are "
                    f"not supported -- issue one request per session"
                )
            raise ProtocolError(
                f"'{key}' must be a single session name"
            )
        return 0

    def _broadcast(self, client: _ClientConn, slot: _Slot,
                   request: Request) -> None:
        gather = _Gather(request.op, request, slot, client,
                         self.workers)
        if request.op == "metrics":
            # ask workers for raw integer histograms so the merged
            # series is exact; summarized on the way out
            request = Request(op="metrics",
                              params={**request.params, "raw": True},
                              id=request.id, trace_id=request.trace_id)
        raw = encode_request(request).encode("utf-8")
        if request.op == "shutdown":
            # flag before the workers can exit: their sentinels firing
            # must read as expected exits, not crashes to restart
            self._stopping = True
            self._held.extend(
                (index, gather, raw) for index in range(self.workers))
            return
        for index in range(self.workers):
            try:
                self._send(client, index, gather, raw)
            except ServiceError as exc:
                self._gather_reply(gather, index, error_response(exc))

    def _release_held(self) -> None:
        """Send each held ``shutdown`` whose worker has answered
        everything already forwarded to it, on the router's channel.

        No new work is forwarded once a shutdown is under way, so
        in-flight counts only fall and every hold ends."""
        held, self._held = self._held, []
        for index, gather, raw in held:
            if any(channel.pending
                   for channel in self._fleet[index].channels):
                self._held.append((index, gather, raw))
                continue
            try:
                self._send(self._router, index, gather, raw)
            except ServiceError as exc:
                self._gather_reply(gather, index, error_response(exc))

    # ------------------------------------------------------------------
    # channels
    # ------------------------------------------------------------------
    def _send(self, client: _ClientConn, index: int,
              entry: Union[_Slot, _Gather], raw: bytes) -> None:
        """Forward one request line on ``client``'s channel to worker
        ``index``, opening the channel on first use; ``entry`` is where
        the reply goes."""
        channel = client.channels.get(index)
        if channel is None:
            channel = self._open_channel(client, index)
        channel.pending.append(entry)
        channel.send += raw
        self._flush_channel(channel)

    def _open_channel(self, client: _ClientConn,
                      index: int) -> _Channel:
        worker = self._fleet[index]
        if worker.process is None or not worker.process.is_alive():
            # a failed respawn leaves the slot vacant
            raise ServiceError(f"worker {index} is unavailable")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # the router never waits on a connect: the first request
            # sits in ``send`` until the socket turns writable
            error = sock.connect_ex(("127.0.0.1", worker.port))
            if error not in (0, errno.EINPROGRESS):
                raise OSError(error, os.strerror(error))
            channel = _Channel(sock, index, client)
            self._selector.register(sock, selectors.EVENT_READ,
                                    ("channel", channel))
        except OSError as exc:
            sock.close()
            raise ServiceError(
                f"worker {index} is unavailable: {exc}") from exc
        worker.channels.add(channel)
        client.channels[index] = channel
        return channel

    def _flush_channel(self, channel: _Channel) -> None:
        try:
            while channel.send:
                sent = channel.sock.send(channel.send)
                del channel.send[:sent]
        except BlockingIOError:
            pass
        except OSError:
            # the worker's end is gone; the read side reports it
            channel.send.clear()
        events = selectors.EVENT_READ
        if channel.send:
            events |= selectors.EVENT_WRITE
        elif channel.draining:
            self._half_close(channel)
        self._selector.modify(channel.sock, events, ("channel", channel))

    def _half_close(self, channel: _Channel) -> None:
        # the worker answers what it has read, then sees EOF and closes
        try:
            channel.sock.shutdown(socket.SHUT_WR)
        except OSError:  # pragma: no cover - reset; the read side reports
            pass

    def _channel_event(self, channel: _Channel, events: int) -> None:
        if channel.closed:  # retired earlier in this select batch
            return
        if events & selectors.EVENT_WRITE and channel.send:
            self._flush_channel(channel)
        if not events & selectors.EVENT_READ:
            return
        try:
            data = channel.sock.recv(262144)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._drop_channel(channel, ServiceError(
                f"worker {channel.index} closed the connection before "
                f"answering -- idempotent calls may be retried"
            ))
            return
        channel.recv += data
        self._replies(channel)

    def _replies(self, channel: _Channel) -> None:
        while b"\n" in channel.recv:
            line, channel.recv = channel.recv.split(b"\n", 1)
            if line.strip():
                self._reply(channel, line + b"\n")

    def _reply(self, channel: _Channel, raw: bytes) -> None:
        if not channel.pending:  # pragma: no cover - protocol violation
            log_event(_cluster_logger, logging.WARNING,
                      "unmatched-worker-reply", worker=channel.index)
            return
        entry = channel.pending.popleft()
        if isinstance(entry, _Slot):
            if not channel.client.closed:
                self._emit(channel.client, entry, raw)
            return
        try:
            response = decode_response(raw.decode("utf-8",
                                                  errors="replace"))
        except ProtocolError as exc:  # pragma: no cover - broken worker
            response = error_response(exc)
        self._gather_reply(entry, channel.index, response)

    def _gather_reply(self, gather: _Gather, index: int,
                      response: Response) -> None:
        gather.replies[index] = response
        gather.missing -= 1
        if gather.missing == 0:
            self._finish_gather(gather)

    def _drop_channel(self, channel: _Channel, exc: ServiceError) -> None:
        """Retire a channel: deliver the replies the worker wrote before
        its end went away, then fail what it still owes with ``exc``."""
        if channel.closed:
            return
        channel.closed = True
        try:
            self._selector.unregister(channel.sock)
        except (KeyError, ValueError):  # pragma: no cover - never added
            pass
        while True:
            try:
                data = channel.sock.recv(262144)
            except OSError:
                break
            if not data:
                break
            channel.recv += data
        channel.sock.close()
        self._fleet[channel.index].channels.discard(channel)
        if channel.client.channels.get(channel.index) is channel:
            del channel.client.channels[channel.index]
        self._replies(channel)
        if not channel.pending:
            return
        failure = error_response(exc)
        line = encode_response(failure).encode("utf-8")
        while channel.pending:
            entry = channel.pending.popleft()
            if isinstance(entry, _Gather):
                self._gather_reply(entry, channel.index, failure)
            elif not channel.client.closed:
                self._emit(channel.client, entry, line)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _worker_died(self, index: int) -> None:
        """A worker's sentinel fired: fail the work in flight on every
        channel to it, then restart it (synchronously -- the brief
        router pause is the price of never routing to a vacant slot)."""
        worker = self._fleet[index]
        try:
            self._selector.unregister(worker.process.sentinel)
        except (KeyError, ValueError):
            pass
        exc = ServiceError(
            f"worker {index} died while handling the request; "
            f"it is being restarted -- idempotent calls may be retried"
        )
        for channel in list(worker.channels):
            self._drop_channel(channel, exc)
        worker.process.join(timeout=5)
        if self._stopping:
            return  # expected: workers exit after a shutdown broadcast
        log_event(
            _cluster_logger, logging.WARNING, "worker-died",
            worker=index, exitcode=worker.process.exitcode,
            restarts=worker.restarts,
        )
        try:
            self._restart(worker)
        except Exception as exc:
            # leave the slot vacant: requests routed here fail with a
            # structured error while the rest of the fleet serves on
            log_event(
                _cluster_logger, logging.ERROR, "worker-restart-failed",
                worker=index, error=str(exc),
            )

    def _restart(self, worker: _Worker) -> None:
        FAILPOINTS.hit("cluster.pre_respawn")
        worker.restarts += 1
        self._spawn(worker)
        log_event(
            _cluster_logger, logging.INFO, "worker-restarted",
            worker=worker.index, pid=worker.process.pid,
            restarts=worker.restarts,
        )

    # ------------------------------------------------------------------
    # merges
    # ------------------------------------------------------------------
    def _finish_gather(self, gather: _Gather) -> None:
        if gather.client.closed:
            return
        failure = next(
            (r for r in gather.replies if r is not None and not r.ok),
            None,
        )
        if failure is not None:
            response = Response(
                ok=False, error=failure.error, code=failure.code,
                id=gather.request.id, trace_id=gather.request.trace_id,
            )
        else:
            results = [r.result for r in gather.replies]
            merged = self._merge(gather.op, gather.request, results)
            response = Response(ok=True, result=merged,
                                id=gather.request.id,
                                trace_id=gather.request.trace_id)
        self._emit(gather.client, gather.slot,
                   encode_response(response).encode("utf-8"))

    def _merge(self, op: str, request: Request,
               results: List[Any]) -> Any:
        if op == "ping":
            return {"pong": True, "workers": self.workers}
        if op == "schemes":
            return results[0]  # every worker hosts the same registry
        if op == "list_sessions":
            names: List[str] = []
            for result in results:
                names.extend(result.get("sessions", []))
            return {"sessions": sorted(names)}
        if op == "shutdown":
            return {"stopping": True, "workers": self.workers}
        if op == "sync":
            return {
                "synced": sum(r.get("synced", 0) for r in results),
                "fsync": results[0].get("fsync"),
            }
        if op == "recover_info":
            # surface every torn WAL tail any worker dropped at boot --
            # with the per-record forensics (bytes dropped, last good
            # seq) -- so one cluster-level probe answers "did any shard
            # lose an unacknowledged tail, and how much?"
            torn_tails = [
                {"worker": i, **report}
                for i, result in enumerate(results)
                for report in result.get("recovered", [])
                if report.get("torn_tail")
            ]
            return {
                "durable": all(r.get("durable", True) for r in results),
                "cluster": True,
                "workers": self.workers,
                "torn_tails": torn_tails,
                "torn_bytes_dropped": sum(
                    int(t.get("torn_bytes_dropped", 0))
                    for t in torn_tails
                ),
                "per_worker": [
                    {"worker": i, **result}
                    for i, result in enumerate(results)
                ],
            }
        if op == "stats":
            return merge_stats(results)
        if op == "metrics":
            raw = bool(request.params.get("raw"))
            return merge_metrics(results, raw=raw)
        raise ServiceError(f"no merge for op {op!r}")  # pragma: no cover

    def _cluster_info(self) -> Dict[str, Any]:
        return {
            "cluster": True,
            "workers": self.workers,
            "restarts": sum(w.restarts for w in self._fleet),
            "per_worker": [
                {
                    "worker": w.index,
                    "pid": w.process.pid if w.process else None,
                    "port": w.port,
                    "restarts": w.restarts,
                    "alive": bool(w.process and w.process.is_alive()),
                    # open router->worker sockets, and the requests
                    # forwarded on them not yet answered
                    "channels": len(w.channels),
                    "in_flight": sum(len(c.pending) for c in w.channels),
                }
                for w in self._fleet
            ],
        }

    def _begin_shutdown(self) -> None:
        # a stop() call must bring down a quiet fleet too: the same
        # broadcast a client's ``shutdown`` makes, answered to nobody
        if not self._stopping:
            self._broadcast(self._router, _Slot(), Request(op="shutdown"))


# ---------------------------------------------------------------------------
# merge functions (module-level: tested directly)
# ---------------------------------------------------------------------------


def merge_stats(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-worker ``stats`` payloads into the cluster view.

    Every stats field is a counter, so each sums across workers; the
    per-worker payloads ride along under ``per_worker`` so dashboards
    can show both.
    """
    if not results:
        return {"workers": 0, "per_worker": []}
    merged: Dict[str, Any] = {
        key: sum(r.get(key, 0) for r in results) for key in results[0]
    }
    merged["workers"] = len(results)
    merged["per_worker"] = [
        {"worker": i, **result} for i, result in enumerate(results)
    ]
    return merged


def merge_metrics(results: List[Dict[str, Any]],
                  raw: bool = False) -> Dict[str, Any]:
    """Combine per-worker raw ``metrics`` payloads *exactly*.

    Counters sum by ``(name, labels)``.  Histograms arrive as raw
    all-integer state (the router requests ``raw: true`` from its
    workers), rebuild into :class:`HistogramSnapshot` and merge
    exactly -- the merged p50/p95/p99 are computed from the true
    combined bucket counts, not averaged from per-worker percentiles.
    Trace summaries sum their counts.
    """
    counters: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], int] = {}
    histograms: Dict[
        Tuple[str, Tuple[Tuple[str, str], ...]],
        List[HistogramSnapshot],
    ] = {}
    traces: Dict[str, Any] = {}
    for result in results:
        for entry in result.get("counters", []):
            key = (entry["name"],
                   tuple(sorted(entry.get("labels", {}).items())))
            counters[key] = counters.get(key, 0) + int(entry["value"])
        for entry in result.get("histograms", []):
            key = (entry["name"],
                   tuple(sorted(entry.get("labels", {}).items())))
            histograms.setdefault(key, []).append(
                HistogramSnapshot.from_raw(entry))
        summary = result.get("traces")
        if isinstance(summary, dict):
            for field, value in summary.items():
                if isinstance(value, (int, float)) and not isinstance(
                        value, bool):
                    if field == "slow_threshold_s":
                        traces.setdefault(field, value)
                    else:
                        traces[field] = traces.get(field, 0) + value
                else:  # pragma: no cover - no such fields today
                    traces.setdefault(field, value)
    merged_histograms = []
    for (name, labels), snapshots in sorted(histograms.items()):
        snapshot = merge_snapshots(snapshots)
        payload = snapshot.raw_dict() if raw else snapshot.to_dict()
        merged_histograms.append(
            {"name": name, "labels": dict(labels), **payload})
    return {
        "counters": [
            {"name": name, "labels": dict(labels), "value": value}
            for (name, labels), value in sorted(counters.items())
        ],
        "histograms": merged_histograms,
        "traces": traces,
        "workers": len(results),
    }
