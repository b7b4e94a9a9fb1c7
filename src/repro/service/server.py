"""The service process: protocol dispatch over TCP or stdio.

:class:`ReproService` is the transport-independent core -- it owns a
:class:`SessionManager` and a :class:`QueryEngine` and turns one
decoded :class:`Request` into one :class:`Response`.  Two transports
drive it:

* :class:`ReproServer`, a ``socketserver.ThreadingTCPServer`` speaking
  the JSON-lines protocol, one handler thread per connection (sessions
  are shared across connections; the session and engine locks make the
  shared state safe);
* :func:`serve_stdio`, the same loop over a file pair, for subprocess
  embedding and piping recorded executions through ``repro serve``.

A ``shutdown`` request stops the TCP server gracefully: in-flight
requests finish, then ``serve_forever`` returns; ``server_close`` then
ends every open connection the same way.

Observability
-------------
Every request is traced (:mod:`repro.obs.trace`): the service starts a
:class:`~repro.obs.trace.Trace` from the request's ``trace_id`` (or
mints one), activates it on the handler thread so the engine, sessions
and WAL attach their span timings, records the request's latency into
the per-op ``repro_op_latency_seconds`` histogram plus an ok/error
``repro_requests_total`` counter, echoes the id on the response, and
hands the finished trace to a :class:`~repro.obs.trace.Tracer` that
keeps bounded rings of recent and slow traces and emits the structured
slow-query log.  The ``metrics`` op returns the registry snapshot and
the tracer summary; ``repro serve --metrics-port`` serves the same
registry as Prometheus text.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
import time
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.errors import LabelingError, ProtocolError, ServiceError
from repro.faults import FAILPOINTS
from repro.obs.logs import log_event
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.names import OP_LATENCY_SECONDS, REQUESTS_TOTAL
from repro.obs.trace import DEFAULT_SLOW_THRESHOLD, Tracer, activate
from repro.service.engine import QueryEngine
from repro.service.replication import ReplicaApplier, ReplicationHub
from repro.service.wal import (
    DurableStore,
    checkpoint_session,
    restore_session,
)
from repro.service.protocol import (
    MAX_BATCH,
    Request,
    Response,
    check_batch_size,
    decode_request,
    encode_response,
    error_response,
    insertions_from_wire,
)
from repro.service.sessions import SessionManager

DEFAULT_PORT = 7464  # "RL" on a phone keypad, roughly

# a query_batch payload: a list of [source, target] pairs of ints
# (exact types -- JSON true/false must not pass as vertex ids 1/0)
_PAIR_TYPES = (list, tuple)
_PAIRS_SHAPE = "'pairs' must be a list of [source, target] vertex ids"

_server_logger = logging.getLogger("repro.service.server")


class ReproService:
    """Dispatches protocol requests against hosted sessions.

    ``max_batch`` caps the payload size of one ``query_batch``/``ingest``
    request -- larger batches get a structured ``protocol`` error
    telling the client to pipeline chunks.

    ``data_dir`` mounts the durability layer (:mod:`repro.service.wal`):
    every session found under it is recovered on construction (WAL
    replay), and every subsequent ingest is logged to a per-session
    write-ahead log under the ``fsync`` policy before it is
    acknowledged.  Call :meth:`close` when done so the WALs flush.

    Replication (:mod:`repro.service.replication`): every durable
    server owns a :class:`ReplicationHub` and can serve
    ``repl_subscribe`` as a primary.  ``replicate_from`` instead starts
    the server as a read replica of that ``(host, port)`` primary --
    client mutations are rejected until a ``promote`` flips the role
    under a bumped fencing epoch.  ``repl_min_acks`` makes ingest
    acknowledgements semi-synchronous: each waits until that many
    replicas cover the batch's ship position, which is the zero-acked-
    loss-under-promotion guarantee.  A durable server answers ``as_of``
    reads for any version it acknowledged, from the WAL's record of
    what each version covered.
    """

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        engine: Optional[QueryEngine] = None,
        max_batch: int = MAX_BATCH,
        data_dir: Optional[str] = None,
        fsync: str = "always",
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
        replicate_from: Optional[Tuple[str, int]] = None,
        repl_peers: Sequence[Tuple[str, int]] = (),
        repl_min_acks: int = 0,
        replica_id: Optional[str] = None,
    ) -> None:
        self.manager = manager or SessionManager()
        self.metrics = metrics if metrics is not None else default_registry()
        self.tracer = tracer or Tracer(slow_threshold=slow_threshold)
        self.engine = engine or QueryEngine(self.manager, metrics=self.metrics)
        self.max_batch = max_batch
        self.shutdown_requested = threading.Event()
        self.store: Optional[DurableStore] = None
        self.hub: Optional[ReplicationHub] = None
        self.applier: Optional[ReplicaApplier] = None
        self.read_only = False
        self._repl_min_acks = max(0, int(repl_min_acks))
        if replicate_from is not None and data_dir is None:
            raise ServiceError(
                "--replicate-from needs --data-dir: a replica applies "
                "the shipped WAL into its own durable store"
            )
        if data_dir is not None:
            self.store = DurableStore(data_dir, fsync=fsync)
            self.store.recover(self.manager)
            if replicate_from is None:
                self.hub = ReplicationHub(
                    self.manager, self.store, min_acks=self._repl_min_acks
                )
            else:
                self.read_only = True
                self.applier = ReplicaApplier(
                    self.manager,
                    self.store,
                    primary=replicate_from,
                    peers=repl_peers,
                    replica_id=replica_id,
                )
                self.applier.start()
        self._ops: Dict[str, Callable[[Request], Any]] = {
            "create_session": self._op_create_session,
            "ingest": self._op_ingest,
            "query": self._op_query,
            "query_batch": self._op_query_batch,
            "snapshot": self._op_snapshot,
            "sync": self._op_sync,
            "recover_info": self._op_recover_info,
            "schemes": self._op_schemes,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "close": self._op_close,
            "list_sessions": self._op_list_sessions,
            "ping": self._op_ping,
            "shutdown": self._op_shutdown,
            "cluster_info": self._op_cluster_info,
            "repl_subscribe": self._op_repl_subscribe,
            "repl_ack": self._op_repl_ack,
            "promote": self._op_promote,
        }
        # per-op instruments, pre-bound so the hot path never touches
        # the registry's lock; "unknown" absorbs bad op names
        self._op_instruments: Dict[str, tuple] = {}
        for op in (*self._ops, "unknown"):
            self._op_instruments[op] = (
                self.metrics.histogram(OP_LATENCY_SECONDS, op=op),
                self.metrics.counter(
                    REQUESTS_TOTAL, op=op, status="ok"
                ),
                self.metrics.counter(
                    REQUESTS_TOTAL, op=op, status="error"
                ),
            )

    def close(self) -> None:
        """Stop the applier and flush/close every WAL."""
        if self.applier is not None:
            self.applier.stop()
            self.applier = None
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Answer one request; any failure becomes a failure response.

        Library errors keep their mapped code; anything else (a bad
        parameter shape the op handler tripped over, an OS error from a
        checkpoint path...) is reported as the generic ``error`` code so
        one poisoned request can never kill the connection or, under
        stdio, the whole server process.

        The request runs under an active trace (the client's
        ``trace_id`` or a fresh one), its latency lands in the per-op
        histogram and ok/error counter either way, and the response
        echoes the trace id so the client can join logs and traces.
        """
        trace = self.tracer.start(request.op, trace_id=request.trace_id)
        trace.session = request.params.get("session")
        instruments = self._op_instruments.get(
            request.op, self._op_instruments["unknown"]
        )
        latency, ok_total, err_total = instruments
        started = time.perf_counter()
        try:
            with activate(trace):
                handler = self._ops.get(request.op)
                if handler is None:
                    raise ProtocolError(f"unknown op {request.op!r}")
                response = Response(
                    ok=True, result=handler(request), id=request.id
                )
            status = "ok"
        except Exception as exc:
            # error_response maps ReproError subclasses to their wire
            # codes and anything else to the generic 'error' code
            response = error_response(exc, request.id)
            status = "error"
            log_event(
                _server_logger, logging.WARNING, "request-error",
                op=request.op, code=response.code, error=response.error,
                trace_id=trace.trace_id,
            )
        finally:
            latency.record(time.perf_counter() - started)
            (ok_total if status == "ok" else err_total).inc()
            self.tracer.finish(trace, status=status)
        response.trace_id = trace.trace_id
        applier = self.applier
        if applier is not None:
            # every response from a replica carries its staleness
            response.replica_lag = applier.lag()
        return response

    def handle_line(self, line: str) -> str:
        """Answer one raw protocol line with one raw response line."""
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            return encode_response(error_response(exc))
        return encode_response(self.handle(request))

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _check_writable(self, op: str) -> None:
        if self.read_only:
            primary = ""
            if self.applier is not None:
                host, port = self.applier.primary
                primary = f"; write to the primary at {host}:{port}"
            raise ServiceError(
                f"op {op!r} rejected: this server is a read "
                f"replica{primary}"
            )

    def _op_create_session(self, request: Request) -> Dict[str, Any]:
        self._check_writable("create_session")
        name = request.require("name")
        checkpoint = request.params.get("checkpoint")
        if checkpoint is not None:
            if not isinstance(checkpoint, str):
                raise ProtocolError("'checkpoint' must be a directory path")
            session = restore_session(
                self.manager, checkpoint, name=name,
                scheme=request.params.get("scheme"),
            )
        else:
            spec = request.params.get("spec")
            if not isinstance(spec, str):
                raise ProtocolError(
                    "create_session needs 'spec' (a builtin name or "
                    "server-side file path) or 'checkpoint'"
                )
            session = self.manager.create(
                name,
                spec,
                scheme=request.params.get("scheme", "drl"),
                skeleton=request.params.get("skeleton", "tcl"),
                mode=request.params.get("mode", "logged"),
            )
        if self.store is not None:
            # durable tracking must be armed before the create is
            # acknowledged; if it cannot be, the session must not exist
            try:
                self.store.register(session)
            except Exception:
                self.manager.close(session.name)
                raise
        if self.hub is not None:
            self.hub.publish_control("create", session)
        return {
            "session": session.name,
            "spec": session.spec.name,
            "scheme": session.scheme_name,
            "vertices": len(session),
            "version": session.version,
        }

    def _op_ingest(self, request: Request) -> Dict[str, Any]:
        self._check_writable("ingest")
        name = request.require("session")
        events = request.require("insertions")
        if isinstance(events, list):
            check_batch_size(len(events), "ingest", self.max_batch)
        insertions = insertions_from_wire(events)
        count, version = self.engine.ingest(name, insertions)
        hub = self.hub
        if hub is not None and count:
            # semi-sync: acknowledge only once enough replicas cover
            # this batch's ship position (no-op with min_acks = 0).
            # The session lock is NOT held here, so replicas keep
            # bootstrapping/acking while we wait.
            hub.wait_covered(hub.seq)
        return {"ingested": count, "version": version}

    def _op_query(self, request: Request) -> Dict[str, Any]:
        source = request.require("source")
        target = request.require("target")
        # type(), not isinstance(): JSON true/false are not vertex ids
        if type(source) is not int or type(target) is not int:
            raise ProtocolError("'source' and 'target' must be vertex ids")
        as_of = request.params.get("as_of")
        if as_of is not None:
            answers = self._answer_as_of(
                request.require("session"), as_of, [(source, target)]
            )
            return {"answer": answers[0], "as_of": as_of}
        answer = self.engine.query(request.require("session"), source, target)
        return {"answer": answer}

    def _op_query_batch(self, request: Request) -> Dict[str, Any]:
        pairs = request.require("pairs")
        if not isinstance(pairs, list):
            raise ProtocolError(_PAIRS_SHAPE)
        check_batch_size(len(pairs), "query_batch", self.max_batch)
        for pair in pairs:
            if (
                type(pair) not in _PAIR_TYPES
                or len(pair) != 2
                or type(pair[0]) is not int
                or type(pair[1]) is not int
            ):
                raise ProtocolError(_PAIRS_SHAPE)
        as_of = request.params.get("as_of")
        if as_of is not None:
            answers = self._answer_as_of(
                request.require("session"), as_of, pairs
            )
            return {"answers": answers, "as_of": as_of}
        answers = self.engine.query_many(request.require("session"), pairs)
        return {"answers": answers}

    # ------------------------------------------------------------------
    # time travel: answer from the prefix a past version covered
    # ------------------------------------------------------------------
    def _answer_as_of(
        self, name: str, as_of: Any, pairs: List[Any]
    ) -> List[bool]:
        """Answer ``pairs`` as the session stood at version ``as_of``.

        An insertion only adds edges into the new vertex, so the graph
        at any version is an induced prefix of today's: reachability
        between prefix vertices never changes, and the live labels
        answer it.  A vertex born after the version has no label there.
        """
        if not isinstance(as_of, int) or isinstance(as_of, bool):
            raise ProtocolError("'as_of' must be a session version (int)")
        if self.store is None:
            raise ServiceError(
                "time-travel queries need a durable server "
                "(started without --data-dir)"
            )
        session = self.manager.get(name)
        end = self.store.log_length_at(session, as_of)
        # the labeler binds a vertex's label last, so the label map's
        # first ``end`` keys are the prefix's vertices; the set is built
        # in one C call, which no ingest thread can interleave
        prefix = set(islice(session.scheme.labels, end))
        for pair in pairs:
            for vid in pair:
                if vid not in prefix:
                    raise LabelingError(
                        f"vertex {vid} has no label as of version {as_of}"
                    )
        return session.scheme.query_many(pairs)

    def _op_snapshot(self, request: Request) -> Dict[str, Any]:
        session = self.manager.get(request.require("session"))
        target = request.params.get("path")
        if target is None:
            # on a durable server a pathless snapshot makes everything
            # the session acknowledged durable: its WAL is fsynced
            if self.store is None:
                raise ProtocolError(
                    "op 'snapshot' requires parameter 'path' "
                    "(the server has no --data-dir)"
                )
            synced = self.store.checkpoint(session)
            return {
                "path": None,
                "version": synced["checkpoint_version"],
                "vertices": synced["vertices"],
            }
        path = checkpoint_session(session, target)
        return {
            "path": str(path),
            "version": session.version,
            "vertices": len(session),
        }

    def _op_sync(self, request: Request) -> Dict[str, Any]:
        if self.store is None:
            raise ServiceError(
                "server is not durable (started without --data-dir)"
            )
        name = request.params.get("session")
        if name is not None and not isinstance(name, str):
            raise ProtocolError("'session' must be a session name")
        if name is not None:
            self.manager.get(name)  # map unknown names to no-session
        synced = self.store.sync(name)
        return {"synced": synced, "fsync": self.store.fsync}

    def _op_recover_info(self, request: Request) -> Dict[str, Any]:
        if self.store is None:
            return {"durable": False}
        info = self.store.info()
        info["replication"] = self._replication_info()
        return info

    def _replication_info(self) -> Dict[str, Any]:
        """The ``replication`` block of ``recover_info``."""
        applier = self.applier
        if applier is not None:
            block = applier.lag()
            host, port = applier.primary
            block["primary"] = f"{host}:{port}"
            block["replica_id"] = applier.replica_id
            if applier.errors:
                block["errors"] = list(applier.errors)
            block["fenced"] = self.store.fenced if self.store else False
            return block
        hub = self.hub
        if hub is None:
            return {"role": "none"}
        block = hub.lag_table()
        block["role"] = "primary"
        block["epoch"] = hub.epoch
        block["fenced"] = self.store.fenced if self.store else False
        return block

    def _op_schemes(self, request: Request) -> Dict[str, Any]:
        from repro.schemes import registry as scheme_registry

        return {"schemes": scheme_registry.describe()}

    def _op_stats(self, request: Request) -> Dict[str, Any]:
        return self.engine.stats().to_dict()

    def _op_metrics(self, request: Request) -> Dict[str, Any]:
        # raw=true ships the full integer histogram state instead of
        # summaries -- what a cluster router asks its workers for so
        # per-worker series merge exactly before summarizing
        snapshot = self.metrics.snapshot(
            raw=bool(request.params.get("raw"))
        )
        snapshot["traces"] = self.tracer.summary()
        return snapshot

    def _op_close(self, request: Request) -> Dict[str, Any]:
        self._check_writable("close")
        name = request.require("session")
        session = self.manager.close(name)
        if self.store is not None:
            # WAL fsync + CLOSED marker: the directory stays as the
            # run's provenance record but recovery skips it
            self.store.finalize(session)
        if self.hub is not None:
            self.hub.publish_control("close", session)
        return {"closed": session.name, "vertices": len(session)}

    def _op_list_sessions(self, request: Request) -> Dict[str, Any]:
        return {"sessions": self.manager.names()}

    def _op_ping(self, request: Request) -> Dict[str, Any]:
        return {"pong": True}

    def _op_shutdown(self, request: Request) -> Dict[str, Any]:
        self.shutdown_requested.set()
        return {"stopping": True}

    def _op_cluster_info(self, request: Request) -> Dict[str, Any]:
        # a plain in-process server is not a cluster; the router
        # answers this op itself with the real topology
        return {"cluster": False, "workers": 0}

    # ------------------------------------------------------------------
    # replication ops
    # ------------------------------------------------------------------
    def _require_hub(self) -> ReplicationHub:
        if self.store is None:
            raise ServiceError(
                "replication needs a durable server "
                "(started without --data-dir)"
            )
        if self.hub is None:
            primary = ""
            if self.applier is not None:
                host, port = self.applier.primary
                primary = f" (a replica of {host}:{port})"
            raise ServiceError(
                f"this server is not a primary{primary}; "
                "subscribe to the primary instead"
            )
        return self.hub

    def _op_repl_subscribe(self, request: Request) -> Dict[str, Any]:
        hub = self._require_hub()
        from_seq = request.require("from_seq")
        if not isinstance(from_seq, int) or isinstance(from_seq, bool):
            raise ProtocolError("'from_seq' must be an integer position")
        return hub.subscribe(
            from_seq=from_seq,
            epoch=int(request.params.get("epoch", 0)),
            replica_id=request.params.get("replica_id"),
            wait=float(request.params.get("wait", 1.0)),
        )

    def _op_repl_ack(self, request: Request) -> Dict[str, Any]:
        hub = self._require_hub()
        replica_id = request.require("replica_id")
        if not isinstance(replica_id, str):
            raise ProtocolError("'replica_id' must be a string")
        seq = request.require("seq")
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise ProtocolError("'seq' must be an integer position")
        return hub.ack(
            replica_id, seq, epoch=int(request.params.get("epoch", 0))
        )

    def _op_promote(self, request: Request) -> Dict[str, Any]:
        return self._promote(request.params.get("epoch"))

    def _promote(self, epoch: Optional[Any]) -> Dict[str, Any]:
        """Flip this replica into the primary under a bumped epoch."""
        if self.store is None:
            raise ServiceError(
                "promote needs a durable server "
                "(started without --data-dir)"
            )
        if self.applier is None:
            raise ServiceError(
                f"already a primary (epoch {self.store.epoch})"
            )
        if epoch is None:
            target_epoch = self.store.epoch + 1
        else:
            if not isinstance(epoch, int) or isinstance(epoch, bool):
                raise ProtocolError("'epoch' must be an integer")
            target_epoch = epoch
        if target_epoch <= self.store.epoch:
            raise ServiceError(
                f"promotion epoch {target_epoch} must exceed the "
                f"current epoch {self.store.epoch}"
            )
        FAILPOINTS.hit("repl.pre_promote")
        applier = self.applier
        applier.stop()
        applied = applier.position
        # the epoch bump is durable BEFORE the first write is accepted:
        # a crash right here leaves a fenced-off replica that can be
        # promoted again, never two primaries on one epoch
        self.store.set_epoch(target_epoch)
        self.applier = None
        self.read_only = False
        self.hub = ReplicationHub(
            self.manager, self.store, min_acks=self._repl_min_acks
        )
        log_event(
            _server_logger, logging.INFO, "promoted",
            epoch=target_epoch, applied=applied,
            sessions=len(self.manager),
        )
        return {
            "promoted": True,
            "epoch": target_epoch,
            "applied": applied,
            "sessions": self.manager.names(),
        }


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


class _LineHandler(socketserver.StreamRequestHandler):
    """One connection: read request lines, write response lines."""

    def handle(self) -> None:
        service: ReproService = self.server.service  # type: ignore[attr-defined]
        try:
            peer = "%s:%s" % self.client_address[:2]
        except Exception:  # pragma: no cover - exotic address families
            peer = str(self.client_address)
        log_event(
            _server_logger, logging.INFO, "connection-open", peer=peer
        )
        requests = 0
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace")
            if not line.strip():
                continue
            requests += 1
            self.wfile.write(service.handle_line(line).encode("utf-8"))
            self.wfile.flush()
            if service.shutdown_requested.is_set():
                self.server.trigger_shutdown()  # type: ignore[attr-defined]
                break
        log_event(
            _server_logger, logging.INFO, "connection-close",
            peer=peer, requests=requests,
        )


class ReproServer(socketserver.ThreadingTCPServer):
    """Threaded JSON-lines TCP server around a :class:`ReproService`:
    one handler thread per connection, each ended by :meth:`server_close`."""

    allow_reuse_address = True
    #: server_close's wait for the handlers: a long-poll may take this long
    CLOSE_TIMEOUT = ReplicationHub.MAX_WAIT + 1.0

    def __init__(self, address, service: Optional[ReproService] = None):
        self.service = service or ReproService()
        self._handlers_lock = threading.Lock()
        self._handlers: Dict[socket.socket, threading.Thread] = {}
        super().__init__(address, _LineHandler)

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        with self._handlers_lock:
            self._handlers[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._handlers_lock:  # server_close never shuts a closed socket
            self._handlers.pop(request, None)
            super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener, then each open connection's read side: its
        handler answers the request in flight, reads EOF and exits.
        Waits up to :attr:`CLOSE_TIMEOUT` for all of them."""
        super().server_close()
        with self._handlers_lock:
            handlers = list(self._handlers.items())
            for request, _ in handlers:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:  # the peer already hung up
                    pass
        deadline = time.monotonic() + self.CLOSE_TIMEOUT
        for _, thread in handlers:
            thread.join(max(0.0, deadline - time.monotonic()))

    def trigger_shutdown(self) -> None:
        """Stop ``serve_forever`` without blocking the handler thread."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve_stdio(
    service: ReproService, infile: TextIO, outfile: TextIO
) -> int:
    """Drive the protocol over a file pair until EOF or ``shutdown``."""
    for line in infile:
        if not line.strip():
            continue
        outfile.write(service.handle_line(line))
        outfile.flush()
        if service.shutdown_requested.is_set():
            break
    return 0
