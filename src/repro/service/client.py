"""A blocking JSON-lines client for the service, with pipelining.

Thin by design: one socket, remote failures re-raised as the same
:mod:`repro.errors` classes the library raises in process (via the
protocol's error-code mapping), so code written against the in-process
API ports to the remote service unchanged.

Two calling conventions share the connection:

* :meth:`ServiceClient.call` -- one request, one response, in order;
* :meth:`ServiceClient.pipeline` -- many requests written back-to-back
  with a bounded in-flight window, responses matched to requests by
  ``id`` (out-of-order delivery tolerated), results returned in request
  order.  This amortizes one round trip over a whole request train;
  :meth:`query_batch` uses it to split huge batches into chunks so no
  single request exceeds the server's batch cap.

The client is not thread-safe: use one ``ServiceClient`` per thread
(connections are cheap; sessions are shared server-side).

Failover
--------
``connect_timeout`` bounds the TCP connect and ``timeout`` every
subsequent read/write.  When the socket dies mid-call -- a worker
restart behind a cluster router, a server bounce, a primary dying
under replication -- an *idempotent* operation
(:data:`IDEMPOTENT_OPS`: reads and pure probes, never
``ingest``/``create_session``/``close``) is transparently retried on a
fresh connection under bounded exponential backoff with jitter: the
delay starts at ``retry_backoff`` seconds, doubles per attempt up to
``retry_backoff_cap``, is jittered to 50-100% of itself (so a fleet of
clients never reconnects in lockstep), and the whole retry loop gives
up once ``retry_deadline`` seconds have elapsed.  With ``failover``
endpoints configured, each failed attempt also rotates to the next
endpoint -- a client pointed at a dead primary walks onto the promoted
replica by itself.  Non-idempotent calls and pipelines surface the
error unchanged; the caller decides whether a resend is safe (the
crash-recovery loadgen probes before resending).

Every response from a read replica carries a ``replica_lag`` object;
the client keeps the latest on :attr:`ServiceClient.last_replica_lag`
so callers can bound staleness without touching the wire format.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError

#: ops safe to retry on a fresh connection after a socket failure --
#: pure reads and probes; retrying a mutation could double-apply it.
#: ``repl_subscribe`` is a read (the applier resumes from its own
#: position), though the replication applier manages its own retry.
IDEMPOTENT_OPS = frozenset({
    "query", "query_batch", "stats", "metrics", "ping",
    "list_sessions", "schemes", "recover_info", "cluster_info",
    "repl_subscribe",
})

#: ops that change server state and are therefore never auto-retried.
#: Together the two sets partition ``protocol.OPS`` exactly -- the
#: ``ops-surface`` rule of :mod:`repro.analysis` and a unit test both
#: fail if a new op is added to the protocol without being classified
#: here (``sync`` mutates: it advances on-disk durability state;
#: ``repl_ack`` advances coverage; ``promote`` flips roles).
MUTATING_OPS = frozenset({
    "create_session", "ingest", "snapshot", "sync", "close", "shutdown",
    "repl_ack", "promote",
})

#: initial retry delay, seconds (doubles per attempt; kept under its
#: historical name -- it used to be the one fixed reconnect delay)
RECONNECT_BACKOFF = 0.05

#: ceiling on a single backoff delay, seconds
RETRY_BACKOFF_CAP = 1.0

#: total retry budget per call, seconds; once it is spent the last
#: connection error surfaces to the caller
RETRY_DEADLINE = 5.0


class _ConnectionLost(ProtocolError):
    """The server closed the connection mid-conversation.

    A :class:`ProtocolError` subclass so existing callers matching the
    historical "server closed the connection" error keep working; the
    client's retry path additionally catches it to trigger the single
    reconnect for idempotent ops.
    """
from repro.service.protocol import (
    Request,
    Response,
    decode_response,
    encode_request,
    insertions_to_wire,
    raise_for_response,
)

# default pipelined query_batch chunking: pairs per request and
# requests in flight before the client starts draining responses (the
# window bounds socket-buffer usage on both sides, avoiding the classic
# pipelining deadlock where both peers block on full write buffers)
PIPELINE_CHUNK = 1024
PIPELINE_WINDOW = 8


class ServiceClient:
    """Talks to a :class:`~repro.service.server.ReproServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_timeout: Optional[float] = None,
        reconnect: bool = True,
        retry_backoff: float = RECONNECT_BACKOFF,
        retry_backoff_cap: float = RETRY_BACKOFF_CAP,
        retry_deadline: float = RETRY_DEADLINE,
        failover: Sequence[Tuple[str, int]] = (),
    ) -> None:
        self._endpoints: List[Tuple[str, int]] = [(host, int(port))]
        for endpoint in failover:
            candidate = (endpoint[0], int(endpoint[1]))
            if candidate not in self._endpoints:
                self._endpoints.append(candidate)
        self._endpoint_index = 0
        self._host, self._port = self._endpoints[0]
        self._timeout = timeout
        self._connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self._reconnect = reconnect
        self._retry_backoff = max(0.0, retry_backoff)
        self._retry_backoff_cap = max(retry_backoff, retry_backoff_cap)
        self._retry_deadline = retry_deadline
        self._next_id = 0
        #: the latest ``replica_lag`` any response carried, if any
        self.last_replica_lag: Optional[Dict[str, Any]] = None
        self._connect_any()

    @property
    def endpoint(self) -> Tuple[str, int]:
        """The endpoint currently connected (changes under failover)."""
        return (self._host, self._port)

    def _connect_any(self) -> None:
        """Connect to the first live endpoint, rotating on refusal.

        Nothing has been sent yet, so trying the next endpoint is safe
        for every op class -- this is connection establishment, not a
        request retry.
        """
        last: Optional[Exception] = None
        for _ in self._endpoints:
            try:
                self._connect()
                return
            except OSError as exc:
                last = exc
                self._advance_endpoint()
        assert last is not None
        raise last

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout
        )
        self._sock.settimeout(self._timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8")
        self._writer = self._sock.makefile("w", encoding="utf-8")

    # ------------------------------------------------------------------
    def call(
        self, op: str, *, trace_id: Optional[str] = None, **params: Any
    ) -> Any:
        """One request/response round trip; returns the result object.

        ``trace_id`` rides on the request and is propagated through
        every server-side layer the request crosses (trace ring, logs,
        WAL records); the server mints one when the client sends none.

        If the socket dies and ``op`` is idempotent
        (:data:`IDEMPOTENT_OPS`), the client retries on fresh
        connections under exponential backoff with jitter until
        ``retry_deadline`` is spent, rotating through the ``failover``
        endpoints; mutations are never retried (a lost ack does not
        prove a lost write).
        """
        self._next_id += 1
        request = Request(
            op=op, params=params, id=self._next_id, trace_id=trace_id
        )
        try:
            return self._round_trip(request)
        except (_ConnectionLost, OSError) as exc:
            if not (self._reconnect and op in IDEMPOTENT_OPS):
                raise
            return self._retry(request, exc)

    def _retry(self, request: Request, failure: Exception) -> Any:
        """Bounded-backoff retry of one idempotent request."""
        deadline = time.monotonic() + self._retry_deadline
        attempt = 0
        while True:
            delay = min(
                self._retry_backoff_cap,
                self._retry_backoff * (2 ** attempt),
            )
            # full delay 50-100%: decorrelates a fleet of clients all
            # reconnecting after the same server bounce
            delay *= 0.5 + random.random() / 2
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise failure
            time.sleep(min(delay, max(0.0, remaining)))
            attempt += 1
            try:
                self._reopen()
                return self._round_trip(request)
            except (_ConnectionLost, OSError) as exc:
                failure = exc
                self._advance_endpoint()

    def _advance_endpoint(self) -> None:
        if len(self._endpoints) > 1:
            self._endpoint_index = (
                self._endpoint_index + 1
            ) % len(self._endpoints)
            self._host, self._port = self._endpoints[self._endpoint_index]

    def _round_trip(self, request: Request) -> Any:
        self._writer.write(encode_request(request))
        self._writer.flush()
        response = self._read_response()
        if response.id is not None and response.id != request.id:
            raise ProtocolError(
                f"response id {response.id!r} does not match "
                f"request id {request.id!r}"
            )
        return raise_for_response(response)

    def _reopen(self) -> None:
        """Drop the dead socket and connect fresh (same endpoint)."""
        try:
            self.close()
        except OSError:  # pragma: no cover - closing a dead socket
            pass
        self._connect()

    def pipeline(
        self,
        calls: Sequence[Tuple[str, Dict[str, Any]]],
        window: int = PIPELINE_WINDOW,
    ) -> List[Any]:
        """Issue many ``(op, params)`` requests pipelined on one socket.

        At most ``window`` requests are in flight at once; responses are
        matched to requests by ``id`` so an out-of-order reply is
        handled, not fatal.  Results come back in *request* order.  If
        any request failed, every response is still drained first (the
        connection stays usable), then the mapped exception of the
        earliest failure is raised.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        requests: List[Request] = []
        for op, params in calls:
            self._next_id += 1
            requests.append(Request(op=op, params=dict(params),
                                    id=self._next_id))
        responses: Dict[Any, Response] = {}
        outstanding = set()
        for request in requests:
            self._writer.write(encode_request(request))
            outstanding.add(request.id)
            if len(outstanding) >= window:
                self._writer.flush()
                self._drain_one(outstanding, responses)
        self._writer.flush()
        while outstanding:
            self._drain_one(outstanding, responses)
        return [raise_for_response(responses[r.id]) for r in requests]

    def _drain_one(self, outstanding: set, responses: Dict[Any, Response]):
        response = self._read_response()
        if response.id not in outstanding:
            raise ProtocolError(
                f"response id {response.id!r} matches no in-flight request"
            )
        outstanding.discard(response.id)
        responses[response.id] = response

    def _read_response(self) -> Response:
        line = self._reader.readline()
        if not line:
            raise _ConnectionLost("server closed the connection")
        response = decode_response(line)
        if response.replica_lag is not None:
            self.last_replica_lag = response.replica_lag
        return response

    # ------------------------------------------------------------------
    # convenience wrappers, one per operation
    # ------------------------------------------------------------------
    def create_session(
        self,
        name: str,
        spec: Optional[str] = None,
        scheme: str = "drl",
        skeleton: str = "tcl",
        mode: str = "logged",
        checkpoint: Optional[str] = None,
    ) -> Dict[str, Any]:
        params: Dict[str, Any] = {
            "name": name, "skeleton": skeleton, "mode": mode,
        }
        if checkpoint is not None:
            # the checkpoint manifest records the scheme; sending one
            # here would turn the default into a spurious mismatch
            params["checkpoint"] = checkpoint
        elif spec is not None:
            params["spec"] = spec
            params["scheme"] = scheme
        else:
            raise ProtocolError(
                "create_session needs either 'spec' or 'checkpoint'"
            )
        return self.call("create_session", **params)

    def ingest(
        self,
        session: str,
        insertions: Iterable,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        return self.call(
            "ingest",
            session=session,
            insertions=insertions_to_wire(insertions),
            trace_id=trace_id,
        )

    def query(
        self,
        session: str,
        source: int,
        target: int,
        trace_id: Optional[str] = None,
        as_of: Optional[int] = None,
    ) -> bool:
        """One reachability probe, optionally as of a past version.

        ``as_of`` answers as the session stood at that acknowledged
        version (time-travel read; needs a durable server).
        """
        params: Dict[str, Any] = {
            "session": session, "source": source, "target": target,
        }
        if as_of is not None:
            params["as_of"] = as_of
        result = self.call("query", trace_id=trace_id, **params)
        return bool(result["answer"])

    def query_batch(
        self,
        session: str,
        pairs: Sequence[Tuple[int, int]],
        chunk: Optional[int] = None,
        window: int = PIPELINE_WINDOW,
        trace_id: Optional[str] = None,
        as_of: Optional[int] = None,
    ) -> List[bool]:
        """Batched reachability; chunked and pipelined when asked.

        With ``chunk`` set (or a batch larger than the default pipeline
        chunk), the pairs are split into chunks of that size and issued
        through :meth:`pipeline`, so arbitrarily large batches respect
        the server's per-request cap while still costing roughly one
        round trip.  Answers always come back in input order.  ``as_of``
        answers every pair as the session stood at that acknowledged
        version (time-travel read).
        """
        pairs = list(pairs)
        if chunk is None and len(pairs) > PIPELINE_CHUNK:
            chunk = PIPELINE_CHUNK
        if chunk is not None and chunk < 1:
            raise ValueError("chunk must be >= 1")
        if chunk is None or len(pairs) <= chunk:
            params: Dict[str, Any] = {
                "session": session,
                "pairs": [[source, target] for source, target in pairs],
            }
            if as_of is not None:
                params["as_of"] = as_of
            result = self.call("query_batch", trace_id=trace_id, **params)
            return [bool(answer) for answer in result["answers"]]
        # pipelined chunks each carry the trace id (a top-level wire
        # field, so it rides inside the params dict unchanged)
        extra: Dict[str, Any] = (
            {"trace_id": trace_id} if trace_id is not None else {}
        )
        if as_of is not None:
            extra["as_of"] = as_of
        calls = [
            (
                "query_batch",
                {
                    "session": session,
                    "pairs": [
                        [source, target]
                        for source, target in pairs[start : start + chunk]
                    ],
                    **extra,
                },
            )
            for start in range(0, len(pairs), chunk)
        ]
        results = self.pipeline(calls, window=window)
        return [
            bool(answer)
            for result in results
            for answer in result["answers"]
        ]

    def snapshot(
        self, session: str, path: Optional[str] = None
    ) -> Dict[str, Any]:
        """Checkpoint a session; pathless makes it durable in place.

        With ``path`` the server writes a checkpoint directory there
        (works on any server).  Without it, a durable server
        (``--data-dir``) fsyncs the session's write-ahead log instead.
        """
        if path is None:
            return self.call("snapshot", session=session)
        return self.call("snapshot", session=session, path=str(path))

    def sync(self, session: Optional[str] = None) -> Dict[str, Any]:
        """Force-fsync one session's write-ahead log (or all of them).

        Upgrades already-acknowledged ingests to power-loss durability
        under the ``batch``/``never`` fsync policies; a no-op (but
        still a round trip) under ``always``.  `ServiceError` on a
        server without a data dir.
        """
        if session is None:
            return self.call("sync")
        return self.call("sync", session=session)

    def recover_info(self) -> Dict[str, Any]:
        """The server's durability state (``{"durable": false}`` if none)."""
        return self.call("recover_info")

    def list_schemes(self) -> List[Dict[str, Any]]:
        """Registered labeling backends with their capability flags."""
        return list(self.call("schemes")["schemes"])

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics snapshot plus its trace-ring summary.

        Counters and histogram summaries (count/sum/mean/min/max and
        p50/p95/p99) for every series the server records -- per-op
        request latency, engine stages, WAL append/fsync, checkpoint
        writes -- under ``counters``/``histograms``, with the tracer's
        retention summary under ``traces``.
        """
        return self.call("metrics")

    def close_session(self, session: str) -> Dict[str, Any]:
        return self.call("close", session=session)

    def list_sessions(self) -> List[str]:
        return list(self.call("list_sessions")["sessions"])

    def ping(self) -> bool:
        return bool(self.call("ping")["pong"])

    def cluster_info(self) -> Dict[str, Any]:
        """The serving topology (``{"cluster": false}`` on a plain
        server).  Behind a cluster router: ``workers``, total
        ``restarts``, and one ``per_worker`` row each with ``pid``,
        ``port``, ``restarts``, ``alive``, ``channels`` (open
        router->worker sockets: one per client addressing that
        worker) and ``in_flight`` (requests forwarded to that worker
        and not yet answered)."""
        return self.call("cluster_info")

    def shutdown_server(self) -> Dict[str, Any]:
        return self.call("shutdown")

    def repl_subscribe(
        self,
        from_seq: int,
        epoch: int = 0,
        replica_id: Optional[str] = None,
        wait: float = 1.0,
    ) -> Dict[str, Any]:
        """Long-poll the primary's replication stream from a position.

        Returns either ``{"records": [...], "seq", "epoch"}`` or, when
        ``from_seq`` fell off the primary's in-memory ring (or is
        negative), ``{"reset": true, "seq", "epoch", "snapshot"}`` --
        a full-state resync point.  Used by the replica applier; also
        handy for tailing the stream in tooling.
        """
        params: Dict[str, Any] = {
            "from_seq": from_seq, "epoch": epoch, "wait": wait,
        }
        if replica_id is not None:
            params["replica_id"] = replica_id
        return self.call("repl_subscribe", **params)

    def repl_ack(
        self, replica_id: str, seq: int, epoch: int = 0
    ) -> Dict[str, Any]:
        """Report a replica's applied position to the primary."""
        return self.call(
            "repl_ack", replica_id=replica_id, seq=seq, epoch=epoch
        )

    def promote(self, epoch: Optional[int] = None) -> Dict[str, Any]:
        """Promote a replica to primary under a bumped fencing epoch.

        The server bumps its epoch durably (to ``epoch`` when given,
        else one past its current) before accepting writes; the old
        primary, if it resurfaces, is fenced on first contact.
        """
        if epoch is None:
            return self.call("promote")
        return self.call("promote", epoch=epoch)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection (the server keeps running)."""
        for stream in (self._reader, self._writer):
            try:
                stream.close()
            except OSError:  # pragma: no cover - best effort
                pass
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
