"""The JSON-lines wire protocol of the provenance query service.

Every message is one JSON object per line.  Requests carry an ``op``,
an optional client-chosen ``id`` (echoed back verbatim) and op-specific
parameters; responses carry ``ok`` plus either a ``result`` object or
an ``error``/``code`` pair.  Error codes map one-to-one onto the
:mod:`repro.errors` hierarchy so a remote caller can re-raise the same
exception class the library would have raised in process.

Operations::

    create_session   name, spec[, scheme, skeleton, mode, checkpoint]
    ingest           session, insertions=[event...]   (one or many)
    query            session, source, target
    query_batch      session, pairs=[[v, w]...]
    snapshot         session[, path]  (pathless: fsync the session's WAL)
    sync             [session]        (fsync the write-ahead log(s))
    recover_info     (durability state: WALs, recovery reports)
    schemes          (lists the registered labeling backends)
    stats
    metrics          (latency histograms, counters, trace summary)
    close            session
    list_sessions
    ping
    shutdown
    cluster_info     (process topology: workers, pids, ports, restarts)
    repl_subscribe   from_seq[, epoch, replica_id, wait, token]  (ship WAL records)
    repl_ack         replica_id, seq[, epoch, token]  (replica coverage ack)
    promote          [epoch]  (replica -> primary; fences older epochs)

``scheme`` selects the session's labeling backend by registry name
(``drl`` by default); ``schemes`` returns every registered backend with
its capability flags so clients can discover which names are dynamic
(hostable in a session) before opening one.

Durability
----------
A server started with ``--data-dir`` write-ahead-logs every ingest
before acknowledging it (see :mod:`repro.service.wal`).  ``sync``
force-fsyncs one session's WAL (or all of them), upgrading
acknowledgements to power-loss durability under the ``batch``/``never``
fsync policies; ``recover_info`` reports the durability state -- fsync
policy, per-session WAL positions, and what boot-time
recovery found (including any torn WAL tail it dropped).  On a server
without a data dir ``sync`` is a ``service`` error and ``recover_info``
answers ``{"durable": false}``.

Pipelining
----------
Requests on one connection are answered strictly in order, one response
line per request line, and the client-chosen ``id`` is echoed back
verbatim -- so a client may write many requests before reading any
response and match responses to requests by ``id``, tolerating
out-of-order delivery from relays or future servers.
:meth:`repro.service.client.ServiceClient.pipeline` implements this
with a bounded in-flight window, and ``query_batch`` uses it to split
huge batches into pipelined chunks (one round trip amortized over the
whole batch).  Batch payloads (``query_batch`` pairs, ``ingest``
events) are capped at :data:`MAX_BATCH` items per request by default;
an oversized batch is a structured ``protocol`` error, never a dropped
connection.

Tracing
-------
Any request may carry a ``trace_id`` (a short opaque string); the
server propagates it through the engine, the session layer and -- on a
durable server -- into the write-ahead-log records the request caused,
echoes it on the response, and retains the request's span timeline in
its in-memory trace ring (see :mod:`repro.obs.trace`).  A request
without one gets a server-generated id, so every response/trace/WAL
record is joinable either way.  The ``metrics`` op returns the full
counter/histogram snapshot (per-op latency percentiles included) plus
a trace-ring summary; the same registry renders the Prometheus text
exposition behind ``repro serve --metrics-port``.

Clustering
----------
The same wire protocol is served unchanged by a multi-process cluster
(``repro serve --workers N``; :mod:`repro.service.cluster`): a router
forwards each session-scoped request to the worker process owning that
session (a stable hash of the session name) and broadcasts fan-out ops
(``schemes``/``stats``/``metrics``/``list_sessions``/``recover_info``/
``sync``/``ping``/``shutdown``) to every worker, merging the answers --
``metrics`` merges the workers' all-integer histogram state *exactly*.
``cluster_info`` reports the topology (a plain server answers
``{"cluster": false}``); ``metrics`` accepts ``raw: true`` to return
full integer histogram state instead of summaries (what the router
asks its workers for).  A request naming *several* sessions owned by
different workers (a ``session`` list) is rejected with a structured
``protocol`` error: cross-worker requests have no single owner.

Replication
-----------
A durable server can ship its WAL stream to read replicas (see
:mod:`repro.service.replication`): a replica long-polls
``repl_subscribe`` (``from_seq`` is the global ship position; the
response either carries the next records or ``reset`` plus a full
snapshot when the position fell off the primary's ring), applies them
into its own durable store, and reports coverage with ``repl_ack``.
Every response from a replica carries a top-level ``replica_lag``
object (``applied`` position, ``epoch``, ``role``) so staleness is
wire-visible on every read.  ``promote`` flips a replica into a
primary under a bumped fencing *epoch*; any server contacted with a
higher epoch than its own fences itself and rejects further ingests,
which is what makes a zombie primary harmless.  ``query`` and
``query_batch`` accept an optional ``as_of`` session version: a durable
server answers from the insertion-log prefix that version covered, for
any version it acknowledged -- time-travel reads.

Insertion events use the exact execution-log JSON schema of
:func:`repro.io.jsonio.insertion_to_json`, so a recorded execution file
can be streamed to the service without transformation.  ``ingest``
holds them to its types: vertex ids, predecessor ids and the origin's
and slot's ``token``/``tv`` are JSON integers (not ``true``, not
``1.0``), the name and the origin's ``key`` are strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Type

from repro import _lazy_exports
from repro.errors import (
    DerivationError,
    ExecutionError,
    GraphError,
    LabelingError,
    ProtocolError,
    ReproError,
    ServiceError,
    SessionNotFoundError,
    SpecificationError,
    UnsupportedWorkflowError,
)

OPS = (
    "create_session",
    "ingest",
    "query",
    "query_batch",
    "snapshot",
    "sync",
    "recover_info",
    "schemes",
    "stats",
    "metrics",
    "close",
    "list_sessions",
    "ping",
    "shutdown",
    "cluster_info",
    "repl_subscribe",
    "repl_ack",
    "promote",
)

# default per-request cap on batch payload items (query_batch pairs,
# ingest events); the server turns anything larger into a structured
# 'protocol' error instead of attempting an unbounded amount of work
MAX_BATCH = 65536


def check_batch_size(count: int, what: str, limit: int = MAX_BATCH) -> None:
    """Reject an oversized batch payload with a :class:`ProtocolError`."""
    if limit and count > limit:
        raise ProtocolError(
            f"{what} batch of {count} items exceeds the per-request "
            f"limit of {limit}; split it into pipelined chunks"
        )

# error code <-> exception class (most specific classes first so that
# code_for_exception resolves subclasses to their own code).
_CODE_TO_ERROR: Dict[str, Type[ReproError]] = {
    "no-session": SessionNotFoundError,
    "protocol": ProtocolError,
    "service": ServiceError,
    "unsupported-workflow": UnsupportedWorkflowError,
    "labeling": LabelingError,
    "execution": ExecutionError,
    "derivation": DerivationError,
    "specification": SpecificationError,
    "graph": GraphError,
    "error": ReproError,
}
_ERROR_TO_CODE = {cls: code for code, cls in _CODE_TO_ERROR.items()}


@dataclass
class Request:
    """One decoded client request."""

    op: str
    params: Dict[str, Any] = field(default_factory=dict)
    id: Optional[Any] = None
    trace_id: Optional[str] = None

    def require(self, name: str) -> Any:
        try:
            return self.params[name]
        except KeyError:
            raise ProtocolError(
                f"op {self.op!r} requires parameter {name!r}"
            ) from None


@dataclass
class Response:
    """One server reply; ``ok`` decides which payload fields are set."""

    ok: bool
    result: Any = None
    error: Optional[str] = None
    code: Optional[str] = None
    id: Optional[Any] = None
    trace_id: Optional[str] = None
    # set on every response from a read replica: {"applied": <global
    # ship position>, "epoch": <fencing epoch>, "role": "replica"}
    replica_lag: Optional[Dict[str, Any]] = None


# ---------------------------------------------------------------------------
# encoding / decoding
# ---------------------------------------------------------------------------


def encode_request(request: Request) -> str:
    """Serialize a request to one newline-terminated JSON line."""
    doc: Dict[str, Any] = {"op": request.op}
    if request.id is not None:
        doc["id"] = request.id
    if request.trace_id is not None:
        doc["trace_id"] = request.trace_id
    doc.update(request.params)
    return json.dumps(doc) + "\n"


def decode_request(line: str) -> Request:
    """Parse one request line; raises :class:`ProtocolError` when bad."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError("request must be a JSON object")
    op = doc.pop("op", None)
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    request_id = doc.pop("id", None)
    trace_id = doc.pop("trace_id", None)
    if trace_id is not None and not isinstance(trace_id, str):
        raise ProtocolError("'trace_id' must be a string")
    return Request(op=op, params=doc, id=request_id, trace_id=trace_id)


def encode_response(response: Response) -> str:
    """Serialize a response to one newline-terminated JSON line."""
    doc: Dict[str, Any] = {"ok": response.ok}
    if response.id is not None:
        doc["id"] = response.id
    if response.trace_id is not None:
        doc["trace_id"] = response.trace_id
    if response.replica_lag is not None:
        doc["replica_lag"] = response.replica_lag
    if response.ok:
        doc["result"] = response.result
    else:
        doc["error"] = response.error
        doc["code"] = response.code
    return json.dumps(doc) + "\n"


def decode_response(line: str) -> Response:
    """Parse one response line; raises :class:`ProtocolError` when bad."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"response is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "ok" not in doc:
        raise ProtocolError("response must be a JSON object with 'ok'")
    return Response(
        ok=bool(doc["ok"]),
        result=doc.get("result"),
        error=doc.get("error"),
        code=doc.get("code"),
        id=doc.get("id"),
        trace_id=doc.get("trace_id"),
        replica_lag=doc.get("replica_lag"),
    )


# ---------------------------------------------------------------------------
# error mapping
# ---------------------------------------------------------------------------


def code_for_exception(exc: BaseException) -> str:
    """The wire code of a library exception ('error' for the base)."""
    for cls in type(exc).__mro__:
        code = _ERROR_TO_CODE.get(cls)
        if code is not None:
            return code
    return "error"


def exception_for_code(code: Optional[str], message: str) -> ReproError:
    """Rebuild the library exception a failed response stands for."""
    cls = _CODE_TO_ERROR.get(code or "", ReproError)
    return cls(message)


def error_response(
    exc: BaseException, request_id: Any = None, trace_id: Optional[str] = None
) -> Response:
    """The failure response reporting ``exc`` to the client."""
    return Response(
        ok=False,
        error=str(exc),
        code=code_for_exception(exc),
        id=request_id,
        trace_id=trace_id,
    )


def raise_for_response(response: Response) -> Any:
    """Return a response's result, re-raising mapped remote failures."""
    if response.ok:
        return response.result
    raise exception_for_code(response.code, response.error or "remote error")


# the ingest payload codecs need the execution-log schema of
# repro.io.jsonio, which a cluster router (it forwards lines verbatim)
# never loads; the server and client modules that run them bind them
# at import, so no request pays for the import
__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.io.jsonio": ("insertions_from_wire", "insertions_to_wire"),
})
