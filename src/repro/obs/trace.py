"""Request tracing: trace ids, span timelines, a slow-query log.

Every protocol request gets a *trace*: a client-chosen (or
server-generated) ``trace_id``, the op, and a timeline of named spans
recorded by whichever layers the request flows through -- the engine's
query kernel, the session's label build, the WAL's append and fsync.
Traces land in a bounded in-memory ring (:meth:`Tracer.recent`);
traces slower than the tracer's threshold additionally go to the slow
ring and are dumped -- full span timeline included -- as one
structured log record on the ``repro.obs.slow`` logger (the slow-query
log).

Propagation is by ambient context, not parameter plumbing: the server
activates the request's trace on the handling thread
(:func:`activate`), and any layer below calls :func:`current_trace`
to attach spans or stamp the trace id into its own records (the WAL
writes it into every ingest record, so a durable log entry can be
joined back to the client request that caused it).  When no trace is
active every hook is a cheap ``None`` check, so in-process callers
that never start a trace pay almost nothing.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.names import SLOW_QUERY_LOGGER

_slow_logger = logging.getLogger(SLOW_QUERY_LOGGER)

# a server's slow threshold unless ``repro serve --slow-threshold`` says
# otherwise: requests slower than this many seconds are retained in the
# slow ring and dumped to the slow-query log with their span timeline
DEFAULT_SLOW_THRESHOLD = 0.5

_active = threading.local()


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (not a secret, just unique)."""
    return f"{random.getrandbits(64):016x}"


@dataclass(frozen=True)
class Span:
    """One completed span: a named slice of a trace's timeline."""

    name: str
    start_ns: int     # offset from the trace's start
    duration_ns: int
    depth: int        # nesting level; 0 = the request itself

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start_us": self.start_ns / 1e3,
            "duration_us": self.duration_ns / 1e3,
            "depth": self.depth,
        }


class Trace:
    """One request's trace: an id, an op, and its span timeline.

    Spans are recorded either with the :meth:`span` context manager
    (which tracks nesting depth) or with :meth:`add_span` (explicit
    start/end timestamps from ``time.perf_counter()``, for hot paths
    that already took the timestamps).  A trace is built by one
    handling thread; the finished, immutable view is what the tracer
    retains.
    """

    __slots__ = (
        "trace_id", "op", "started", "spans", "duration_ns", "status",
        "session", "_depth",
    )

    def __init__(self, op: str, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.op = op
        self.started = time.perf_counter()
        self.spans: List[Span] = []
        self.duration_ns = 0
        self.status = "ok"
        self.session: Optional[str] = None
        self._depth = 0

    def span(self, name: str):
        """Context manager recording one (possibly nested) span."""
        return _SpanContext(self, name)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span from two ``time.perf_counter()`` readings."""
        self.spans.append(
            Span(
                name=name,
                start_ns=max(0, int((start - self.started) * 1e9)),
                duration_ns=max(0, int((end - start) * 1e9)),
                depth=self._depth + 1,
            )
        )

    def finish(self, status: str = "ok") -> None:
        self.duration_ns = max(
            0, int((time.perf_counter() - self.started) * 1e9)
        )
        self.status = status

    @property
    def duration_seconds(self) -> float:
        return self.duration_ns / 1e9

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "op": self.op,
            "status": self.status,
            "duration_us": self.duration_ns / 1e3,
            "spans": [span.to_dict() for span in self.spans],
        }
        if self.session is not None:
            doc["session"] = self.session
        return doc


class _SpanContext:
    __slots__ = ("_trace", "_name", "_start")

    def __init__(self, trace: Trace, name: str) -> None:
        self._trace = trace
        self._name = name

    def __enter__(self) -> "_SpanContext":
        self._trace._depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = time.perf_counter()
        trace = self._trace
        trace._depth -= 1
        trace.spans.append(
            Span(
                name=self._name,
                start_ns=max(0, int((self._start - trace.started) * 1e9)),
                duration_ns=max(0, int((end - self._start) * 1e9)),
                depth=trace._depth + 1,
            )
        )


# ---------------------------------------------------------------------------
# ambient propagation
# ---------------------------------------------------------------------------


class activate:
    """Context manager making ``trace`` the thread's current trace.

    Reentrant: activations nest, and the previous trace is restored on
    exit, so an in-process caller holding its own trace is unaffected
    by a library layer briefly activating another.
    """

    __slots__ = ("_trace", "_previous")

    def __init__(self, trace: Optional[Trace]) -> None:
        self._trace = trace

    def __enter__(self) -> Optional[Trace]:
        self._previous = getattr(_active, "trace", None)
        _active.trace = self._trace
        return self._trace

    def __exit__(self, *exc_info: Any) -> None:
        _active.trace = self._previous


def current_trace() -> Optional[Trace]:
    """The trace activated on this thread, if any."""
    return getattr(_active, "trace", None)


def current_trace_id() -> Optional[str]:
    """The active trace's id, if a trace is active."""
    trace = getattr(_active, "trace", None)
    return trace.trace_id if trace is not None else None


# ---------------------------------------------------------------------------
# the tracer: rings of recent and slow traces
# ---------------------------------------------------------------------------


class Tracer:
    """Retains recent traces and dumps slow ones to the slow-query log.

    ``capacity`` bounds the ring of recent finished traces;
    ``slow_threshold`` (seconds) decides which traces are *slow*: they
    are kept in a second, smaller ring and each emits one structured
    ``WARNING`` record -- trace id, op, duration, and the full span
    timeline -- on the ``repro.obs.slow`` logger.  ``None`` disables
    the slow log (the rings still fill).
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_capacity: int = 64,
        slow_threshold: Optional[float] = 1.0,
        logger: Optional[logging.Logger] = None,
    ) -> None:
        if capacity < 1 or slow_capacity < 1:
            raise ValueError("ring capacities must be >= 1")
        self.slow_threshold = slow_threshold
        self._logger = logger or _slow_logger
        self._lock = threading.Lock()
        self._recent: deque = deque(maxlen=capacity)
        self._slow: deque = deque(maxlen=slow_capacity)
        self._finished = 0
        self._slow_count = 0

    def start(self, op: str, trace_id: Optional[str] = None) -> Trace:
        """Begin a trace (the caller finishes it via :meth:`finish`)."""
        return Trace(op, trace_id=trace_id)

    def finish(self, trace: Trace, status: str = "ok") -> None:
        """Close a trace, retain it, and slow-log it if over threshold."""
        trace.finish(status=status)
        threshold = self.slow_threshold
        slow = (
            threshold is not None
            and trace.duration_seconds >= threshold
        )
        with self._lock:
            self._recent.append(trace)
            self._finished += 1
            if slow:
                self._slow.append(trace)
                self._slow_count += 1
        if slow:
            document = trace.to_dict()
            document["threshold_s"] = threshold
            self._logger.warning(
                "slow-query", extra={"fields": document}
            )

    # ------------------------------------------------------------------
    def recent(self) -> List[Dict[str, Any]]:
        """The retained recent traces, oldest first."""
        with self._lock:
            return [trace.to_dict() for trace in self._recent]

    def slow(self) -> List[Dict[str, Any]]:
        """The retained slow traces, oldest first."""
        with self._lock:
            return [trace.to_dict() for trace in self._slow]

    def summary(self) -> Dict[str, Any]:
        """Counts and configuration (the ``metrics`` op's trace block)."""
        with self._lock:
            return {
                "finished": self._finished,
                "retained": len(self._recent),
                "slow": self._slow_count,
                "slow_retained": len(self._slow),
                "slow_threshold_s": self.slow_threshold,
            }
