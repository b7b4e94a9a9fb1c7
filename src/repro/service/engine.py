"""The query engine: batch reachability straight from the labels.

Queries are answered from two labels in O(1) (Algorithm 4), and the
labels a session maintains on the fly *are* the index: they are
write-once (Theorem 3), so an answer never goes stale and there is
nothing to cache or invalidate.  :meth:`QueryEngine.query_many` is one
pass -- resolve the session, hand the whole batch to the scheme's
``query_many`` kernel (for packed DRL a tight integer loop with the
bitset tables bound to locals; schemes without a specialized kernel
inherit the per-pair loop from the scheme base class), and account the
batch.

Failure atomicity: a batch naming an unlabeled vertex makes the kernel
raise :class:`LabelingError` before any counter is touched, so the
stats snapshot never drifts on a poisoned batch -- either the whole
batch is accounted or none of it is.  Its elapsed time is still
accounted, under the separate ``query_errors``/``query_error_seconds``
counters and the ``repro_engine_errored_seconds`` histogram, so error
storms stay visible in the latency story.

Observability (:mod:`repro.obs`): each answered batch records its
kernel time under the ``kernel`` stage histogram of the engine's
metrics registry (the process default unless one is injected;
``metrics=repro.obs.NULL`` disables the record, which is the
benchmark's uninstrumented baseline), and attaches the same interval
as a span to the request trace active on the thread, if any
(:func:`repro.obs.trace.current_trace`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import LabelingError
from repro.obs.metrics import default_registry
from repro.obs.names import (
    ENGINE_ERRORED_SECONDS,
    ENGINE_ERRORS_TOTAL,
    ENGINE_STAGE_SECONDS,
    STAGE_KERNEL,
)
from repro.obs.trace import current_trace
from repro.service.sessions import SessionManager


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of the engine's counters."""

    sessions: int
    ingested: int
    queries: int
    query_seconds: float
    ingest_seconds: float
    query_errors: int = 0
    query_error_seconds: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)


class QueryEngine:
    """Answers reachability queries over a :class:`SessionManager`."""

    def __init__(self, manager: SessionManager, metrics=None) -> None:
        self.manager = manager
        self.metrics = metrics if metrics is not None else default_registry()
        self._observe = bool(getattr(self.metrics, "enabled", True))
        self._stage_kernel = self.metrics.histogram(
            ENGINE_STAGE_SECONDS, stage=STAGE_KERNEL
        )
        self._errored_hist = self.metrics.histogram(ENGINE_ERRORED_SECONDS)
        self._errored_total = self.metrics.counter(ENGINE_ERRORS_TOTAL)
        # one lock guards the counters below; it is held for a few
        # additions per batch, never across a kernel call
        self._lock = threading.Lock()
        self._queries = 0
        self._query_seconds = 0.0
        self._ingested = 0
        self._ingest_seconds = 0.0
        self._errors = 0
        self._error_seconds = 0.0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, session_name: str, source: int, target: int) -> bool:
        """Reachability ``source ~> target`` in one session."""
        return self.query_many(session_name, [(source, target)])[0]

    def query_many(
        self, session_name: str, pairs: Iterable[Sequence[int]]
    ) -> List[bool]:
        """Answer a batch of ``(source, target)`` pairs.

        Runs without the session lock: labels are write-once, so a
        batch racing an ingest sees every vertex acknowledged before it
        started.  Raises :class:`LabelingError` when a pair names a
        vertex that has not been inserted yet, leaving the query
        counters untouched.
        """
        scheme = self.manager.get(session_name).scheme
        started = time.perf_counter()
        try:
            answers = scheme.query_many(pairs)
        except LabelingError:
            elapsed = time.perf_counter() - started
            with self._lock:
                self._errors += 1
                self._error_seconds += elapsed
            self._errored_total.inc()
            self._errored_hist.record(elapsed)
            raise
        ended = time.perf_counter()
        if self._observe:
            self._stage_kernel.record(ended - started)
        trace = current_trace()
        if trace is not None:
            trace.add_span(STAGE_KERNEL, started, ended)
        with self._lock:
            self._queries += len(answers)
            self._query_seconds += ended - started
        return answers

    # ------------------------------------------------------------------
    # ingest accounting (the write path itself lives on the session)
    # ------------------------------------------------------------------
    def ingest(self, session_name: str, insertions) -> Tuple[int, int]:
        """Ingest a batch into a session; returns ``(count, version)``.

        A batch rejected mid-flight keeps the ingest counters untouched
        (the session layer records exactly which prefix was applied);
        like the query path, the elapsed time is accounted under the
        errored histogram instead of being dropped.
        """
        session = self.manager.get(session_name)
        started = time.perf_counter()
        try:
            count = session.ingest_many(insertions)
        except Exception:
            self._errored_total.inc()
            self._errored_hist.record(time.perf_counter() - started)
            raise
        elapsed = time.perf_counter() - started
        with self._lock:
            self._ingested += count
            self._ingest_seconds += elapsed
        return count, session.version

    # ------------------------------------------------------------------
    # monitoring
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """A consistent snapshot of the counters (read under one lock)."""
        sessions = len(self.manager)
        with self._lock:
            return ServiceStats(
                sessions=sessions,
                ingested=self._ingested,
                queries=self._queries,
                query_seconds=self._query_seconds,
                ingest_seconds=self._ingest_seconds,
                query_errors=self._errors,
                query_error_seconds=self._error_seconds,
            )
