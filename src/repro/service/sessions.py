"""Session hosting: many labeled runs living side by side.

A :class:`Session` owns everything one running workflow needs -- the
specification, a pluggable *dynamic* labeling scheme resolved by name
through :mod:`repro.schemes.registry` (DRL by default), the insertion
log and a lock serializing writers.  The log is text: one ``str`` per
applied batch, the batch's write-ahead-log record as
:func:`record_text` spells it (the events' JSON, the batch's
``start``, ``version`` and label fingerprint).  Each event is one
positional row, ``[vid, name, preds, origin, slot]``
(:func:`insertion_to_row`), and :func:`insertion_from_row` reads it
back.  A durable session's WAL writes that very object, the
replication ring holds it, and a checkpoint export copies it, so an
event is kept in one form: about 50 bytes of text inside one flat
object per batch, nothing per event for the cyclic garbage collector
to walk.  A
:class:`SessionManager` hosts many sessions under distinct names so a
single service process can track many concurrent workflow executions,
the way a workflow engine tracks many active runs.

The ``scheme`` name is wire-visible (``create_session``), persisted in
the WAL header, and validated against the registry's dynamic
capability: static schemes need the frozen run, which a live session
never has.

Concurrency model
-----------------
Each session carries a ``threading.Lock`` held for the duration of an
insertion (labeling mutates the labeler's parse tree) and a
monotonically increasing ``version`` counter, bumped once per ingest
batch.  Labels are write-once -- once a vertex is labeled its label is
final (Theorem 3) -- so readers never take the lock: a query answered
from two labels is the same whenever it runs (see
:mod:`repro.service.engine`).
"""

from __future__ import annotations

import json
import logging
import marshal
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.datasets import spec_by_name
from repro.errors import FormatError, ServiceError, SessionNotFoundError
from repro.io.jsonio import insertion_from_json
from repro.labeling.drl import Label
from repro.labeling.naive_dynamic import NaiveLabel
from repro.obs.logs import log_event
from repro.obs.metrics import default_registry, observe_gc_pauses
from repro.obs.names import ENGINE_STAGE_SECONDS, STAGE_LABEL_BUILD
from repro.obs.trace import current_trace
from repro.schemes import registry as scheme_registry
from repro.workflow.execution import Insertion
from repro.workflow.specification import Specification

_logger = logging.getLogger("repro.service.sessions")

# time spent inside the labeler assigning labels (the paper's O(1)
# amortized claim, observed): one record per ingest batch, into the
# process-default registry so standalone sessions and hosted ones land
# in the same series
_label_build_hist = default_registry().histogram(
    ENGINE_STAGE_SECONDS, stage=STAGE_LABEL_BUILD
)

# collector pauses land in the same registry: the hook is installed
# once per process, here, so every process hosting sessions reports
observe_gc_pauses()

SpecLike = Union[Specification, str]

# (session, applied events, log index of the first event, new version,
# label fingerprint, the batch's record text)
IngestHook = Callable[
    ["Session", List[Insertion], int, int, int, str], None
]

# a logged batch being replayed: (version, label fingerprint, its text)
Replayed = Tuple[int, int, str]

# one logged event: (vid, name, sorted preds, origin, slot), spelled by
# json.dumps as the array [vid, name, preds, origin, slot]
Row = Tuple[int, str, List[int], Optional[tuple], Optional[tuple]]


class FingerprintMismatch(ServiceError):
    """A replayed batch's labels do not match its record's fingerprint."""


def label_crc(labels: List[Any]) -> int:
    """CRC-32 of a batch's labels, from their values alone.

    ``marshal`` format 2 writes no back-references, so the bytes depend
    only on the values -- not on which label tuples happen to share
    sub-tuples in memory -- and the format is the same on every
    supported Python.  ``naive`` labels are dataclasses, which marshal
    refuses, so they go in as ``(index, ancestors)``.
    """
    if labels and isinstance(labels[0], NaiveLabel):
        labels = [(label.index, label.ancestors) for label in labels]
    return zlib.crc32(marshal.dumps(labels, 2))


def insertion_to_row(insertion: Insertion) -> Row:
    """An event as the log spells it: ``[vid, name, preds, origin, slot]``.

    ``preds`` is sorted, ``origin`` is ``[key, token, tv]``, ``slot`` is
    ``[token, tv]`` and an absent one is ``null``; ``json.dumps`` spells
    the tuples as arrays.  ``origin`` and ``slot`` are unpacked to their
    exact arity, so an event that cannot be logged raises here.
    """
    origin, slot = insertion.origin, insertion.slot
    if origin is not None:
        key, token, tv = origin
        origin = (key, token, tv)
    if slot is not None:
        token, tv = slot
        slot = (token, tv)
    return (
        insertion.vid, insertion.name, sorted(insertion.preds), origin, slot
    )


def insertion_from_row(event: Any) -> Insertion:
    """Rebuild a logged event: a row, or a version-2 WAL's event object.

    The inverse of :func:`insertion_to_row` on the row's JSON.  An
    execution-log object, the spelling of a version-2 WAL, goes through
    :func:`~repro.io.jsonio.insertion_from_json`.  A row of another
    arity, or whose ``preds``, ``origin`` or ``slot`` is not an array
    of its length, raises :class:`FormatError`.
    """
    if type(event) is dict:
        return insertion_from_json(event)
    if not (
        type(event) is list
        and len(event) == 5
        and type(event[2]) is list
        and (event[3] is None or type(event[3]) is list and len(event[3]) == 3)
        and (event[4] is None or type(event[4]) is list and len(event[4]) == 2)
    ):
        raise FormatError(
            f"malformed event row {event!r:.80}: expected [vid, name, "
            "[preds], [key, token, tv] or null, [token, tv] or null]"
        )
    vid, name, preds, origin, slot = event
    return Insertion(
        vid,
        name,
        frozenset(preds),
        None if origin is None else tuple(origin),
        None if slot is None else tuple(slot),
    )


def record_text(
    start: int,
    version: int,
    events: str,
    crc: int,
    trace_id: Optional[str] = None,
) -> str:
    """A logged batch as its WAL line spells it after ``{"seq": N, ``.

    ``events`` is the JSON array text of the events' rows
    (:func:`insertion_to_row`).  Prefixed with its
    ``seq``, the text is exactly ``json.dumps`` of the record ``{seq,
    start, version, events, crc[, trace_id]}`` plus a newline: the same
    keys, order and separators.  The trace id makes a WAL line joinable
    to the trace and logs of the request that produced it.
    """
    text = (
        f'"start": {start}, "version": {version}, "events": {events}, '
        f'"crc": {crc}'
    )
    if trace_id is not None:
        text += f', "trace_id": {json.dumps(trace_id)}'
    return text + "}\n"


def resolve_spec(spec: SpecLike) -> Specification:
    """Turn a spec argument into a :class:`Specification`.

    Accepts an already-built specification, the name of a bundled
    dataset (``bioaid``, ``running-example``, ``synthetic``, ...) or a
    path to a ``.json`` / ``.xml`` spec file.
    """
    if isinstance(spec, Specification):
        return spec
    try:
        return spec_by_name(spec)
    except KeyError:
        pass
    path = Path(spec)
    if not path.exists():
        from repro.datasets import builtin_spec_names

        raise ServiceError(
            f"spec {spec!r} is neither a file nor one of "
            f"{builtin_spec_names()}"
        )
    if path.suffix == ".xml":
        from repro.io import load_specification_xml

        return load_specification_xml(path)
    from repro.io import load_specification_json

    return load_specification_json(path)


class Session:
    """One hosted run: a spec, a live dynamic scheme, its insertion log."""

    def __init__(
        self,
        name: str,
        spec: Specification,
        scheme: str = "drl",
        skeleton: str = "tcl",
        mode: str = "logged",
    ) -> None:
        self.name = name
        self.spec = spec
        self.scheme_name = scheme_registry.get(scheme).name
        self.skeleton = skeleton
        self.mode = mode
        # validates the dynamic capability (ServiceError for static names)
        self.scheme = scheme_registry.open_dynamic(
            scheme, spec, skeleton=skeleton, mode=mode
        )
        self.lock = threading.Lock()
        self.version = 0
        # one record text per applied batch, in order (see record_text)
        self.log: List[str] = []
        self.closed = False
        # durability hook: called under the session lock after a batch
        # is applied and logged (see IngestHook).  The write-ahead log
        # uses it to persist every applied batch *before* the ingest
        # call returns -- if the hook raises (disk full, closed log),
        # the events stay applied in memory (labels are write-once) but
        # the caller gets the error instead of an acknowledgement.
        self.on_ingest: Optional[IngestHook] = None

    @property
    def labeler(self):
        """Back-compat alias: the scheme *is* the labeler now."""
        return self.scheme

    # ------------------------------------------------------------------
    # the writer (serialized by the session lock)
    # ------------------------------------------------------------------
    def ingest_many(
        self,
        insertions: Iterable[Insertion],
        replayed: Optional[Replayed] = None,
    ) -> int:
        """Insert a batch under one lock hold; one version bump per batch.

        Labels are write-once, so a batch cannot be rolled back: if an
        insertion is rejected mid-batch, the earlier events stay applied
        (their labels are already final and correct), the error
        propagates to the caller, and the insertion log records exactly
        what was applied -- ``len(session)`` / a checkpoint tells the
        client where to resume.  The version is bumped whenever at least
        one event was applied, including on a failed batch.

        ``replayed`` -- ``(version, crc, text)`` of a logged batch -- is
        the replay path (:func:`repro.service.wal.replay_records`): the
        batch must apply whole and relabel to the fingerprint ``crc``
        (else :class:`FingerprintMismatch`); then the session takes
        ``version`` and logs ``text`` itself, never a re-encoding.  A
        replayed batch that fails logs nothing, and its caller discards
        the session.
        """
        with self.lock:
            self._check_open()
            applied: List[Insertion] = []
            rows: List[Row] = []
            failure = None
            build_started = time.perf_counter()
            try:
                for insertion in insertions:
                    if replayed is None:
                        # spelled first: an event that cannot be logged
                        # is refused before the labeler accepts it
                        rows.append(insertion_to_row(insertion))
                    self.scheme.insert(insertion)
                    applied.append(insertion)
            except BaseException as exc:
                failure = exc
                raise
            finally:
                build_ended = time.perf_counter()
                _label_build_hist.record(build_ended - build_started)
                trace = current_trace()
                if trace is not None:
                    trace.add_span(
                        STAGE_LABEL_BUILD, build_started, build_ended
                    )
                if applied and replayed is None:
                    # the applied prefix of a failed batch is logged
                    # too: it is final in memory, so it must be durable
                    # as well
                    try:
                        self._log(applied, rows, None)
                    except Exception:
                        # never shadow the batch's own error; the hook
                        # (the WAL) poisons itself, so later ingests
                        # fail loudly rather than diverge
                        if failure is None:
                            raise
            if replayed is not None:
                self._log(applied, rows, replayed)
            return len(applied)

    def _log(
        self,
        applied: List[Insertion],
        rows: List[Row],
        replayed: Optional[Replayed],
    ) -> None:
        """Log an applied batch and hand it to :attr:`on_ingest`."""
        labels = self.scheme.labels
        crc = label_crc([labels[insertion.vid] for insertion in applied])
        start = len(self) - len(applied)
        if replayed is None:
            trace = current_trace()
            text = record_text(
                start,
                self.version + 1,
                json.dumps(rows[: len(applied)]),
                crc,
                trace.trace_id if trace is not None else None,
            )
            self.version += 1
        else:
            version, logged_crc, text = replayed
            if crc != logged_crc:
                raise FingerprintMismatch(
                    "the replayed labels do not match the record's "
                    "fingerprint"
                )
            self.version = version
        self.log.append(text)
        if self.on_ingest is not None:
            self.on_ingest(self, applied, start, self.version, crc, text)

    def _check_open(self) -> None:
        if self.closed:
            raise ServiceError(f"session {self.name!r} is closed")

    # ------------------------------------------------------------------
    # readers (lock-free: labels are write-once)
    # ------------------------------------------------------------------
    def label(self, vid: int) -> Label:
        """The final label of an already inserted vertex."""
        return self.scheme.label_of(vid)

    def __len__(self) -> int:
        return len(self.scheme.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session({self.name!r}, spec={self.spec.name!r}, "
            f"scheme={self.scheme_name!r}, vertices={len(self)}, "
            f"version={self.version})"
        )


class SessionManager:
    """Hosts many named sessions: one dict under one lock, which
    covers create, adopt, get, close, :meth:`names`, ``len`` and ``in``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}

    def create(
        self,
        name: str,
        spec: SpecLike,
        scheme: str = "drl",
        skeleton: str = "tcl",
        mode: str = "logged",
    ) -> Session:
        """Create (and register) a fresh session named ``name``."""
        specification = resolve_spec(spec)
        session = Session(
            name, specification, scheme=scheme, skeleton=skeleton, mode=mode
        )
        self.adopt(session)
        log_event(
            _logger, logging.INFO, "session-create",
            session=name, spec=specification.name, scheme=session.scheme_name,
        )
        return session

    def adopt(self, session: Session) -> Session:
        """Register an externally built session (checkpoint restore)."""
        with self._lock:
            if session.name in self._sessions:
                raise ServiceError(
                    f"session {session.name!r} already exists"
                )
            self._sessions[session.name] = session
        return session

    def get(self, name: str) -> Session:
        with self._lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise SessionNotFoundError(
                    f"no session named {name!r}"
                ) from None

    def close(self, name: str) -> Session:
        """Remove a session; its in-memory state becomes unreachable."""
        with self._lock:
            try:
                session = self._sessions.pop(name)
            except KeyError:
                raise SessionNotFoundError(
                    f"no session named {name!r}"
                ) from None
        with session.lock:
            session.closed = True
        log_event(
            _logger, logging.INFO, "session-close",
            session=name, vertices=len(session), version=session.version,
        )
        return session

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._sessions

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
