"""Session hosting: many labeled runs living side by side.

A :class:`Session` owns everything one running workflow needs -- the
specification, a pluggable *dynamic* labeling scheme resolved by name
through :mod:`repro.schemes.registry` (DRL by default), the raw
insertion log (kept for checkpointing) and a lock serializing writers.
A :class:`SessionManager` hosts many sessions under distinct names so a
single service process can track many concurrent workflow executions,
the way a workflow engine tracks many active runs.

The ``scheme`` name is wire-visible (``create_session``), persisted in
checkpoints, and validated against the registry's dynamic capability:
static schemes need the frozen run, which a live session never has.

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

import logging
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.datasets import spec_by_name
from repro.errors import ServiceError, SessionNotFoundError
from repro.labeling.drl import Label
from repro.obs.logs import log_event
from repro.obs.metrics import default_registry
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

SpecLike = Union[Specification, str]

# (session, applied events, log index of the first event, new version)
IngestHook = Callable[["Session", List[Insertion], int, int], None]


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
        self.log: List[Insertion] = []
        self.closed = False
        # durability hook: called under the session lock after a batch
        # is applied, with (session, applied events, log index of the
        # first event, new version).  The write-ahead log uses it to
        # persist every applied insertion *before* the ingest call
        # returns -- if the hook raises (disk full, closed log), the
        # events stay applied in memory (labels are write-once) but the
        # caller gets the error instead of an acknowledgement.
        self.on_ingest: Optional[IngestHook] = None

    @property
    def labeler(self):
        """Back-compat alias: the scheme *is* the labeler now."""
        return self.scheme

    # ------------------------------------------------------------------
    # writers (serialized by the session lock)
    # ------------------------------------------------------------------
    def ingest(self, insertion: Insertion) -> Label:
        """Insert one vertex; its label is final immediately."""
        with self.lock:
            self._check_open()
            label = self.scheme.insert(insertion)
            self.log.append(insertion)
            self.version += 1
            if self.on_ingest is not None:
                self.on_ingest(
                    self, [insertion], len(self.log) - 1, self.version
                )
            return label

    def ingest_many(self, insertions: Iterable[Insertion]) -> int:
        """Insert a batch under one lock hold; one version bump per batch.

        Labels are write-once, so a batch cannot be rolled back: if an
        insertion is rejected mid-batch, the earlier events stay applied
        (their labels are already final and correct), the error
        propagates to the caller, and the insertion log records exactly
        what was applied -- ``len(session)`` / a checkpoint tells the
        client where to resume.  The version is bumped whenever at least
        one event was applied, including on a failed batch.
        """
        with self.lock:
            self._check_open()
            count = 0
            failure = None
            build_started = time.perf_counter()
            try:
                for insertion in insertions:
                    self.scheme.insert(insertion)
                    self.log.append(insertion)
                    count += 1
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
                if count:
                    self.version += 1
                    if self.on_ingest is not None:
                        # the applied prefix of a failed batch is logged
                        # too: it is final in memory, so it must be
                        # durable as well
                        try:
                            self.on_ingest(
                                self,
                                self.log[-count:],
                                len(self.log) - count,
                                self.version,
                            )
                        except Exception:
                            # never shadow the batch's own error; the
                            # hook (the WAL) poisons itself, so later
                            # ingests fail loudly rather than diverge
                            if failure is None:
                                raise
            return count

    def _check_open(self) -> None:
        if self.closed:
            raise ServiceError(f"session {self.name!r} is closed")

    # ------------------------------------------------------------------
    # readers (lock-free: labels are write-once)
    # ------------------------------------------------------------------
    def label(self, vid: int) -> Label:
        """The final label of an already inserted vertex."""
        return self.scheme.label_of(vid)

    def snapshot_state(self) -> Tuple[int, Dict[int, Label], List[Insertion]]:
        """A consistent ``(version, labels, log)`` copy for checkpointing."""
        with self.lock:
            return self.version, dict(self.scheme.labels), list(self.log)

    def __len__(self) -> int:
        return len(self.scheme.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session({self.name!r}, spec={self.spec.name!r}, "
            f"scheme={self.scheme_name!r}, vertices={len(self)}, "
            f"version={self.version})"
        )


class SessionManager:
    """Hosts many named sessions; thread-safe create/get/close.

    The registry is lock-striped across ``shards`` independent
    ``(lock, dict)`` slices keyed by CRC-32 of the name (stable across
    processes, unlike the salted builtin ``hash()``, and therefore the
    same stripe layout the cluster's session router uses), so
    create/get/close on *different* sessions never contend on one
    mutex.  Cross-shard views (:meth:`names`, ``len``) take each shard
    lock in turn; they are monitoring surfaces and need no global
    atomicity.
    """

    DEFAULT_SHARDS = 8

    def __init__(self, shards: int = DEFAULT_SHARDS) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self._locks = [threading.Lock() for _ in range(shards)]
        self._tables: List[Dict[str, Session]] = [{} for _ in range(shards)]

    @property
    def shards(self) -> int:
        return len(self._tables)

    def _slot(self, name: str) -> Tuple[threading.Lock, Dict[str, Session]]:
        index = zlib.crc32(name.encode("utf-8")) % len(self._tables)
        return self._locks[index], self._tables[index]

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
        lock, table = self._slot(session.name)
        with lock:
            if session.name in table:
                raise ServiceError(
                    f"session {session.name!r} already exists"
                )
            table[session.name] = session
        return session

    def get(self, name: str) -> Session:
        lock, table = self._slot(name)
        with lock:
            try:
                return table[name]
            except KeyError:
                raise SessionNotFoundError(
                    f"no session named {name!r}"
                ) from None

    def close(self, name: str) -> Session:
        """Remove a session; its in-memory state becomes unreachable."""
        lock, table = self._slot(name)
        with lock:
            try:
                session = table.pop(name)
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
        collected: List[str] = []
        for lock, table in zip(self._locks, self._tables):
            with lock:
                collected.extend(table)
        return sorted(collected)

    def __contains__(self, name: str) -> bool:
        lock, table = self._slot(name)
        with lock:
            return name in table

    def __len__(self) -> int:
        total = 0
        for lock, table in zip(self._locks, self._tables):
            with lock:
                total += len(table)
        return total
