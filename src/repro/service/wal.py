"""Durable sessions: write-ahead logs, crash recovery, checkpoints.

The paper's labels are write-once and a deterministic function of the
insertion log, and an insertion only adds edges from vertices that
already exist.  So a session's insertion log *is* its whole durable
state: this module persists every acknowledged insertion and rebuilds
a session by relabeling its log.  It is the durability layer the
service mounts under a ``--data-dir``:

* :class:`WriteAheadLog` -- one append-only JSON-lines file per
  session.  The first line is a header carrying everything needed to
  rebuild the session from nothing: its name, the specification (the
  :mod:`repro.io.jsonio` schema), the scheme, skeleton and mode.  Every
  following line is one ingest batch (``seq``, the insertion-log
  position ``start`` of its first event, the session ``version`` after
  the batch, the events as positional rows ``[vid, name, preds, origin,
  slot]``, and ``crc``, a fingerprint of the labels the batch was
  assigned).  Past its
  ``{"seq": N, `` prefix a line is the session's own log entry, the
  very ``str`` :attr:`Session.log` holds
  (:func:`~repro.service.sessions.record_text`).  The fsync policy
  decides what "acknowledged" means: ``always`` fsyncs every append
  (survives power loss), ``batch`` fsyncs every ``batch_records``
  appends, and ``never`` leaves flushing to the OS (every policy
  flushes to the OS per append, so plain process death -- SIGKILL --
  never loses an acknowledged insertion under any policy).
* :class:`DurableStore` -- the per-session directory layout under the
  data dir: the WAL plus, once the session is closed, a ``CLOSED``
  marker.  ``create_session`` is acknowledged only once the header is
  durable; ``close`` fsyncs the WAL and writes the marker.
* :meth:`DurableStore.recover` -- boot-time recovery: every session
  directory without ``CLOSED`` is rebuilt by replaying its WAL through
  the recorded scheme, checking each record's label fingerprint as it
  goes.  A torn WAL tail (the crash interrupted an append) is dropped
  and reported with its resume point; the file is truncated to the
  valid prefix before new appends continue.  Replay runs with the
  cyclic garbage collector paused: it makes no cyclic garbage, so
  every collection would only re-walk the sessions being rebuilt.  A
  version-2 WAL (events as execution-log objects) still replays, and
  is then rewritten whole as version 3 before appends continue.
* :func:`checkpoint_session` / :func:`restore_session` -- a checkpoint
  is a WAL file: ``snapshot path=D`` writes ``D/wal.jsonl``, the
  header plus the session's lines, the layout of a session directory
  under a data dir; ``create_session checkpoint=D`` replays it.

Boot recovery, checkpoint import, a replica reset and a replica's
incremental apply replay records through one function,
:func:`replay_records`, which keeps each record's text as read (a
version-2 record's text is spelled anew with rows).

Time travel comes from the same log: the store keeps the
``(version, log length)`` pair of every record, so ``as_of`` reads
answer from the live labels restricted to the prefix a version covered
(labels are write-once, so the prefix's labels are the ones it had).

Lock order: a WAL lock is only ever taken *after* (or without) the
session lock, never the other way around -- ingest holds the session
lock and appends.
"""

from __future__ import annotations

import gc
import json
import logging
import math
import os
import shutil
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Sized, Tuple
from urllib.parse import quote, unquote

from repro.errors import FormatError, ReproError, ServiceError
from repro.faults import FAILPOINTS
from repro.io.jsonio import specification_from_json, specification_to_json
from repro.obs.logs import log_event
from repro.obs.metrics import default_registry
from repro.obs.names import (
    SPAN_WAL_APPEND,
    SPAN_WAL_FSYNC,
    WAL_APPEND_SECONDS,
    WAL_FSYNC_SECONDS,
)
from repro.obs.trace import current_trace
from repro.service.sessions import (
    FingerprintMismatch,
    Session,
    SessionManager,
    insertion_from_row,
    insertion_to_row,
    label_crc,  # noqa: F401 -- the WAL's record fingerprint, re-exported
    record_text,
)

FSYNC_POLICIES = ("always", "batch", "never")
DEFAULT_BATCH_RECORDS = 64

_logger = logging.getLogger("repro.service.wal")

# durability timings, into the process-default registry: append is the
# serialize+write+flush of one record, fsync is the physical sync (only
# recorded when one actually runs, so 'batch'/'never' policies show
# their true amortization)
_h_append = default_registry().histogram(WAL_APPEND_SECONDS)
_h_fsync = default_registry().histogram(WAL_FSYNC_SECONDS)

_WAL_FORMAT = "repro-wal"
# 3: each event is a row [vid, name, preds, origin, slot]; 2 spelled it
# as an execution-log object, and is still read (then rewritten as 3)
_WAL_VERSION = 3
_WAL_VERSIONS_READ = (2, _WAL_VERSION)
_WAL_FILE = "wal.jsonl"
_CLOSED = "CLOSED"
_OLD_GENERATION_PREFIX = "ckpt-"
_DIR_PREFIX = "s-"
_EPOCH = "EPOCH"
_LIFETIME = "LIFETIME"
_REPLICA = "REPLICA"
# the first document of the older four-document checkpoint format
_OLD_CHECKPOINT_MANIFEST = "manifest.json"


class TornWalError(ServiceError):
    """The WAL file is missing or torn before its header completed.

    Distinct from ordinary corruption: the header is written and
    fsynced before ``create_session`` is acknowledged, so a missing,
    empty or torn-header WAL can only be the artifact of a crash inside
    that unacknowledged create -- recovery skips the directory and the
    name may be created again.  A WAL whose header parses but carries
    the wrong format tag or version is not this: that is real
    corruption (or an older layout) and stays a hard
    :class:`ServiceError`.
    """


def check_fsync_policy(policy: str) -> str:
    """Validate an fsync policy name; returns it unchanged."""
    if policy not in FSYNC_POLICIES:
        raise ServiceError(
            f"unknown fsync policy {policy!r}; expected one of "
            f"{FSYNC_POLICIES}"
        )
    return policy


def _refuse_old_layout(directory: Path) -> None:
    """Raise if ``directory`` holds the older checkpoint-generation
    layout: its state is not in its WAL alone, so it must not be
    recovered, skipped or replaced as if it were."""
    if any(
        child.name.startswith(_OLD_GENERATION_PREFIX)
        for child in directory.iterdir()
    ):
        raise ServiceError(
            f"{directory} holds checkpoint generations from an older "
            "layout this server cannot recover; recover it with the "
            "release that wrote it, or move it away"
        )


def fsync_file(path) -> None:
    """Flush a written-and-closed file's data to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path) -> None:
    """Flush a directory's entries (renames, creates) to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - some filesystems refuse dir fsync
        pass
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# the write-ahead log file
# ---------------------------------------------------------------------------


@dataclass
class WalRecord:
    """One decoded WAL record: an acknowledged ingest batch."""

    seq: int
    start: int      # insertion-log index of the first event
    version: int    # session version after the batch
    events: List[Any]  # rows; execution-log objects in a version-2 WAL
    crc: int        # label_crc of the labels the batch was assigned
    text: str       # the line past ``{"seq": N, ``, kept as read
    trace_id: Optional[str] = None


@dataclass
class WalReplay:
    """The readable state of a WAL file, torn tail already dropped."""

    header: Dict[str, Any]
    records: List[WalRecord] = field(default_factory=list)
    valid_bytes: int = 0
    dropped: Optional[str] = None  # why the tail was dropped, if it was
    dropped_bytes: int = 0         # bytes past the valid prefix

    @property
    def next_seq(self) -> int:
        return self.records[-1].seq + 1 if self.records else 0

    @property
    def last_good_seq(self) -> Optional[int]:
        """Seq of the last intact record (``None`` for an empty log)."""
        return self.records[-1].seq if self.records else None

    @property
    def events(self) -> int:
        return sum(len(record.events) for record in self.records)


def wal_header(session: Session) -> Dict[str, Any]:
    """The header line of ``session``'s WAL: enough to rebuild it."""
    return {
        "format": _WAL_FORMAT,
        "version": _WAL_VERSION,
        "session": session.name,
        "spec": specification_to_json(session.spec),
        "scheme": session.scheme_name,
        "skeleton": session.skeleton,
        "mode": session.mode,
    }


def parse_record(line: str, seq: int) -> WalRecord:
    """Decode one record line (newline included) expected at ``seq``.

    Raises :class:`ValueError` saying what is wrong with the line.  The
    record keeps the line's text past ``{"seq": N, `` as it was read; a
    line that is valid but not spelled the way the WAL writes it (keys
    in another order, say) has that text spelled anew.
    """
    if not line.endswith("\n"):
        raise ValueError("is torn (no trailing newline)")
    try:
        doc = json.loads(line)
    except ValueError:
        raise ValueError("is not valid JSON") from None
    if (
        not isinstance(doc, dict)
        or type(doc.get("seq")) is not int
        or type(doc.get("start")) is not int
        or type(doc.get("version")) is not int
        or not isinstance(doc.get("events"), list)
        or type(doc.get("crc")) is not int
    ):
        raise ValueError("is malformed")
    if doc["seq"] != seq:
        raise ValueError(f"has seq {doc['seq']}, expected {seq}")
    prefix = f'{{"seq": {seq}, '
    if line.startswith(
        f'{prefix}"start": {doc["start"]}, "version": {doc["version"]}, '
        '"events": '
    ):
        text = line[len(prefix):]
    else:
        text = record_text(
            doc["start"], doc["version"], json.dumps(doc["events"]),
            doc["crc"], doc.get("trace_id"),
        )
    return WalRecord(
        seq, doc["start"], doc["version"], doc["events"], doc["crc"], text,
        doc.get("trace_id"),
    )


def replay_wal(path) -> WalReplay:
    """Read a WAL file, validating structure line by line.

    A missing, empty or torn header raises :class:`TornWalError`; a
    header of another format, or of a version other than 2 or 3, raises
    :class:`ServiceError`.
    Record lines are consumed while they stay well-formed (see
    :func:`parse_record`); the first violation (a torn final append, a
    truncated block) drops that line *and everything after it*,
    recording the reason in ``dropped`` and the byte length of the
    valid prefix in ``valid_bytes`` so the caller can truncate and
    resume appending.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        raise TornWalError(
            f"write-ahead log {path} does not exist"
        ) from None
    if not lines:
        raise TornWalError(f"write-ahead log {path} is empty (no header)")
    if not lines[0].endswith(b"\n"):
        raise TornWalError(
            f"write-ahead log {path} has a torn header (no trailing newline)"
        )
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise TornWalError(
            f"write-ahead log {path} has an unreadable header: {exc}"
        ) from None
    if not isinstance(header, dict):
        raise ServiceError(
            f"{path} is not a write-ahead log (its header is JSON "
            f"{type(header).__name__}, not an object)"
        )
    if header.get("format") != _WAL_FORMAT:
        raise ServiceError(
            f"{path} is not a write-ahead log "
            f"(format {header.get('format')!r})"
        )
    if header.get("version") not in _WAL_VERSIONS_READ:
        raise ServiceError(
            f"{path} is a version-{header.get('version')} write-ahead "
            f"log; this server reads versions "
            f"{' and '.join(map(str, _WAL_VERSIONS_READ))} only"
        )
    replay = WalReplay(header=header, valid_bytes=len(lines[0]))
    for index, line in enumerate(lines[1:], start=1):
        if not line.strip() and line.endswith(b"\n"):
            replay.valid_bytes += len(line)
            continue
        try:
            record = parse_record(line.decode(), replay.next_seq)
        except ValueError as exc:  # UnicodeDecodeError included
            replay.dropped = f"record line {index} {exc}"
            break
        replay.records.append(record)
        replay.valid_bytes += len(line)
    if replay.dropped is not None:
        replay.dropped_bytes = (
            sum(len(line) for line in lines) - replay.valid_bytes
        )
    return replay


def replay_records(
    session: Session, records: Iterable[WalRecord], where: str
) -> None:
    """Relabel logged batches into ``session``: the one replay path.

    Boot recovery, checkpoint import, replica reset and a replica's
    incremental apply all come here.  Each record must start where the
    session's log ends; its events are decoded
    (:func:`~repro.service.sessions.insertion_from_row`), relabeled and
    their label fingerprint checked; the session takes the record's
    version, and its text as read becomes the log entry (through
    :meth:`Session.ingest_many` with ``replayed``).  A version-2 record
    -- events as execution-log objects -- has its text spelled anew
    with rows, so the log holds one spelling.  Any failure raises
    :class:`ServiceError` naming the session, ``where`` and the record;
    the session is then unusable and the caller discards it.
    """
    for record in records:
        prefix = f"session {session.name!r}: {where} record {record.seq}"
        if record.start != len(session):
            raise ServiceError(
                f"{prefix} starts at {record.start} but the session has "
                f"{len(session)} insertions (a gap or an overlap)"
            )
        try:
            events = [insertion_from_row(event) for event in record.events]
        except FormatError as exc:
            raise ServiceError(
                f"{prefix} holds a malformed event: {exc}"
            ) from None
        text = record.text
        if dict in map(type, record.events):
            text = record_text(
                record.start, record.version,
                json.dumps([insertion_to_row(event) for event in events]),
                record.crc, record.trace_id,
            )
        try:
            session.ingest_many(events, (record.version, record.crc, text))
        except FingerprintMismatch:
            raise ServiceError(
                f"{prefix} is corrupt: the replayed labels do not match "
                "its fingerprint"
            ) from None
        except (ReproError, LookupError, TypeError, ValueError) as exc:
            raise ServiceError(f"{prefix} does not relabel: {exc}") from exc


def open_session(name: str, header: Dict[str, Any], where: str) -> Session:
    """A fresh, empty session named ``name`` as a WAL header describes."""
    try:
        return Session(
            name,
            specification_from_json(header["spec"]),
            scheme=header["scheme"],
            skeleton=header["skeleton"],
            mode=header["mode"],
        )
    except (KeyError, TypeError, FormatError) as exc:
        raise ServiceError(f"{where} has an unusable header: {exc}") from None


def _write_wal(path: Path, header: Dict[str, Any], log: Sequence[str]) -> None:
    """Write a whole WAL file -- ``header`` and the records ``log``
    holds -- staged under a temp name, fsynced, renamed into place and
    its directory fsynced: a crash leaves the previous file (or none)
    or every line of this one."""
    staged = path.with_name(path.name + ".tmp")
    with open(staged, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for seq, text in enumerate(log):
            handle.write(f'{{"seq": {seq}, ')
            handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(staged, path)
    fsync_dir(path.parent)


class WriteAheadLog:
    """One session's append-only log of acknowledged ingest batches.

    Appends are serialized by an internal lock (callers already hold
    the session lock, which serializes a session's ingests; the WAL
    lock additionally serializes appends against ``sync`` and
    ``close``).
    """

    def __init__(
        self,
        path,
        header: Dict[str, Any],
        policy: str = "always",
        batch_records: int = DEFAULT_BATCH_RECORDS,
        _resume: Optional[WalReplay] = None,
        _log: Sequence[str] = (),
        _events: int = 0,
    ) -> None:
        self.path = Path(path)
        self.policy = check_fsync_policy(policy)
        self.batch_records = max(1, batch_records)
        self.lock = threading.Lock()
        self.closed = False
        self.failed = False
        self._unsynced = 0
        if _resume is None:
            # the initial file is staged whole and renamed into place: a
            # crash leaves either no log (an unacknowledged create) or
            # every line of it
            _write_wal(self.path, header, _log)
            self._handle = open(self.path, "a")
            self._next_seq = self._records = len(_log)
            self._events = _events
        else:
            # truncate any torn tail before appending after it
            with open(self.path, "r+b") as trunc:
                trunc.truncate(_resume.valid_bytes)
                trunc.flush()
                os.fsync(trunc.fileno())
            self._handle = open(self.path, "a")
            self._next_seq = _resume.next_seq
            self._records = len(_resume.records)
            self._events = _resume.events

    @classmethod
    def create(
        cls,
        path,
        session: Session,
        policy: str = "always",
        batch_records: int = DEFAULT_BATCH_RECORDS,
    ) -> "WriteAheadLog":
        """Start a fresh WAL for ``session``, already durable on return.

        The batches an imported or reset session already holds are
        written together with the header, as the records they are.
        """
        return cls(
            path, wal_header(session), policy=policy,
            batch_records=batch_records,
            _log=list(session.log), _events=len(session),
        )

    @classmethod
    def resume(
        cls,
        path,
        replay: WalReplay,
        policy: str = "always",
        batch_records: int = DEFAULT_BATCH_RECORDS,
    ) -> "WriteAheadLog":
        """Reopen a replayed WAL for appending (torn tail truncated)."""
        return cls(
            path,
            replay.header,
            policy=policy,
            batch_records=batch_records,
            _resume=replay,
        )

    # ------------------------------------------------------------------
    @property
    def records(self) -> int:
        """Records currently in the file."""
        return self._records

    @property
    def events(self) -> int:
        """Events across every record in the file."""
        return self._events

    @property
    def unsynced(self) -> int:
        """Appends flushed to the OS but not yet fsynced."""
        return self._unsynced

    def append(
        self, start: int, version: int, events: Sized, text: str
    ) -> int:
        """Log one acknowledged ingest batch; returns its ``seq``.

        ``text`` is the batch as the session logged it
        (:func:`~repro.service.sessions.record_text` of this ``start``
        and ``version``), written as it is behind the record's seq, so
        the line is exactly ``json.dumps`` of the record ``{seq, start,
        version, events, crc[, trace_id]}``.  ``events`` are the batch's
        events, counted into :attr:`events`.

        A failed append (disk full, I/O error) **poisons** the log:
        every later append raises immediately instead of writing after
        a possibly-torn line.  Without the poison, a recovery would
        stop at the mid-file tear and silently drop every acknowledged
        record behind it -- and a clean write skipping the failed one
        would leave a ``start`` gap that recovery must refuse.  Either
        way the session must stop acknowledging; a restart (which
        re-runs recovery) clears the state.
        """
        trace = current_trace()
        with self.lock:
            self._check_open()
            try:
                FAILPOINTS.hit("wal.pre_append")
                append_started = time.perf_counter()
                self._handle.write(f'{{"seq": {self._next_seq}, ')
                self._handle.write(text)
                # always flush to the OS: process death never loses an
                # acknowledged batch, only the fsync policy decides
                # power-loss durability
                self._handle.flush()
                append_ended = time.perf_counter()
                _h_append.record(append_ended - append_started)
                if trace is not None:
                    trace.add_span(
                        SPAN_WAL_APPEND, append_started, append_ended
                    )
                synced = False
                if self.policy == "always":
                    synced = True
                elif self.policy == "batch":
                    self._unsynced += 1
                    if self._unsynced >= self.batch_records:
                        synced = True
                        self._unsynced = 0
                else:
                    self._unsynced += 1
                if synced:
                    FAILPOINTS.hit("wal.pre_fsync")
                    fsync_started = time.perf_counter()
                    os.fsync(self._handle.fileno())  # repro: noqa[blocking-under-lock] -- the fsync-before-ack IS the durability contract: the session lock must stay held until the WAL entry is on disk, or an ack could precede persistence
                    fsync_ended = time.perf_counter()
                    _h_fsync.record(fsync_ended - fsync_started)
                    if trace is not None:
                        trace.add_span(
                            SPAN_WAL_FSYNC, fsync_started, fsync_ended
                        )
            except Exception as exc:
                self.failed = True
                raise ServiceError(
                    f"write-ahead log {self.path} append failed "
                    f"({exc}); the log is poisoned until recovery"
                ) from exc
            FAILPOINTS.hit("wal.post_append")
            self._next_seq += 1
            self._records += 1
            self._events += len(events)
            return self._next_seq - 1

    def sync(self) -> None:
        """Force-fsync everything appended so far (any policy)."""
        with self.lock:
            self._check_open()
            self._handle.flush()
            fsync_started = time.perf_counter()
            os.fsync(self._handle.fileno())
            fsync_ended = time.perf_counter()
            _h_fsync.record(fsync_ended - fsync_started)
            trace = current_trace()
            if trace is not None:
                trace.add_span(SPAN_WAL_FSYNC, fsync_started, fsync_ended)
            self._unsynced = 0

    def close(self) -> None:
        """Flush, fsync and close the file (idempotent)."""
        with self.lock:
            if self.closed:
                return
            self.closed = True
            try:
                if not self.failed:
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
            finally:
                self._handle.close()

    def _check_open(self) -> None:
        if self.failed:
            raise ServiceError(
                f"write-ahead log {self.path} is poisoned by an earlier "
                "append failure; restart to recover"
            )
        if self.closed:
            raise ServiceError(
                f"write-ahead log {self.path} is closed"
            )


# ---------------------------------------------------------------------------
# the durable store: session directories under one data dir
# ---------------------------------------------------------------------------


@dataclass
class _Entry:
    """One durably tracked live session."""

    session: Session
    directory: Path
    wal: WriteAheadLog
    # (version, insertion-log length) after every logged record, in
    # log order: what each acknowledged version covered, for as_of
    history: List[Tuple[int, int]]


def _history(session: Session) -> List[Tuple[int, int]]:
    """``(version, insertion-log length)`` after each batch the session
    has logged, read from the head of each record text."""
    bounds = []
    for text in session.log:
        start, version, _ = text.split(", ", 2)
        bounds.append((int(start[len('"start": '):]),
                       int(version[len('"version": '):])))
    ends = [start for start, _ in bounds[1:]] + [len(session)]
    return [(version, end) for (_, version), end in zip(bounds, ends)]


class DurableStore:
    """Maps live sessions onto durable per-session directories.

    Layout, under ``data_dir``::

        s-<quoted session name>/
            wal.jsonl         header + every acknowledged ingest
            CLOSED            marker: closed cleanly, skip at recovery

    ``fsync`` is the WAL policy (``always`` | ``batch`` | ``never``);
    headers and ``CLOSED`` markers are always written durably.

    ``EPOCH`` at the data-dir root persists the replication fencing
    epoch; once :meth:`fence` is called (a peer proved a higher epoch
    exists) every ingest is rejected, so a zombie primary can no longer
    acknowledge writes.  ``LIFETIME`` counts the replication hubs this
    data dir has started, and a replica keeps in ``REPLICA`` the hub
    token and ship position it last acknowledged.
    """

    def __init__(
        self,
        data_dir,
        fsync: str = "always",
        batch_records: int = DEFAULT_BATCH_RECORDS,
    ) -> None:
        self.root = Path(data_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = check_fsync_policy(fsync)
        self.batch_records = batch_records
        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}
        self.recovery: List[Dict[str, Any]] = []  # boot-time reports
        self.epoch = self._read_int(_EPOCH)
        self.fenced = False
        # replication publish hook: the primary's hub, when serving as
        # one.  Called after (and only after) the WAL append succeeded,
        # still under the session lock -- shipped records are always a
        # prefix of the durable log.
        self.on_append = None  # Optional[Callable]
        # exclude concurrent processes: two servers appending to the
        # same WALs would interleave seqs and shred both logs.  flock
        # (not an O_EXCL marker file) so the kernel releases it when a
        # SIGKILLed holder dies -- crash recovery must never need a
        # manual unlock.
        self._lock_handle = open(self.root / "LOCK", "w")
        try:
            import fcntl

            fcntl.flock(
                self._lock_handle, fcntl.LOCK_EX | fcntl.LOCK_NB
            )
        except ImportError:  # pragma: no cover - non-POSIX fallback
            pass
        except OSError:
            self._lock_handle.close()
            raise ServiceError(
                f"data dir {self.root} is locked by another live "
                "process; two servers must not share one data dir"
            ) from None
        self._lock_handle.write(f"{os.getpid()}\n")  # repro: noqa[durability-fsync] -- the LOCK file's pid is advisory debug info; flock(2) is the actual mutual-exclusion mechanism and holds without fsync
        self._lock_handle.flush()

    # ------------------------------------------------------------------
    # replication state: fencing epoch, hub lifetimes, replica position
    # ------------------------------------------------------------------
    def _read_int(self, name: str) -> int:
        try:
            return int((self.root / name).read_text().strip())
        except (FileNotFoundError, ValueError):
            return 0

    def _replace(self, name: str, text: str, durable: bool = True) -> None:
        """Atomically replace the small state file ``name``."""
        staged = self.root / (name + ".tmp")
        staged.write_text(text)
        if durable:
            fsync_file(staged)
        os.replace(staged, self.root / name)
        if durable:
            fsync_dir(self.root)

    def set_epoch(self, epoch: int) -> None:
        """Durably adopt a (higher) fencing epoch."""
        if epoch < self.epoch:
            raise ServiceError(
                f"epoch may only advance ({epoch} < {self.epoch})"
            )
        self._replace(_EPOCH, f"{epoch}\n")
        self.epoch = epoch

    def next_lifetime(self) -> int:
        """Durably count one more replication hub started on this data
        dir; the count orders one primary's restarts within an epoch."""
        lifetime = self._read_int(_LIFETIME) + 1
        self._replace(_LIFETIME, f"{lifetime}\n")
        return lifetime

    def replica_position(self) -> Tuple[Optional[List[int]], int]:
        """The ``(token, position)`` a replica last acknowledged, or
        ``(None, -1)`` when it never acknowledged one."""
        try:
            state = json.loads((self.root / _REPLICA).read_text())
            return state["token"], int(state["applied"])
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            return None, -1

    def save_replica_position(
        self, token: Optional[List[int]], applied: int
    ) -> None:
        """Persist a replica's position before it is acknowledged.

        The applied records are in the WAL first (and fsynced, under
        ``always``), so the position never claims more than the WAL
        holds.  It is not fsynced itself: a power loss can only leave an
        older position, or none, which ranks the replica lower."""
        self._replace(
            _REPLICA, json.dumps({"token": token, "applied": applied}),
            durable=False,
        )

    def fence(self) -> None:
        """Reject all further ingests: a higher epoch exists elsewhere."""
        self.fenced = True

    # ------------------------------------------------------------------
    def session_dir(self, name: str) -> Path:
        """The durable directory hosting session ``name``."""
        return self.root / (_DIR_PREFIX + quote(name, safe=""))

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def _entry(self, name: str) -> _Entry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ServiceError(
                f"session {name!r} is not durably tracked"
            )
        return entry

    def _current(self, session: Session) -> _Entry:
        """The tracking entry of this exact session instance."""
        entry = self._entry(session.name)
        if entry.session is not session:
            # the name was closed and recreated: acting on the stale
            # instance would touch the successor's log
            raise ServiceError(
                f"session {session.name!r} was superseded; refusing to "
                "act on the stale instance"
            )
        return entry

    # ------------------------------------------------------------------
    # registration (create / import paths)
    # ------------------------------------------------------------------
    def register(self, session: Session) -> None:
        """Start durably tracking a live session.

        Writes and fsyncs the WAL header (the spec, scheme, skeleton and
        mode: enough to rebuild the session from nothing) followed by
        the batches an imported or reset session already holds, and
        hooks the session's ingest path.  Must be called before the
        creating request is acknowledged.
        """
        directory = self.session_dir(session.name)
        if directory.exists():
            if (directory / _CLOSED).exists():
                # a cleanly closed predecessor: archive, never delete
                generation = 0
                while True:
                    archived = directory.with_name(
                        f"{directory.name}.closed.{generation}"
                    )
                    if not archived.exists():
                        break
                    generation += 1
                os.rename(directory, archived)
            elif self._incomplete_create(directory):
                # a crash before the creating request was acknowledged
                # left it: nothing in it was ever acknowledged
                shutil.rmtree(directory)
            else:
                raise ServiceError(
                    f"durable state for session {session.name!r} already "
                    f"exists under {directory} (recover or remove it first)"
                )
        directory.mkdir(parents=True)
        # the new directory entry (and any archive rename) must survive
        # power loss before the create is acknowledged
        fsync_dir(self.root)
        try:
            wal = WriteAheadLog.create(
                directory / _WAL_FILE,
                session,
                policy=self.fsync,
                batch_records=self.batch_records,
            )
        except Exception:
            # the create was never acknowledged: remove the half-made
            # directory so the name is not durably squatted (a *crash*
            # in this window leaves no WAL, which recovery reports as an
            # incomplete create)
            shutil.rmtree(directory, ignore_errors=True)
            raise
        self._arm(_Entry(session, directory, wal, _history(session)))

    @staticmethod
    def _incomplete_create(directory: Path) -> bool:
        _refuse_old_layout(directory)
        try:
            replay_wal(directory / _WAL_FILE)
        except TornWalError:
            return True
        return False

    def _arm(self, entry: _Entry) -> None:
        with self._lock:
            self._entries[entry.session.name] = entry
        entry.session.on_ingest = self._on_ingest

    def _on_ingest(
        self,
        session: Session,
        events: List[Any],
        start: int,
        version: int,
        crc: int,
        text: str,
    ) -> None:
        """The :attr:`Session.on_ingest` hook: log before acknowledging."""
        if self.fenced:
            raise ServiceError(
                "store is fenced: a higher replication epoch exists; "
                "this node may no longer acknowledge writes"
            )
        entry = self._entries.get(session.name)
        if entry is None or entry.session is not session:
            return  # stale hook on a superseded session instance
        entry.wal.append(start, version, events, text)
        entry.history.append((version, start + len(events)))
        publish = self.on_append
        if publish is not None:
            publish(session, text)

    # ------------------------------------------------------------------
    # snapshot / sync / close
    # ------------------------------------------------------------------
    # shim: benchmarks/e2e's trace hook wraps this name (ROADMAP item 3)
    def checkpoint(self, session: Session) -> Dict[str, Any]:
        """Fsync ``session``'s WAL: the pathless ``snapshot`` op.

        Makes everything the session acknowledged durable under any
        fsync policy, and reports the version and vertex count covered.
        """
        entry = self._current(session)
        with session.lock:
            # under the session lock: every batch counted here has
            # finished its append, so the fsync below covers it
            version, vertices = session.version, len(session)
        entry.wal.sync()
        return {"checkpoint_version": version, "vertices": vertices}

    # shim: benchmarks/e2e's trace hook calls this name (ROADMAP item 3)
    def generation_dir(self, name: str, version: int) -> Path:
        """The directory holding ``name``'s durable state at any version."""
        return self.session_dir(name)

    def sync(self, name: Optional[str] = None) -> List[str]:
        """Fsync one session's WAL (or all of them); returns the names."""
        if name is not None:
            self._entry(name).wal.sync()
            return [name]
        with self._lock:
            entries = list(self._entries.items())
        for _, entry in entries:
            entry.wal.sync()
        return sorted(name for name, _ in entries)

    def finalize(self, session: Session) -> None:
        """A session closed cleanly: fsync its WAL, write ``CLOSED``.

        The directory is kept (it is the run's provenance record); a
        later session reusing the name archives it.  Recovery skips
        closed directories.
        """
        try:
            entry = self._current(session)
        except ServiceError:
            return
        entry.wal.close()
        marker = entry.directory / _CLOSED
        marker.write_text("closed\n")
        fsync_file(marker)
        fsync_dir(entry.directory)
        with self._lock:
            self._entries.pop(session.name, None)
        session.on_ingest = None

    def close(self) -> None:
        """Flush and close every WAL (the sessions stay recoverable)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            try:
                entry.wal.close()
            except OSError:  # pragma: no cover - best effort teardown
                pass
            entry.session.on_ingest = None
        self._lock_handle.close()  # releases the data-dir flock

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, manager: SessionManager) -> List[Dict[str, Any]]:
        """Rebuild every non-closed session found under the data dir.

        Each session directory's WAL is replayed through the scheme its
        header records, every record's label fingerprint is checked,
        any torn tail is truncated, and durable tracking resumes.
        Returns one report per directory; the reports are also kept on
        :attr:`recovery` for the ``recover_info`` op.  A directory whose
        WAL header is missing, empty or torn is a create that crashed
        before being acknowledged: it is reported as
        ``incomplete-create`` and skipped, and the name may be created
        again.  A directory in the older checkpoint-generation layout is
        refused with a :class:`ServiceError`, never skipped.

        The cyclic garbage collector is paused throughout and left as
        it was found, also when recovery raises.  Replay makes no
        cyclic garbage, so a collection could only re-walk the objects
        of the sessions being rebuilt, again and again as they grow.
        The objects are not frozen (``gc.freeze``) either: a recovered
        session closed later leaves the cycles of its open copies'
        labeler state, which only the collector frees.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._recover_all(manager)
        finally:
            if collecting:
                gc.enable()

    def _recover_all(self, manager: SessionManager) -> List[Dict[str, Any]]:
        reports: List[Dict[str, Any]] = []
        for directory in sorted(self.root.iterdir()):
            if not directory.is_dir():
                continue
            if not directory.name.startswith(_DIR_PREFIX):
                continue
            name = unquote(directory.name[len(_DIR_PREFIX):])
            if (directory / _CLOSED).exists():
                reports.append(
                    {"session": name, "status": "closed", "skipped": True}
                )
                continue
            _refuse_old_layout(directory)
            try:
                replay = replay_wal(directory / _WAL_FILE)
            except TornWalError as exc:
                reports.append(
                    {
                        "session": name,
                        "status": "incomplete-create",
                        "skipped": True,
                        "reason": str(exc),
                    }
                )
                continue
            except ServiceError as exc:
                raise ServiceError(f"session {name!r}: {exc}") from None
            reports.append(
                self._recover_one(manager, name, directory, replay)
            )
        self.recovery = reports
        for report in reports:
            log_event(
                _logger, logging.INFO, "recovery-report", **report
            )
        return reports

    def _recover_one(
        self,
        manager: SessionManager,
        name: str,
        directory: Path,
        replay: WalReplay,
    ) -> Dict[str, Any]:
        wal_path = directory / _WAL_FILE
        header = replay.header
        if header.get("session") != name:
            raise ServiceError(
                f"write-ahead log {wal_path} belongs to session "
                f"{header.get('session')!r}, not {name!r}"
            )
        where = f"write-ahead log {wal_path}"
        session = open_session(name, header, where)
        replay_records(session, replay.records, where)
        report: Dict[str, Any] = {
            "session": name,
            "status": "recovered",
            "skipped": False,
            "wal_records_replayed": len(replay.records),
            "wal_events_replayed": replay.events,
            "vertices": len(session),
            "version": session.version,
        }
        if replay.dropped is not None:
            report["torn_tail"] = replay.dropped
            report["resume_seq"] = replay.next_seq
            report["torn_bytes_dropped"] = replay.dropped_bytes
            report["torn_last_good_seq"] = replay.last_good_seq
        if header["version"] == _WAL_VERSION:
            wal = WriteAheadLog.resume(
                wal_path,
                replay,
                policy=self.fsync,
                batch_records=self.batch_records,
            )
        else:
            # an older version's log is rewritten whole, staged, in this
            # version before anything is appended to it: one file never
            # mixes spellings, and an older release refuses the new
            # file by its version instead of failing mid-replay
            report["rewritten_from_version"] = header["version"]
            wal = WriteAheadLog.create(
                wal_path,
                session,
                policy=self.fsync,
                batch_records=self.batch_records,
            )
        manager.adopt(session)
        self._arm(_Entry(session, directory, wal, _history(session)))
        return report

    # ------------------------------------------------------------------
    # introspection / time travel
    # ------------------------------------------------------------------
    def log_length_at(self, session: Session, version: int) -> int:
        """How much of ``session``'s insertion log ``version`` covered.

        That is the end of the last record whose version is at most
        ``version``.  Version 0 is the empty session; a version this
        store never acknowledged raises :class:`ServiceError`.
        """
        if version == 0:
            return 0
        history = self._current(session).history
        index = bisect_right(history, (version, math.inf))
        if index == 0 or version > history[-1][0]:
            raise ServiceError(
                f"session {session.name!r} has no acknowledged version "
                f"{version}"
            )
        return history[index - 1][1]

    def info(self) -> Dict[str, Any]:
        """The durability state the ``recover_info`` op reports."""
        with self._lock:
            entries = list(self._entries.items())
        sessions = {}
        for name, entry in entries:
            sessions[name] = {
                "wal_records": entry.wal.records,
                "wal_events": entry.wal.events,
                "wal_unsynced": entry.wal.unsynced,
                "version": entry.session.version,
                "vertices": len(entry.session),
            }
        return {
            "durable": True,
            "data_dir": str(self.root),
            "fsync": self.fsync,
            "batch_records": self.batch_records,
            "epoch": self.epoch,
            "fenced": self.fenced,
            "sessions": sessions,
            "recovered": list(self.recovery),
        }


# ---------------------------------------------------------------------------
# checkpoint export / import: a checkpoint is a WAL file
# ---------------------------------------------------------------------------


def checkpoint_session(session: Session, directory) -> Path:
    """Export ``session`` into ``directory`` as ``wal.jsonl``.

    The file is a WAL: the session's header followed by its log, the
    lines a data dir holds for it, copied under the session lock so
    they reflect one version even while writers keep ingesting.  It is
    staged, fsynced, renamed into place and the directory fsynced, so a
    completed export survives power loss and a crash mid-export leaves
    any earlier export in ``directory`` intact.  Returns the directory.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    with session.lock:
        log = list(session.log)
    _write_wal(path / _WAL_FILE, wal_header(session), log)
    return path


def restore_session(
    manager: SessionManager,
    directory,
    name: Optional[str] = None,
    scheme: Optional[str] = None,
) -> Session:
    """Import an exported session (a WAL file) into ``manager``.

    ``directory`` is one :func:`checkpoint_session` wrote.  ``name`` overrides the exported session name (useful when restoring
    next to a still-live original); ``scheme``, when given, must be the
    scheme the export records.  Both are checked before the O(n)
    replay (``adopt`` re-checks the name under its lock, so this is a
    fast-fail, not the correctness guarantee).  The log is replayed
    through :func:`replay_records`, every record's label fingerprint
    checked, and the session keeps every version the export holds.  An
    export is written whole, so a torn or malformed line refuses the
    import, as does a directory in the older four-document format
    (``manifest.json``).
    """
    path = Path(directory)
    if (path / _OLD_CHECKPOINT_MANIFEST).exists():
        raise ServiceError(
            f"{path} holds a checkpoint in the older four-document format "
            f"({_OLD_CHECKPOINT_MANIFEST}) this server cannot import; "
            "import it with the release that wrote it into a --data-dir "
            "server, whose data dir this release recovers and can export"
        )
    replay = replay_wal(path / _WAL_FILE)
    where = f"checkpoint {path}"
    if replay.dropped is not None:
        raise ServiceError(f"{where} is corrupt: {replay.dropped}")
    target = name or replay.header.get("session")
    if not isinstance(target, str):
        raise ServiceError(f"{where} has an unusable header: no session name")
    if target in manager:
        raise ServiceError(f"session {target!r} already exists")
    recorded = replay.header.get("scheme")
    if scheme is not None and scheme != recorded:
        raise ServiceError(
            f"checkpoint was written under scheme {recorded!r}, "
            f"not {scheme!r}"
        )
    session = open_session(target, replay.header, where)
    replay_records(session, replay.records, where)
    return manager.adopt(session)
