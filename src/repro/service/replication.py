"""WAL shipping: read replicas, epoch fencing, replica promotion.

The durability layer already persists every acknowledged ingest as a
WAL record (:mod:`repro.service.wal`); this module ships that stream
to N read replicas over the ordinary JSON-lines protocol and manages
the role flip when the primary dies.

Topology
--------
One **primary** (a durable server) owns a :class:`ReplicationHub`: a
bounded in-memory ring of recently appended WAL records, each stamped
with a monotone global *ship position* (one sequence across every
session, unlike the per-session WAL seqs).  The
hub is fed by :attr:`DurableStore.on_append` -- records enter the ring
only after their WAL append succeeded, still under the session lock,
so the shipped stream is always a prefix of the durable log.  A ringed
ingest record holds the batch's record text, the very ``str`` the
session logged and the WAL wrote, and ``repl_subscribe`` ships it as
it is.  Being text in the WAL's own spelling, it binds primary and
replicas to one release.

Each **replica** is itself a durable server (its own data dir and
WALs) started read-only with ``--replicate-from``.  Its
:class:`ReplicaApplier` thread long-polls ``repl_subscribe`` on the
primary and replays each shipped record through the same path as boot
recovery (:func:`repro.service.wal.replay_records`): start contiguity,
relabeling, the label fingerprint.  The replica's session keeps the
record's version and text, so its own WAL line is the primary's, byte
for byte.  It reports coverage with ``repl_ack``.  A replica whose
position fell off the primary's ring (or that never bootstrapped)
receives ``reset`` plus a full snapshot instead: each session's WAL
header and lines, replayed the same way, keeping every batch's version
so ``as_of`` answers as the primary does.  Applies are idempotent: a
record the replica already holds whole is skipped, so overlap after a
snapshot or a retry can never double-apply an event; a record that
overlaps it in part, or does not replay, resyncs from a snapshot.

Zero acked loss
---------------
With ``--repl-min-acks N`` the primary acknowledges an ingest only
once >= N replicas have acked a ship position covering it
(:meth:`ReplicationHub.wait_covered`).  Coverage is prefix-based, so
at promotion time the most-caught-up replica holds *every* write the
primary ever acknowledged -- the invariant the ``kill-primary`` chaos
scenario asserts mechanically.

Epoch fencing
-------------
Every data dir persists a fencing *epoch* in its ``EPOCH`` file.
``promote`` bumps the epoch durably before the replica
starts acknowledging writes as the new primary.  Any server contacted
(``repl_subscribe`` / ``repl_ack``) with a higher epoch than its own
**fences itself**: the store rejects every subsequent ingest, so a
zombie primary that lost a promotion race can never acknowledge a
write the new timeline does not contain.
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, ServiceError, SessionNotFoundError
from repro.faults import FAILPOINTS
from repro.io.jsonio import specification_from_json, specification_to_json
from repro.obs.logs import log_event
from repro.obs.metrics import default_registry
from repro.obs.names import (
    REPL_APPLY_SECONDS,
    REPL_RECORDS_APPLIED_TOTAL,
    REPL_RECORDS_SHIPPED_TOTAL,
)
from repro.service.sessions import Session, SessionManager
from repro.service.wal import (
    DurableStore,
    open_session,
    parse_record,
    replay_records,
    wal_header,
)

DEFAULT_RING_CAPACITY = 4096
DEFAULT_ACK_TIMEOUT = 10.0
DEFAULT_POLL_WAIT = 1.0
DEFAULT_RETRY_INTERVAL = 0.25

_logger = logging.getLogger("repro.service.replication")

_h_apply = default_registry().histogram(REPL_APPLY_SECONDS)
_c_shipped = default_registry().counter(REPL_RECORDS_SHIPPED_TOTAL)
_c_applied = default_registry().counter(REPL_RECORDS_APPLIED_TOTAL)


class _ResetNeeded(ReproError):
    """Replica-internal: the incremental stream cannot apply; resync."""


def _held_records(
    session: Session, header: Dict[str, Any], records: List[Any]
) -> Optional[int]:
    """How many of a session's shipped records the local copy already
    holds, or ``None`` when it holds no prefix of them."""
    if wal_header(session) != header:
        return None  # another incarnation of the name, or another spec
    held, version = len(session), session.version
    if held == 0 and version == 0:
        return 0
    for count, record in enumerate(records, start=1):
        if record.start + len(record.events) == held:
            return count if record.version == version else None
    return None


# ---------------------------------------------------------------------------
# the primary's hub
# ---------------------------------------------------------------------------


class ReplicationHub:
    """The primary's ship ring: publish, long-poll, coverage acks.

    One lock (the condition's) guards the ring, the ship position and
    the per-replica ack table.  ``publish`` runs under the session lock
    (it is called from the store's append hook) and does O(1) work;
    snapshot assembly for a reset happens *outside* the hub lock so the
    hub lock is never held while a session lock is taken -- the reverse
    order of ``publish``, which would otherwise be a lock cycle.
    """

    MAX_WAIT = 30.0  # the longest one ``subscribe`` long-poll waits

    def __init__(
        self,
        manager: SessionManager,
        store: DurableStore,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        min_acks: int = 0,
        ack_timeout: float = DEFAULT_ACK_TIMEOUT,
    ) -> None:
        self.manager = manager
        self.store = store
        self.min_acks = max(0, int(min_acks))
        self.ack_timeout = ack_timeout
        self._cond = threading.Condition()
        self._ring: deque = deque(maxlen=max(16, ring_capacity))
        self._seq = 0       # next ship position to assign
        self._min_seq = 0   # position of the oldest record still ringed
        self._acks: Dict[str, int] = {}
        store.on_append = self.publish

    @property
    def epoch(self) -> int:
        return self.store.epoch

    @property
    def seq(self) -> int:
        with self._cond:
            return self._seq

    # ------------------------------------------------------------------
    # publishing (called under the session lock; O(1), never blocks)
    # ------------------------------------------------------------------
    def publish(self, session: Session, text: str) -> None:
        """Ring one durably appended ingest batch for shipping.

        ``text`` is the batch's record text, the object the session's
        log holds, ringed as it is: no copy, and one flat object where
        decoded events would be several containers each for the garbage
        collector to walk.
        """
        with self._cond:
            record = {
                "pos": self._seq,
                "kind": "ingest",
                "session": session.name,
                "text": text,
            }
            self._append_locked(record)

    def publish_control(self, kind: str, session: Session) -> None:
        """Ring a session lifecycle record (``create`` / ``close``)."""
        doc: Dict[str, Any] = {
            "kind": kind,
            "session": session.name,
        }
        if kind == "create":
            doc["spec"] = specification_to_json(session.spec)
            doc["scheme"] = session.scheme_name
            doc["skeleton"] = session.skeleton
            doc["mode"] = session.mode
        with self._cond:
            doc["pos"] = self._seq
            self._append_locked(doc)

    def _append_locked(self, record: Dict[str, Any]) -> None:
        self._ring.append(record)  # a full deque drops the oldest
        self._seq = record["pos"] + 1
        self._min_seq = self._ring[0]["pos"]
        _c_shipped.inc()
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # the wire surface (repl_subscribe / repl_ack)
    # ------------------------------------------------------------------
    def subscribe(
        self,
        from_seq: int,
        epoch: int = 0,
        replica_id: Optional[str] = None,
        wait: float = DEFAULT_POLL_WAIT,
    ) -> Dict[str, Any]:
        """One long-poll turn: records past ``from_seq``, or a reset.

        A negative ``from_seq`` always requests a reset (the replica
        has no position yet, or detected it cannot apply the stream).
        A subscriber proving a *higher* epoch fences this node (see the
        module docstring); a subscriber on a lower epoch is told the
        current one in the response and adopts it.
        """
        if epoch > self.store.epoch:
            self.store.fence()
            raise ServiceError(
                f"fenced: subscriber proved epoch {epoch} > local "
                f"{self.store.epoch}; this node is no longer primary"
            )
        wait = min(max(0.0, float(wait)), self.MAX_WAIT)
        with self._cond:
            reset = from_seq < 0 or from_seq < self._min_seq
            if not reset:
                deadline = time.monotonic() + wait
                while self._seq <= from_seq:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                # ringed records never change: they ship as they are
                shipped = [
                    record
                    for record in self._ring
                    if record["pos"] >= from_seq
                ]
            seq = self._seq
        if not reset:
            return {
                "records": shipped,
                "seq": seq,
                "epoch": self.store.epoch,
            }
        # reset path: assemble the snapshot WITHOUT the hub lock (the
        # session locks it takes are the ones publish() holds *before*
        # taking the hub lock).  Records published meanwhile may overlap
        # the snapshot; prefix-idempotent apply absorbs the overlap.
        return {
            "reset": True,
            "seq": seq,
            "epoch": self.store.epoch,
            "snapshot": self._snapshot_all(),
        }

    def _snapshot_all(self) -> List[Dict[str, Any]]:
        """Every session's WAL header and lines, as a data dir holds
        them."""
        snapshots: List[Dict[str, Any]] = []
        for name in self.manager.names():
            try:
                session = self.manager.get(name)
            except SessionNotFoundError:
                continue
            with session.lock:
                log = list(session.log)
            snapshots.append(
                {
                    "session": name,
                    "header": wal_header(session),
                    "lines": [
                        f'{{"seq": {seq}, {text}'
                        for seq, text in enumerate(log)
                    ],
                }
            )
        return snapshots

    def ack(
        self, replica_id: str, seq: int, epoch: int = 0
    ) -> Dict[str, Any]:
        """Record a replica's covered ship position."""
        if epoch > self.store.epoch:
            self.store.fence()
            raise ServiceError(
                f"fenced: replica {replica_id!r} proved epoch {epoch} > "
                f"local {self.store.epoch}"
            )
        with self._cond:
            previous = self._acks.get(replica_id, 0)
            self._acks[replica_id] = max(previous, int(seq))
            self._cond.notify_all()
            return {"acked": self._acks[replica_id], "seq": self._seq}

    def wait_covered(
        self, seq: int, timeout: Optional[float] = None
    ) -> None:
        """Block until >= ``min_acks`` replicas cover position ``seq``.

        Raises :class:`ServiceError` on timeout -- the ingest that
        called this then fails instead of acknowledging a write no
        replica holds, which is what keeps promotion lossless.
        """
        if self.min_acks <= 0:
            return
        if timeout is None:
            timeout = self.ack_timeout
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                covered = sum(
                    1 for acked in self._acks.values() if acked >= seq
                )
                if covered >= self.min_acks:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"replication timeout: only {covered} of the "
                        f"required {self.min_acks} replicas acked "
                        f"position {seq} within {timeout:.1f}s; the "
                        "write is durable locally but NOT acknowledged"
                    )
                self._cond.wait(remaining)

    def lag_table(self) -> Dict[str, Any]:
        """Per-replica coverage for ``recover_info``."""
        with self._cond:
            seq = self._seq
            return {
                "seq": seq,
                "min_acks": self.min_acks,
                "replicas": {
                    replica: {"acked": acked, "behind": seq - acked}
                    for replica, acked in sorted(self._acks.items())
                },
            }


# ---------------------------------------------------------------------------
# the replica's applier
# ---------------------------------------------------------------------------


class ReplicaApplier(threading.Thread):
    """Long-polls the primary and applies shipped records locally.

    Applies replay each shipped record through the session's replay
    path, so the replica's own WALs hold the primary's lines and a
    replica restart recovers from local state before resubscribing.
    On connection loss (or on being told the primary is fenced) the
    applier probes ``peers`` for the live primary -- the node whose
    ``recover_info`` shows ``role: primary`` under the highest epoch --
    and resubscribes there.
    """

    def __init__(
        self,
        manager: SessionManager,
        store: DurableStore,
        primary: Tuple[str, int],
        peers: Sequence[Tuple[str, int]] = (),
        replica_id: Optional[str] = None,
        poll_wait: float = DEFAULT_POLL_WAIT,
        retry_interval: float = DEFAULT_RETRY_INTERVAL,
    ) -> None:
        super().__init__(name="repro-replica-applier", daemon=True)
        self.manager = manager
        self.store = store
        self.primary = tuple(primary)
        self.peers = [tuple(peer) for peer in peers]
        if self.primary not in self.peers:
            self.peers.insert(0, self.primary)
        self.replica_id = replica_id or f"replica-{uuid.uuid4().hex[:8]}"
        self.poll_wait = poll_wait
        self.retry_interval = retry_interval
        self._halt = threading.Event()
        self._lock = threading.Lock()
        # next ship position to request; -1 = no position yet, which
        # forces an initial snapshot (local recovered state, if any, is
        # absorbed by the prefix-idempotent snapshot apply)
        self._position = -1
        self.errors: List[str] = []

    # ------------------------------------------------------------------
    @property
    def position(self) -> int:
        with self._lock:
            return self._position

    def lag(self) -> Dict[str, Any]:
        """The wire-visible ``replica_lag`` payload."""
        with self._lock:
            return {
                "applied": self._position,
                "epoch": self.store.epoch,
                "role": "replica",
            }

    def stop(self, timeout: float = 10.0) -> None:
        self._halt.set()
        if self.is_alive():
            self.join(timeout=timeout)

    # ------------------------------------------------------------------
    # the subscribe/apply/ack loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        from repro.service.client import ServiceClient

        while not self._halt.is_set():
            host, port = self.primary
            try:
                with ServiceClient(
                    host, port, timeout=max(5.0, self.poll_wait * 4),
                    reconnect=False,
                ) as client:
                    self._follow(client)
            except ReproError as exc:
                self._note(f"replication stream error: {exc}")
            except OSError as exc:
                self._note(f"primary {host}:{port} unreachable: {exc}")
            if self._halt.is_set():
                return
            self._retarget()
            self._halt.wait(self.retry_interval)

    def _follow(self, client) -> None:
        """Drain one healthy connection until it fails or we stop."""
        while not self._halt.is_set():
            response = client.repl_subscribe(
                from_seq=self.position,
                epoch=self.store.epoch,
                replica_id=self.replica_id,
                wait=self.poll_wait,
            )
            epoch = int(response.get("epoch", 0))
            if epoch > self.store.epoch:
                # the primary is ahead of us (we subscribed after a
                # promotion we missed): adopt its timeline's epoch
                self.store.set_epoch(epoch)
            try:
                if response.get("reset"):
                    self._apply_snapshot(response)
                else:
                    self._apply_records(response.get("records", []))
                    with self._lock:
                        self._position = max(
                            self._position, int(response.get("seq", 0))
                        )
            except _ResetNeeded as exc:
                self._note(str(exc))
                with self._lock:
                    self._position = -1
                continue
            client.repl_ack(
                replica_id=self.replica_id,
                seq=self.position,
                epoch=self.store.epoch,
            )

    def _apply_records(self, records: List[Dict[str, Any]]) -> None:
        for record in records:
            FAILPOINTS.hit("repl.pre_apply")
            apply_started = time.perf_counter()
            kind = record.get("kind", "ingest")
            try:
                if kind == "create":
                    self._apply_create(record)
                elif kind == "close":
                    self._apply_close(record.get("session", ""))
                else:
                    self._apply_ingest(record)
            except _ResetNeeded:
                raise
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                raise _ResetNeeded(
                    f"record at position {record.get('pos')} did not "
                    f"apply cleanly ({exc}); resyncing from snapshot"
                ) from exc
            _h_apply.record(time.perf_counter() - apply_started)
            _c_applied.inc()
            with self._lock:
                self._position = int(record["pos"]) + 1
            FAILPOINTS.hit("repl.post_apply")

    def _apply_create(self, record: Dict[str, Any]) -> None:
        name = record["session"]
        if name in self.manager:
            return  # idempotent: a rewind re-shipped the create
        spec = specification_from_json(record["spec"])
        session = self.manager.create(
            name,
            spec,
            scheme=record.get("scheme", "drl"),
            skeleton=record.get("skeleton", "tcl"),
            mode=record.get("mode", "logged"),
        )
        self.store.register(session)

    def _apply_close(self, name: str) -> None:
        try:
            session = self.manager.close(name)
        except SessionNotFoundError:
            return  # idempotent
        self.store.finalize(session)

    def _apply_ingest(self, record: Dict[str, Any]) -> None:
        """Replay one shipped record text as the session's next record.

        It is parsed as the line the local WAL would hold next and
        replayed like a recovered one, its fingerprint checked; the
        session takes its version and text.  A record held whole
        already is skipped; one that overlaps the local log in part
        raises :class:`_ResetNeeded`, as does a gap.  A record that does
        not replay closes the local session, whose labels may now run
        past its log, and raises; the resync then rebuilds it.
        """
        name = record["session"]
        try:
            session = self.manager.get(name)
        except SessionNotFoundError:
            raise _ResetNeeded(f"session {name!r} unknown locally") from None
        seq = len(session.log)
        try:
            logged = parse_record(f'{{"seq": {seq}, ' + record["text"], seq)
        except ValueError as exc:
            raise _ResetNeeded(
                f"session {name!r}: shipped record {exc}"
            ) from None
        held = len(session) - logged.start
        if held and held >= len(logged.events):
            return  # held whole already (snapshot overlap / retry)
        if held:
            raise _ResetNeeded(
                f"session {name!r}: shipped record starts at "
                f"{logged.start} with {len(logged.events)} insertions but "
                f"{len(session)} are applied locally (a gap or a partial "
                "overlap)"
            )
        try:
            replay_records(session, [logged], "shipped")
        except ServiceError:
            self._apply_close(name)
            raise

    def _apply_snapshot(self, response: Dict[str, Any]) -> None:
        """Rebuild local state from a full snapshot (reset path)."""
        log_event(
            _logger, logging.INFO, "replica-resync",
            replica=self.replica_id, position=self.position,
            reset_to=response.get("seq"),
        )
        snapshot = response.get("snapshot", [])
        shipped = {entry["session"] for entry in snapshot}
        for name in self.manager.names():
            if name not in shipped:
                self._apply_close(name)
        for entry in snapshot:
            self._apply_snapshot_entry(entry)
        with self._lock:
            self._position = int(response.get("seq", 0))

    def _apply_snapshot_entry(self, entry: Dict[str, Any]) -> None:
        """Replay one session's shipped WAL header and lines.

        A local copy that holds a prefix of them -- the same header, and
        it ends where a shipped record ends, at that record's version --
        replays only the rest; any other local copy (ahead of the
        snapshot: a diverged timeline, we were primary once) is closed
        and the session rebuilt from every line.
        """
        name = entry["session"]
        where = "reset snapshot"
        records = []
        for seq, line in enumerate(entry["lines"]):
            try:
                records.append(parse_record(line, seq))
            except ValueError as exc:
                raise ServiceError(
                    f"session {name!r}: {where} line {seq + 1} {exc}"
                ) from None
        try:
            session = self.manager.get(name)
        except SessionNotFoundError:
            session = None
        held = None if session is None else _held_records(
            session, entry["header"], records
        )
        if held is None:
            if session is not None:
                self._apply_close(name)
            session = open_session(name, entry["header"], where)
            replay_records(session, records, where)
            self.store.register(session)
            self.manager.adopt(session)
            return
        try:
            replay_records(session, records[held:], where)
        except ServiceError:
            self._apply_close(name)  # its labels ran past its log
            raise

    # ------------------------------------------------------------------
    # retargeting after a primary death
    # ------------------------------------------------------------------
    def _retarget(self) -> None:
        best: Optional[Tuple[str, int]] = None
        best_epoch = -1
        for endpoint in self.peers:
            info = probe_replication(endpoint)
            if info is None:
                continue
            if info.get("role") != "primary" or info.get("fenced"):
                continue
            epoch = int(info.get("epoch", 0))
            if epoch > best_epoch:
                best, best_epoch = endpoint, epoch
        if best is not None and best != self.primary:
            log_event(
                _logger, logging.INFO, "replica-retarget",
                replica=self.replica_id,
                old=f"{self.primary[0]}:{self.primary[1]}",
                new=f"{best[0]}:{best[1]}", epoch=best_epoch,
            )
            self.primary = best

    def _note(self, message: str) -> None:
        if not self.errors or self.errors[-1] != message:
            self.errors.append(message)
            del self.errors[:-20]  # bounded


def probe_replication(
    endpoint: Tuple[str, int], timeout: float = 2.0
) -> Optional[Dict[str, Any]]:
    """One endpoint's ``recover_info`` replication block, or ``None``.

    Used by appliers hunting the live primary and by supervisors
    choosing a promotion target; unreachable or non-durable endpoints
    simply answer ``None``.
    """
    from repro.service.client import ServiceClient

    host, port = endpoint
    try:
        with ServiceClient(
            host, port, timeout=timeout, reconnect=False
        ) as client:
            info = client.recover_info()
    except (ReproError, OSError):
        return None
    replication = info.get("replication")
    if not isinstance(replication, dict):
        return None
    replication = dict(replication)
    replication.setdefault("fenced", info.get("fenced", False))
    return replication


def choose_promotion_target(
    endpoints: Sequence[Tuple[str, int]],
) -> Optional[Tuple[str, int]]:
    """The most-caught-up live replica among ``endpoints``.

    Prefix coverage means the replica with the highest applied ship
    position holds a superset of every other's acknowledged state, so
    promoting it can never lose an acknowledged write that any replica
    still holds.
    """
    best: Optional[Tuple[str, int]] = None
    best_key = (-1, -1)
    for endpoint in endpoints:
        info = probe_replication(endpoint)
        if info is None or info.get("role") != "replica":
            continue
        key = (int(info.get("epoch", 0)), int(info.get("applied", 0)))
        if key > best_key:
            best, best_key = endpoint, key
    return best
