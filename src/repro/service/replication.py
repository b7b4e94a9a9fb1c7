"""WAL shipping: read replicas, epoch fencing, replica promotion.

The durability layer already persists every acknowledged ingest as a
WAL record (:mod:`repro.service.wal`); this module ships that stream
to N read replicas over the ordinary JSON-lines protocol and manages
the role flip when the primary dies.

Topology
--------
One **primary** (a durable server) owns a :class:`ReplicationHub`: a
bounded in-memory ring of recently appended WAL records, each stamped
with a monotone global *ship position* (positions never reset, unlike
per-session WAL seqs which re-sequence at every checkpoint roll).  The
hub is fed by :attr:`DurableStore.on_append` -- records enter the ring
only after their WAL append succeeded, still under the session lock,
so the shipped stream is always a prefix of the durable log.

Each **replica** is itself a durable server (its own data dir, WAL and
checkpoints) started read-only with ``--replicate-from``.  Its
:class:`ReplicaApplier` thread long-polls ``repl_subscribe`` on the
primary, applies the returned records through the ordinary session
ingest path (so the replica's own WAL and checkpoints stay warm), and
reports coverage with ``repl_ack``.  A replica whose position fell off
the primary's ring (or that never bootstrapped) receives ``reset``
plus a full snapshot instead and rebuilds from it.  Applies are
idempotent: a record whose ``start`` precedes the local insertion log
length is skipped prefix-wise, so overlap after a snapshot or a retry
can never double-apply an event.

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
Every data dir persists a fencing *epoch* (``EPOCH``; stamped into WAL
headers).  ``promote`` bumps the epoch durably before the replica
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
from repro.io.jsonio import (
    insertion_from_json,
    insertion_to_json,
    specification_from_json,
    specification_to_json,
)
from repro.obs.logs import log_event
from repro.obs.metrics import default_registry
from repro.obs.names import (
    REPL_APPLY_SECONDS,
    REPL_RECORDS_APPLIED_TOTAL,
    REPL_RECORDS_SHIPPED_TOTAL,
)
from repro.service.sessions import Session, SessionManager
from repro.service.wal import DurableStore

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
    def publish(
        self,
        session: Session,
        start: int,
        version: int,
        events: List[Dict[str, Any]],
    ) -> None:
        """Ring one durably appended ingest batch for shipping."""
        with self._cond:
            record = {
                "pos": self._seq,
                "kind": "ingest",
                "session": session.name,
                "start": start,
                "version": version,
                "events": events,
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
        wait = min(max(0.0, float(wait)), 30.0)
        with self._cond:
            if from_seq < 0 or from_seq < self._min_seq:
                reset_to = self._seq
            else:
                deadline = time.monotonic() + wait
                while self._seq <= from_seq:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                records = [
                    dict(record)
                    for record in self._ring
                    if record["pos"] >= from_seq
                ]
                return {
                    "records": records,
                    "seq": self._seq,
                    "epoch": self.store.epoch,
                }
        # reset path: assemble the snapshot WITHOUT the hub lock (the
        # session locks it takes are the ones publish() holds *before*
        # taking the hub lock).  Records published meanwhile may overlap
        # the snapshot; prefix-idempotent apply absorbs the overlap.
        return {
            "reset": True,
            "seq": reset_to,
            "epoch": self.store.epoch,
            "snapshot": self._snapshot_all(),
        }

    def _snapshot_all(self) -> List[Dict[str, Any]]:
        snapshots: List[Dict[str, Any]] = []
        for name in self.manager.names():
            try:
                session = self.manager.get(name)
            except SessionNotFoundError:
                continue
            version, _, log = session.snapshot_state()
            snapshots.append(
                {
                    "session": name,
                    "spec": specification_to_json(session.spec),
                    "scheme": session.scheme_name,
                    "skeleton": session.skeleton,
                    "mode": session.mode,
                    "version": version,
                    "events": [insertion_to_json(event) for event in log],
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

    Applies go through the ordinary session ingest path, so the
    replica's own WAL/checkpoints track what it has applied and a
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
        try:
            session = self.manager.get(record["session"])
        except SessionNotFoundError:
            raise _ResetNeeded(
                f"session {record['session']!r} unknown locally"
            ) from None
        start = int(record["start"])
        events = record["events"]
        skip = len(session.log) - start
        if skip < 0:
            raise _ResetNeeded(
                f"gap: record starts at {start} but only "
                f"{len(session.log)} events are applied locally"
            )
        if skip >= len(events):
            return  # fully applied already (snapshot overlap / retry)
        session.ingest_many(
            [insertion_from_json(event) for event in events[skip:]]
        )
        session.version = int(record["version"])

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
            name = entry["session"]
            try:
                session = self.manager.get(name)
            except SessionNotFoundError:
                spec = specification_from_json(entry["spec"])
                session = self.manager.create(
                    name,
                    spec,
                    scheme=entry.get("scheme", "drl"),
                    skeleton=entry.get("skeleton", "tcl"),
                    mode=entry.get("mode", "logged"),
                )
                self.store.register(session)
            events = entry.get("events", [])
            skip = len(session.log)
            if skip > len(events):
                # the local copy is AHEAD of the snapshot: a diverged
                # timeline (we were primary once); rebuild from scratch
                self._apply_close(name)
                self._apply_snapshot_entry_fresh(entry)
                continue
            if skip < len(events):
                session.ingest_many(
                    [
                        insertion_from_json(event)
                        for event in events[skip:]
                    ]
                )
            session.version = int(entry.get("version", session.version))
        with self._lock:
            self._position = int(response.get("seq", 0))

    def _apply_snapshot_entry_fresh(self, entry: Dict[str, Any]) -> None:
        spec = specification_from_json(entry["spec"])
        session = self.manager.create(
            entry["session"],
            spec,
            scheme=entry.get("scheme", "drl"),
            skeleton=entry.get("skeleton", "tcl"),
            mode=entry.get("mode", "logged"),
        )
        self.store.register(session)
        events = entry.get("events", [])
        if events:
            session.ingest_many(
                [insertion_from_json(event) for event in events]
            )
        session.version = int(entry.get("version", session.version))

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
