"""A concurrent multi-run provenance query service.

The library labels one execution at a time, in process.  This package
turns that capability into a long-lived *service*: many named runs
hosted concurrently (:mod:`repro.service.sessions`), single and batch
reachability queries answered straight from the labels
(:mod:`repro.service.engine`), a JSON-lines wire protocol
(:mod:`repro.service.protocol`) served over TCP or stdio
(:mod:`repro.service.server`, :mod:`repro.service.client`),
checkpoint/recovery of live sessions built on the label store
(:mod:`repro.service.checkpoint`), and -- under a ``--data-dir`` -- a
per-session write-ahead log with configurable fsync policy, background
checkpoint rolling, and crash recovery (:mod:`repro.service.wal`).
``repro serve --workers N`` escapes the GIL entirely: a supervisor
forks N worker processes, each owning a disjoint slice of sessions by
stable name hash, behind a single-threaded hash-routing frontend that
speaks the same wire protocol (:mod:`repro.service.cluster`).

Because dynamic labels are assigned on-the-fly and never change, the
service answers provenance queries about a run *while that run is
still executing* -- the paper's central capability, lifted to a
serveable system.  Each session's labeling backend is pluggable: the
wire-visible ``scheme`` field names any registered *dynamic* scheme
(:mod:`repro.schemes.registry`; DRL by default), the ``schemes``
protocol op lists the available backends, and checkpoints record and
restore the scheme they were written under.
"""

from repro.service.checkpoint import checkpoint_session, restore_session
from repro.service.client import ServiceClient
from repro.service.cluster import ClusterSupervisor, session_worker
from repro.service.engine import QueryEngine, ServiceStats
from repro.service.protocol import Request, Response
from repro.service.server import ReproServer, ReproService, serve_stdio
from repro.service.sessions import Session, SessionManager
from repro.service.wal import (
    Checkpointer,
    DurableStore,
    WriteAheadLog,
    replay_wal,
)

__all__ = [
    "Session",
    "SessionManager",
    "QueryEngine",
    "ServiceStats",
    "Request",
    "Response",
    "ReproService",
    "ReproServer",
    "ServiceClient",
    "ClusterSupervisor",
    "session_worker",
    "serve_stdio",
    "checkpoint_session",
    "restore_session",
    "WriteAheadLog",
    "DurableStore",
    "Checkpointer",
    "replay_wal",
]
