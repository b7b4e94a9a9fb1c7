"""A concurrent multi-run provenance query service.

The library labels one execution at a time, in process.  This package
turns that capability into a long-lived *service*: many named runs
hosted concurrently (:mod:`repro.service.sessions`), single and batch
reachability queries answered straight from the labels
(:mod:`repro.service.engine`), a JSON-lines wire protocol
(:mod:`repro.service.protocol`) served over TCP or stdio
(:mod:`repro.service.server`, :mod:`repro.service.client`), and a
per-session write-ahead log with configurable fsync policy, crash
recovery by log replay under a ``--data-dir``, and checkpoint
export/import of live sessions as WAL files (:mod:`repro.service.wal`).
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
protocol op lists the available backends, and WAL headers (a
checkpoint is one) record the scheme a session is restored under.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".client": ("ServiceClient",),
    ".cluster": ("ClusterSupervisor", "session_worker"),
    ".engine": ("QueryEngine", "ServiceStats"),
    ".protocol": ("Request", "Response"),
    ".server": ("ReproServer", "ReproService", "serve_stdio"),
    ".sessions": ("Session", "SessionManager"),
    ".wal": (
        "DurableStore", "WriteAheadLog", "checkpoint_session", "replay_wal",
        "restore_session",
    ),
})

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
    "replay_wal",
]
