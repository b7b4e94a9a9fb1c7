"""Layer tracing for server processes started by ``run.py --trace 1``.

``run.py`` prepends this directory to a traced server's ``PYTHONPATH``
and names an output directory in ``REPRO_E2E_TRACE_DIR``.  Python
imports ``sitecustomize`` at start-up in the server, in the cluster
router and in every spawn-started cluster worker alike, so each of them
wraps the same public functions here.  Without the variable this module
does nothing.

On ``SIGUSR1`` the process writes its spans to
``<dir>/spans-<pid>.jsonl``; the harness sends it before it kills or
stops a server, and waits for the file.
"""

import os

_TRACE_DIR = os.environ.get("REPRO_E2E_TRACE_DIR")


def _dir_bytes(path):
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def _install(trace_dir):
    import signal

    from e2e_spans import SpanRecorder

    from repro.schemes.adapters import DRLScheme
    from repro.service import cluster, server, wal
    from repro.service.engine import QueryEngine
    from repro.service.sessions import Session

    recorder = SpanRecorder()
    wrap = recorder.wrap
    for module in (server, cluster):
        wrap(module, "decode_request", "protocol.decode",
             trace_out=lambda request: request.trace_id)
        wrap(module, "encode_response", "protocol.encode",
             trace_in=lambda a, k: a[0].trace_id)
    wrap(server.ReproService, "handle", "server.handle",
         trace_in=lambda a, k: a[1].trace_id, tag_of=lambda a, k: a[1].op)
    wrap(QueryEngine, "query_many", "engine.query_many",
         count_of=lambda a, k, r: len(r))
    wrap(QueryEngine, "ingest", "engine.ingest",
         count_of=lambda a, k, r: r[0])
    wrap(Session, "ingest_many", "sessions.ingest_many",
         count_of=lambda a, k, r: r)
    wrap(DRLScheme, "query_many", "labeling.query_many",
         count_of=lambda a, k, r: len(r))
    # WAL bytes are the log file's growth across the append
    wrap(wal.WriteAheadLog, "append", "wal.append",
         count_of=lambda a, k, r: len(a[3]),
         size_of=lambda a: os.fstat(a[0]._handle.fileno()).st_size)
    wrap(os, "fsync", "os.fsync")
    wrap(wal.DurableStore, "checkpoint", "checkpoint.roll",
         count_of=lambda a, k, r: _dir_bytes(
             a[0].generation_dir(a[1].name, r["checkpoint_version"])))
    wrap(wal.DurableStore, "recover", "checkpoint.recover",
         count_of=lambda a, k, r: len(r))
    # separates checkpoint restores from WAL-tail replay inside recover
    wrap(wal, "restore_session", "checkpoint.restore")

    def dump(_signum, _frame):
        recorder.dump(os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"))

    signal.signal(signal.SIGUSR1, dump)


if _TRACE_DIR:
    _install(_TRACE_DIR)
