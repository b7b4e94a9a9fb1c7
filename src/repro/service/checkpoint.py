"""Checkpoint export and import of live sessions.

A checkpoint is the portable copy of a session that ``snapshot path=``
writes and ``create_session checkpoint=`` reads back; a durable
server's own state is its write-ahead log (:mod:`repro.service.wal`),
not a checkpoint.  It is a directory of four JSON documents::

    manifest.json   session name, spec name, scheme name, skeleton/mode,
                    version, vertex count, format tag
    spec.json       the specification (repro.io.jsonio schema)
    log.json        the insertion log so far (execution-log schema)
    labels.json     the labels assigned so far (repro.io.labelstore,
                    compact binary codec dispatched on the scheme name)

Labels are write-once, so a checkpoint never needs to rewrite earlier
state: a later checkpoint of the same session is a strict superset of
an earlier one, which makes the format append-friendly.

Restoring rebuilds the session under the *recorded scheme* and replays
the insertion log through a fresh labeler -- labeling is deterministic,
so the replay reassigns exactly the labels the live session had -- and
then verifies the recomputed labels against the stored ones, turning
label persistence into an integrity check rather than a trusted input.
The restored session continues ingesting from where the checkpoint was
taken.  Checkpoints written before the scheme field existed restore as
``drl`` (the only scheme that could have written them).

Durability: by default every staged document is fsynced before its
rename and the directory is fsynced after the manifest rename, so a
completed :func:`checkpoint_session` survives power loss, not just
process death.  ``durable=False`` skips the fsyncs (tests, throwaway
snapshots on tmpfs).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

from repro.errors import ServiceError
from repro.obs.metrics import default_registry
from repro.obs.names import CHECKPOINT_WRITE_SECONDS
from repro.io.jsonio import (
    execution_from_json,
    execution_to_json,
    specification_from_json,
    specification_to_json,
)
from repro.io.labelstore import load_label_store, peek_label_store, save_labels
from repro.io.xmlio import FormatError
from repro.service.sessions import Session, SessionManager

# wall time of one full checkpoint write (snapshot + staged files +
# fsyncs)
_h_write = default_registry().histogram(CHECKPOINT_WRITE_SECONDS)

_FORMAT = "repro-checkpoint"
_VERSION = 1

_MANIFEST = "manifest.json"
_SPEC = "spec.json"
_LOG = "log.json"
_LABELS = "labels.json"


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


def checkpoint_session(session: Session, directory, durable: bool = True) -> Path:
    """Write a consistent checkpoint of ``session`` into ``directory``.

    The snapshot is taken under the session lock, so it reflects one
    version even while writers keep ingesting.  With ``durable`` (the
    default) each staged file is fsynced before its rename and the
    directory is fsynced after the manifest rename, so the checkpoint
    survives power loss.  Returns the directory.
    """
    write_started = time.perf_counter()
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    version, labels, log = session.snapshot_state()
    manifest = {
        "format": _FORMAT,
        "version": _VERSION,
        "session": session.name,
        "spec": session.spec.name,
        "scheme": session.scheme_name,
        "skeleton": session.skeleton,
        "mode": session.mode,
        "session_version": version,
        "vertices": len(labels),
    }
    # every document is staged under a temp name, fsynced, and
    # atomically renamed into place, manifest last: a crash while
    # staging leaves any prior checkpoint in the directory untouched,
    # and a fresh directory only gains a manifest once every other
    # document is durably in place.  The manifest's vertex count lets
    # restore detect the narrow window where a re-checkpoint crashed
    # between renames.
    stage = [
        (_SPEC, lambda p: _dump(specification_to_json(session.spec), p)),
        (_LOG, lambda p: _dump(execution_to_json(log, session.spec.name), p)),
        (
            _LABELS,
            lambda p: save_labels(
                labels, session.spec, p, scheme=session.scheme_name
            ),
        ),
        (_MANIFEST, lambda p: _dump(manifest, p, indent=2)),
    ]
    for filename, write in stage:
        staged = path / (filename + ".tmp")
        write(staged)
        if durable:
            fsync_file(staged)
    for filename, _ in stage:
        os.replace(path / (filename + ".tmp"), path / filename)
    if durable:
        fsync_dir(path)
    _h_write.record(time.perf_counter() - write_started)
    return path


def _dump(document, path, indent=None) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=indent)  # repro: noqa[durability-fsync] -- checkpoint_session fsyncs every staged file (and the directory) before the manifest rename publishes them


def load_manifest(directory) -> dict:
    """Read and validate a checkpoint manifest."""
    path = Path(directory) / _MANIFEST
    if not path.exists():
        raise ServiceError(f"{directory} is not a checkpoint (no manifest)")
    with open(path) as handle:
        manifest = json.load(handle)
    if manifest.get("format") != _FORMAT:
        raise ServiceError(
            f"not a checkpoint manifest: {manifest.get('format')!r}"
        )
    return manifest


def restore_session(
    manager: SessionManager, directory, name: Optional[str] = None
) -> Session:
    """Rebuild a checkpointed session inside ``manager``.

    ``name`` overrides the checkpointed session name (useful when
    restoring next to a still-live original).  The insertion log is
    replayed through a fresh labeler and the recomputed labels are
    verified against the stored ones; any divergence aborts the restore.

    Everything that can fail cheaply is validated *before* the O(n)
    replay: the target name's availability (``adopt`` re-checks under
    its lock, so this is a fast-fail, not the correctness guarantee),
    and the label store's header -- a missing/corrupt store or a scheme
    mismatch against the manifest aborts without relabeling anything.
    """
    path = Path(directory)
    manifest = load_manifest(path)
    target = name or manifest["session"]
    if target in manager:
        raise ServiceError(f"session {target!r} already exists")
    scheme = manifest.get("scheme", "drl")
    try:
        stored_scheme, stored_count = peek_label_store(path / _LABELS)
    except FormatError as exc:
        raise ServiceError(f"checkpoint {path} is unusable: {exc}") from None
    if stored_scheme != scheme:
        raise ServiceError(
            f"checkpoint {path} is inconsistent: manifest records scheme "
            f"{scheme!r} but the label store was written by "
            f"{stored_scheme!r}"
        )
    with open(path / _SPEC) as handle:
        spec = specification_from_json(json.load(handle))
    with open(path / _LOG) as handle:
        log = execution_from_json(json.load(handle))
    if len(log) != manifest["vertices"] or stored_count != len(log):
        raise ServiceError(
            f"checkpoint {path} is inconsistent: manifest records "
            f"{manifest['vertices']} vertices but the log has {len(log)} "
            f"and the label store {stored_count} "
            "(mixed checkpoint generations?)"
        )
    session = Session(
        target,
        spec,
        scheme=scheme,
        skeleton=manifest["skeleton"],
        mode=manifest["mode"],
    )
    session.ingest_many(log)
    session.version = manifest["session_version"]
    stored_scheme, stored = load_label_store(spec, path / _LABELS)
    if dict(session.scheme.labels) != stored:
        raise ServiceError(
            f"checkpoint {path} is corrupt: replayed labels diverge "
            "from the stored labels"
        )
    return manager.adopt(session)
