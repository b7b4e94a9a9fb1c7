"""Persisted label maps: the compact binary codec on disk.

A label store is a JSON document mapping vertex ids to base64-encoded
bitstrings produced by the scheme's codec (resolved through
:func:`repro.labeling.serialize.codec_for_scheme`, so any registered
dynamic scheme -- ``drl``, ``naive``, ``path-position`` -- persists
through the same format).  The document records which scheme produced
the labels; loading dispatches on that name, so a store is
self-describing.  This is what a provenance system would keep next to
its execution log: labels are written once (they never change) and
loaded back to answer queries without re-labeling the run.
"""

from __future__ import annotations

import base64
import json
from typing import Dict, Tuple

from repro.errors import FormatError
from repro.labeling.serialize import codec_for_scheme
from repro.workflow.specification import Specification

_FORMAT = "repro-labels"
_VERSION = 1


def save_labels(
    labels: Dict[int, object],
    spec: Specification,
    path,
    scheme: str = "drl",
) -> None:
    """Encode and write a vertex -> label map under one scheme's codec."""
    codec = codec_for_scheme(scheme, spec)
    entries = {}
    for vid, label in labels.items():
        payload, bits = codec.encode(label)
        entries[str(vid)] = {
            "bits": bits,
            "data": base64.b64encode(payload).decode("ascii"),
        }
    document = {
        "format": _FORMAT,
        "version": _VERSION,
        "spec": spec.name,
        "scheme": scheme,
        # the codec's per-label wire format (1 = the original entry
        # encoding; 2 = packed drl labels); readers dispatch on it
        "codec": getattr(codec, "wire_version", 1),
        "labels": entries,
    }
    with open(path, "w") as handle:
        json.dump(document, handle)


def peek_label_store(path) -> Tuple[str, int]:
    """Validate a label store's header without decoding any label.

    Returns ``(scheme name, label count)``.  Raises :class:`FormatError`
    when the file is missing, is not JSON, or lacks the label-store
    format tag -- a cheap up-front check for callers (checkpoint
    restore) that would otherwise pay a full O(n) relabeling before
    discovering the store is unusable.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise FormatError(f"label store {path} does not exist") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"label store {path} is unreadable: {exc}") from None
    if not isinstance(document, dict) or document.get("format") != _FORMAT:
        tag = document.get("format") if isinstance(document, dict) else document
        raise FormatError(f"not a label store: {tag!r}")
    labels = document.get("labels", {})
    count = len(labels) if isinstance(labels, dict) else 0
    return document.get("scheme", "drl"), count


def load_label_store(
    spec: Specification, path
) -> Tuple[str, Dict[int, object]]:
    """Read a label store; returns ``(scheme name, vid -> label)``.

    Stores written before the scheme field existed decode as ``drl``
    (the only scheme that could have written them).
    """
    with open(path) as handle:
        document = json.load(handle)
    if document.get("format") != _FORMAT:
        raise FormatError(f"not a label store: {document.get('format')!r}")
    scheme = document.get("scheme", "drl")
    codec = codec_for_scheme(scheme, spec)
    wire = document.get("codec", 1)
    decode_compat = getattr(codec, "decode_compat", None)
    if decode_compat is not None:
        decode = lambda payload, bits: decode_compat(payload, bits, wire)
    elif wire != getattr(codec, "wire_version", 1):
        raise FormatError(
            f"label store {path} uses wire version {wire!r}, which the "
            f"{scheme!r} codec cannot read"
        )
    else:
        decode = codec.decode
    labels: Dict[int, object] = {}
    for vid, entry in document.get("labels", {}).items():
        payload = base64.b64decode(entry["data"])
        labels[int(vid)] = decode(payload, entry["bits"])
    return scheme, labels


def load_labels(spec: Specification, path) -> Dict[int, object]:
    """Read just the vertex -> label map written by :func:`save_labels`."""
    _, labels = load_label_store(spec, path)
    return labels
