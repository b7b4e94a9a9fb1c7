"""JSON serialization of specifications and execution logs.

Mirrors :mod:`repro.io.xmlio` with plain dictionaries: practical for
modern pipelines and trivially diffable.  Documents carry a ``format``
tag and version for forward compatibility.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import FormatError, ProtocolError
from repro.graphs.two_terminal import TwoTerminalGraph
from repro.workflow.execution import Insertion
from repro.workflow.specification import Specification, make_spec

_SPEC_FORMAT = "repro-specification"
_EXEC_FORMAT = "repro-execution"
_VERSION = 1


def _graph_dict(graph: TwoTerminalGraph) -> Dict:
    return {
        "source": graph.source,
        "sink": graph.sink,
        "vertices": [
            {"id": vid, "name": graph.name(vid)}
            for vid in sorted(graph.vertices())
        ],
        "edges": [[u, v] for u, v in sorted(graph.edges())],
    }


def _graph_from_dict(doc: Dict) -> TwoTerminalGraph:
    try:
        vertices = [(v["id"], v["name"]) for v in doc["vertices"]]
        edges = [(u, v) for u, v in doc["edges"]]
        return TwoTerminalGraph.build(
            vertices, edges, source=doc["source"], sink=doc["sink"]
        )
    except KeyError as exc:
        raise FormatError(f"graph document missing field {exc}") from exc


def specification_to_json(spec: Specification) -> Dict:
    """Serialize a specification to a JSON-compatible dictionary."""
    graphs = []
    for key in spec.graph_keys():
        entry = {"key": key, "head": spec.head_of(key)}
        entry.update(_graph_dict(spec.graph(key)))
        graphs.append(entry)
    return {
        "format": _SPEC_FORMAT,
        "version": _VERSION,
        "name": spec.name,
        "loops": sorted(spec.loops),
        "forks": sorted(spec.forks),
        "graphs": graphs,
    }


def specification_from_json(doc: Dict) -> Specification:
    """Rebuild a specification from :func:`specification_to_json` output."""
    if doc.get("format") != _SPEC_FORMAT:
        raise FormatError(f"not a specification document: {doc.get('format')!r}")
    start = None
    implementations = []
    for entry in doc.get("graphs", []):
        graph = _graph_from_dict(entry)
        if entry.get("head") is None:
            if start is not None:
                raise FormatError("multiple start graphs")
            start = graph
        else:
            implementations.append((entry["head"], graph))
    if start is None:
        raise FormatError("missing start graph")
    return make_spec(
        start=start,
        implementations=implementations,
        loops=doc.get("loops", []),
        forks=doc.get("forks", []),
        name=doc.get("name", "spec"),
    )


def save_specification_json(spec: Specification, path) -> None:
    """Write a specification to a JSON file."""
    with open(path, "w") as handle:
        json.dump(specification_to_json(spec), handle, indent=2)


def load_specification_json(path) -> Specification:
    """Read a specification from a JSON file."""
    with open(path) as handle:
        return specification_from_json(json.load(handle))


# ---------------------------------------------------------------------------
# execution logs
# ---------------------------------------------------------------------------


def insertion_to_json(ins: Insertion) -> Dict:
    """Serialize a single insertion event to a JSON-compatible dictionary."""
    event: Dict = {
        "vid": ins.vid,
        "name": ins.name,
        "preds": sorted(ins.preds),
    }
    if ins.origin is not None:
        key, token, tv = ins.origin
        event["origin"] = {"key": key, "token": token, "tv": tv}
    if ins.slot is not None:
        token, tv = ins.slot
        event["slot"] = {"token": token, "tv": tv}
    return event


def insertion_from_json(event: Dict) -> Insertion:
    """Rebuild one insertion from :func:`insertion_to_json` output."""
    try:
        origin = None
        if "origin" in event:
            origin = (
                event["origin"]["key"],
                event["origin"]["token"],
                event["origin"]["tv"],
            )
        slot = None
        if "slot" in event:
            slot = (event["slot"]["token"], event["slot"]["tv"])
        return Insertion(
            vid=event["vid"],
            name=event["name"],
            preds=frozenset(event["preds"]),
            origin=origin,
            slot=slot,
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed insertion event: {exc}") from None


def insertions_to_wire(insertions: Iterable[Insertion]) -> List[Dict]:
    """Serialize insertions for a service ``ingest`` request."""
    return [insertion_to_json(ins) for ins in insertions]


def insertions_from_wire(events: Any) -> List[Insertion]:
    """Decode a service ``ingest`` payload (a list of insertion events).

    Every event is decoded and type-checked before any is returned, so
    a bad one refuses the whole request, with a
    :class:`~repro.errors.ProtocolError`, before anything is applied.
    """
    if isinstance(events, dict):  # a single bare event is accepted
        events = [events]
    if not isinstance(events, list):
        raise ProtocolError("'insertions' must be an event or event list")
    try:
        insertions = [insertion_from_json(event) for event in events]
    except FormatError as exc:
        raise ProtocolError(f"bad insertion event: {exc}") from None
    for index, insertion in enumerate(insertions):
        problem = _ill_typed(events[index]["preds"], insertion)
        if problem is not None:
            raise ProtocolError(f"bad insertion event {index}: {problem}")
    return insertions


def _ill_typed(preds: Any, insertion: Insertion) -> Optional[str]:
    """What breaks the wire types of one decoded event, if anything.

    ``type() is``, not ``isinstance``: JSON ``true`` decodes to a
    ``bool``, an ``int`` subclass, but is no vertex id.  ``preds`` is
    the raw list, because the decoded frozenset has already merged
    ``1`` and ``true``.
    """
    if type(insertion.vid) is not int:
        return "'vid' must be an integer"
    if type(insertion.name) is not str:
        return "'name' must be a string"
    if type(preds) is not list:
        return "'preds' must be a list of vertex ids"
    for pred in preds:
        if type(pred) is not int:
            return "'preds' must be a list of vertex ids"
    origin = insertion.origin
    if origin is not None and (
        type(origin[0]) is not str
        or type(origin[1]) is not int
        or type(origin[2]) is not int
    ):
        return "'origin' needs a string 'key' and integer 'token' and 'tv'"
    slot = insertion.slot
    if slot is not None and (
        type(slot[0]) is not int or type(slot[1]) is not int
    ):
        return "'slot' needs integer 'token' and 'tv'"
    return None


def execution_to_json(
    insertions: Iterable[Insertion], spec_name: str = ""
) -> Dict:
    """Serialize an insertion stream to a JSON-compatible dictionary."""
    return {
        "format": _EXEC_FORMAT,
        "version": _VERSION,
        "spec": spec_name,
        "insertions": [insertion_to_json(ins) for ins in insertions],
    }


def execution_from_json(doc: Dict) -> List[Insertion]:
    """Rebuild an insertion stream from :func:`execution_to_json` output."""
    if doc.get("format") != _EXEC_FORMAT:
        raise FormatError(f"not an execution document: {doc.get('format')!r}")
    return [insertion_from_json(event) for event in doc.get("insertions", [])]


def save_execution_json(insertions: Iterable[Insertion], path, spec_name="") -> None:
    """Write an execution log to a JSON file."""
    with open(path, "w") as handle:
        json.dump(execution_to_json(insertions, spec_name), handle, indent=2)


def load_execution_json(path) -> List[Insertion]:
    """Read an execution log from a JSON file."""
    with open(path) as handle:
        return execution_from_json(json.load(handle))
