"""Differential op conformance: every topology answers every op alike.

One seeded script sends every op in :data:`repro.service.protocol.OPS`
-- session-keyed and session-less, valid and malformed, plus lines that
are no request at all -- to the in-process server and to ``--workers 1``
and ``--workers 2`` clusters, each durable and not.  The router must
answer every line, and each answer must equal the in-process server's
once the topology fields (``workers``, ``per_worker``, ``cluster``) are
dropped.  Every other normalization is an entry of :data:`NORMALIZED`
and every op a router answers itself one of :data:`ROUTER_REFUSES`,
each with its reason (docs/SERVICE.md lists them).  The script is keyed
by op, so an op added to ``OPS`` fails this test until it is placed.
"""

from __future__ import annotations

import json
import random
import socket
import threading

import pytest

from repro.service import ClusterSupervisor
from repro.service.protocol import OPS, insertions_to_wire
from repro.service.server import ReproServer, ReproService
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation

TOPOLOGY_FIELDS = ("workers", "per_worker", "cluster")


def _drop(result, *keys):
    return {k: v for k, v in result.items() if k not in keys}


#: key -> (reason, what of a reply is compared), read on both sides
NORMALIZED = {
    "stats": (
        "its *_seconds fields are timings",
        lambda reply: _drop(reply["result"], *[
            key for key in reply["result"] if key.endswith("_seconds")]),
    ),
    "metrics": (
        "series are per process: their values are timings and counts over "
        "the process's life, and a router counts a broadcast once per worker",
        lambda reply: sorted(reply["result"]),
    ),
    "recover_info": (
        "a router answers the torn tails its workers dropped, and each "
        "worker's own durability state under per_worker",
        lambda reply: reply["result"]["durable"],
    ),
    "cluster_info": (
        "a router also counts its worker respawns",
        lambda reply: _drop(reply["result"], "restarts"),
    ),
    "session-list": (
        "the router refuses a list of sessions itself, naming why no single "
        "worker can own it; the server refuses it as a malformed name",
        lambda reply: (reply["ok"], reply["code"], reply["trace_id"]),
    ),
}

#: ops a router refuses itself, whatever a server answers, and why
ROUTER_REFUSES = dict.fromkeys(
    ("repl_subscribe", "repl_ack", "promote"),
    "replication pairs whole servers, and a router's feed would cover "
    "one worker's sessions only",
)


def compared(key, reply):
    """What of ``reply`` is compared: topology fields dropped, then the
    key's normalization, if it has one."""
    if isinstance(reply.get("result"), dict):
        reply = dict(reply, result=_drop(reply["result"], *TOPOLOGY_FIELDS))
    return NORMALIZED[key][1](reply) if key in NORMALIZED else reply


def build_script(running_spec):
    """``(key, line)`` pairs in send order; a key is an op, or a named
    line that is no well-formed request."""
    run = sample_run(running_spec, 40, random.Random(3))
    events = insertions_to_wire(execution_from_derivation(run).insertions)
    vids = [event["vid"] for event in events[:10]]
    rng = random.Random(4)
    pairs = [[rng.choice(vids), rng.choice(vids)] for _ in range(16)]
    steps = [
        ("ping", {}),
        ("schemes", {}),
        ("list_sessions", {}),
        ("create_session", {"name": "alpha", "spec": "running-example"}),
        ("create_session", {"name": "beta", "spec": "running-example"}),
        ("create_session", {"name": "alpha", "spec": "running-example"}),
        ("create_session", {"spec": "running-example"}),
        ("create_session", {"name": "gamma", "spec": "no-such-spec"}),
        ("ingest", {"session": "alpha", "insertions": events[:10]}),
        ("ingest", {"session": "beta", "insertions": events[:6]}),
        ("ingest", {"session": "alpha", "insertions": events[:2]}),
        ("ingest", {"session": "nope", "insertions": events[10:12]}),
        ("ingest", {"session": "alpha"}),
        ("ingest", {"session": "alpha", "insertions": [{"vid": "x"}]}),
        ("query", {"session": "alpha", "source": vids[0],
                   "target": vids[5]}),
        ("query", {"session": "alpha", "source": vids[0], "target": 999}),
        ("query", {"session": "alpha"}),
        ("query", {"session": "alpha", "source": 0, "target": 1,
                   "as_of": 1}),
        ("query_batch", {"session": "alpha", "pairs": pairs}),
        ("query_batch", {"session": "alpha", "pairs": "bad"}),
        ("session-list", {"op": "query_batch",
                          "session": ["alpha", "beta"], "pairs": [[0, 0]]}),
        ("snapshot", {"session": "alpha"}),
        ("snapshot", {"session": "nope"}),
        ("snapshot", {}),
        ("sync", {}),
        ("sync", {"session": "alpha"}),
        ("sync", {"session": "nope"}),
        ("recover_info", {}),
        ("stats", {}),
        ("metrics", {}),
        ("close", {"session": "beta"}),
        ("close", {"session": "beta"}),
        ("close", {}),
        ("list_sessions", {}),
        ("cluster_info", {}),
        ("repl_subscribe", {"from_seq": -1}),
        ("repl_subscribe", {}),
        ("repl_ack", {"replica_id": "r", "seq": 0}),
        ("repl_ack", {"seq": "x"}),
        ("promote", {}),
        ("promote", {"epoch": "x"}),
        ("not-json", None),
        ("not-an-object", [1, 2]),
        ("no-op", {"op": None}),
        ("unknown-op", {"op": "no_such_op"}),
        ("shutdown", {}),
    ]
    script = []
    for index, (key, params) in enumerate(steps):
        if params is None:
            line = "this is not json"
        elif isinstance(params, list):
            line = json.dumps(params)
        else:
            request = {"op": key, **params, "id": index,
                       "trace_id": f"t{index}"}
            line = json.dumps({k: v for k, v in request.items()
                               if v is not None})
        script.append((key, line))
    return script


def talk(port, script):
    """Send the script line by line; every line must be answered."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        stream = sock.makefile("rwb")
        replies = []
        for key, line in script:
            stream.write(line.encode("utf-8") + b"\n")
            stream.flush()
            reply = stream.readline()
            assert reply, f"no answer to {key}: {line}"
            replies.append(json.loads(reply))
        return replies


def in_process(data_dir, script):
    server = ReproServer(
        ("127.0.0.1", 0), ReproService(data_dir=data_dir, fsync="never")
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        return talk(server.port, script)
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()


def routed(workers, data_dir, script):
    supervisor = ClusterSupervisor(
        port=0, workers=workers, data_dir=data_dir, fsync="never"
    ).start()
    thread = threading.Thread(target=supervisor.serve_forever, daemon=True)
    thread.start()
    try:
        return talk(supervisor.port, script)
    finally:
        supervisor.stop()
        thread.join(timeout=20)


def test_every_op_is_in_the_script(running_spec):
    placed = {key for key, _ in build_script(running_spec)}
    assert set(OPS) <= placed, sorted(set(OPS) - placed)


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_every_topology_answers_every_op_alike(durable, running_spec,
                                               tmp_path):
    script = build_script(running_spec)

    def home(name):
        return str(tmp_path / name) if durable else None

    reference = in_process(home("in-process"), script)
    for workers in (1, 2):
        replies = routed(workers, home(f"workers-{workers}"), script)
        for (key, line), reply, expected in zip(script, replies, reference):
            if key in ROUTER_REFUSES:
                assert reply["ok"] is False and reply["code"] == "service"
                assert "follows each worker directly" in reply["error"]
                assert reply["trace_id"] == expected["trace_id"]
            else:
                assert compared(key, reply) == compared(key, expected), (
                    workers, line)
