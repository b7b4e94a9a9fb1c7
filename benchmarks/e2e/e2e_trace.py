"""Per-layer metrics from the spans of a traced run.

The generator records ``client.call`` (``ServiceClient.call``) with its
codec children; each server process records its layer spans (see
``trace_hook/sitecustomize.py``).  Spans of one request share its wire
trace id, so a client round trip splits exactly into::

    rtt = client codec + wire + server gaps + sum of server self times

where *wire* is the round trip outside the server's first-to-last span
(sockets, thread wake-ups, the cluster router) and *gaps* is server
time between its top-level spans.  Self time is a span minus the part
of it its child spans cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from e2e_spans import (
    COUNT, END, ID, NAME, NBYTES, PARENT, START, TAG, TRACE,
    SpanRecorder, load_spans,
)
from e2e_stats import covered_length, self_time

#: the server spans a request enters at top level
TOP_LEVEL = ("protocol.decode", "server.handle", "protocol.encode")
CLIENT_CODEC = ("client.encode", "client.decode")

#: per-layer metrics in report order: name -> unit
LAYER_METRICS = {
    "client.rtt_us": "us",
    "client.codec_us": "us",
    "client.gen_cpu_frac": "ratio",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "server.handle_self_us": "us",
    "server.wire_us": "us",
    "server.cpu_us_per_req": "us/req",
    "cluster.hop_us": "us",
    "cluster.router_cpu_us_per_req": "us/req",
    "engine.query_self_us": "us",
    "engine.hit_rate": "ratio",
    "engine.ingest_self_us": "us",
    "labeling.kernel_ns_per_pair": "ns/pair",
    "labeling.kernel_pairs": "count",
    "sessions.ingest_self_us": "us",
    "sessions.label_ns_per_event": "ns/event",
    "wal.append_self_us": "us",
    "wal.fsync_ms": "ms",
    "wal.fsyncs_per_ack": "count",
    "wal.bytes_per_event": "B/event",
    "checkpoint.roll_ms": "ms",
    "checkpoint.bytes_written": "B",
    "checkpoint.recover_s": "s",
    "checkpoint.replay_events_per_s": "events/s",
    "trace.residual_us": "us",
}


def install_client_hooks() -> SpanRecorder:
    """Wrap the generator's client calls and codec (this process)."""
    from repro.service import client as client_module

    recorder = SpanRecorder()
    recorder.wrap(client_module.ServiceClient, "call", "client.call",
                  trace_in=lambda a, k: k.get("trace_id"),
                  tag_of=lambda a, k: a[1])
    recorder.wrap(client_module, "encode_request", "client.encode")
    recorder.wrap(client_module, "decode_response", "client.decode")
    return recorder


def uninstall_client_hooks() -> None:
    from repro.service import client as client_module

    for owner, attr in ((client_module.ServiceClient, "call"),
                        (client_module, "encode_request"),
                        (client_module, "decode_response")):
        original = getattr(getattr(owner, attr), "__wrapped__", None)
        if original is not None:
            setattr(owner, attr, original)


class Spans:
    """The spans of one process, indexed by parent."""

    def __init__(self, spans: List[list]) -> None:
        self.spans = spans
        self.children: Dict[int, List[list]] = defaultdict(list)
        for span in spans:
            if span[PARENT] >= 0:
                self.children[span[PARENT]].append(span)

    @classmethod
    def load(cls, trace_dir: Path, pid: int) -> "Spans":
        return cls(load_spans(str(trace_dir / f"spans-{pid}.jsonl")))

    def self_ns(self, span: list) -> int:
        return self_time(
            span[START], span[END],
            ((c[START], c[END]) for c in self.children.get(span[ID], ())),
        )

    def named(self, name: str, within: Optional[Tuple[int, int]] = None):
        for span in self.spans:
            if span[NAME] == name and (
                within is None or within[0] <= span[START] < within[1]
            ):
                yield span


def _dur(span: list) -> int:
    return span[END] - span[START]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def attribute(
    calls: Iterable[list], client: Spans, handlers: Sequence[Spans]
) -> Dict[str, Dict[str, float]]:
    """Split each client round trip into its parts, summed per op.

    Returns ``{op: {part: total ns, "requests": n, "rtt": total ns}}``;
    the parts of one op add up to its ``rtt`` exactly.
    """
    by_trace: Dict[str, List[Tuple[Spans, list]]] = defaultdict(list)
    for process in handlers:
        for span in process.spans:
            if span[TRACE] is not None:
                by_trace[span[TRACE]].append((process, span))
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for call in calls:
        row = table[call[TAG]]
        row["requests"] += 1
        rtt = _dur(call)
        row["rtt"] += rtt
        codec = sum(
            _dur(child) for child in client.children.get(call[ID], ())
            if child[NAME] in CLIENT_CODEC
        )
        row["client.codec"] += codec
        spans = [
            (process, span) for process, span in by_trace.get(call[TRACE], ())
            if call[START] <= span[START] < call[END]
        ]
        top = [(s[START], s[END]) for _, s in spans if s[NAME] in TOP_LEVEL]
        if not top:
            row["wire"] += rtt - codec
            continue
        served = max(end for _, end in top) - min(start for start, _ in top)
        row["wire"] += rtt - codec - served
        row["server.gaps"] += served - covered_length(top)
        for process, span in spans:
            row[span[NAME]] += process.self_ns(span)
    return table


def layer_metrics(
    client_spans: List[list],
    trace_dir: Path,
    servers: Sequence[Tuple[str, Optional[int], List[int]]],
    window: Tuple[float, float],
    latencies: Dict[str, List[float]],
    gen_cpu_frac: float,
    hit_rate: float,
    server_cpu: Dict[int, float],
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Dict[str, float]]]:
    """Every per-layer metric of one traced trial, and the attribution
    table.  ``servers`` lists ``(role, router pid, handler pids)`` of
    each traced server: the measured one is role ``main``, each
    post-crash restart is role ``restart``.  ``latencies`` are the
    generator's per-request seconds by op."""
    t0, t1 = int(window[0] * 1e9), int(window[1] * 1e9)
    client = Spans(client_spans)
    calls = list(client.named("client.call", (t0, t1)))
    n_calls = max(len(calls), 1)
    main = [entry for entry in servers if entry[0] == "main"][0]
    _, router_pid, handler_pids = main
    handlers = [Spans.load(trace_dir, pid) for pid in handler_pids]
    restarts = [
        [Spans.load(trace_dir, pid) for pid in pids]
        for role, _, pids in servers if role == "restart"
    ]

    def spans_of(name: str, within=(t0, t1)):
        return [(p, s) for p in handlers for s in p.named(name, within)]

    def mean_self_us(name: str) -> float:
        return _mean([p.self_ns(s) for p, s in spans_of(name)]) / 1e3

    table = attribute(calls, client, handlers)
    total = defaultdict(float)
    for row in table.values():
        for part, value in row.items():
            total[part] += value
    requests = max(total["requests"], 1)
    wire_us = total["wire"] / requests / 1e3

    kernel = spans_of("labeling.query_many")
    kernel_pairs = sum(s[COUNT] for _, s in kernel)
    sessions = spans_of("sessions.ingest_many")
    session_events = sum(s[COUNT] for _, s in sessions)
    appends = spans_of("wal.append")
    append_events = sum(s[COUNT] for _, s in appends)
    ingest_traces = {
        s[TRACE] for _, s in spans_of("server.handle") if s[TAG] == "ingest"
    }
    fsyncs = spans_of("os.fsync")
    append_ids = {s[ID] for _, s in appends}
    ack_fsyncs = [s for _, s in fsyncs if s[PARENT] in append_ids]
    rolls = [s for p in handlers for s in p.named("checkpoint.roll")
             if s[START] >= t1]
    recover_s, replay_events, replay_ns = [], 0, 0
    for processes in restarts:
        recovers = [s for p in processes for s in p.named("checkpoint.recover")]
        if recovers:
            recover_s.append(sum(_dur(s) for s in recovers) / 1e9)
        for process in processes:
            ids = {s[ID] for s in process.named("checkpoint.recover")}
            for span in process.named("sessions.ingest_many"):
                if span[PARENT] in ids:
                    replay_events += span[COUNT]
                    replay_ns += _dur(span)
    handler_cpu = sum(v for pid, v in server_cpu.items() if pid != router_pid)
    router_cpu = server_cpu.get(router_pid, 0.0) if router_pid else 0.0
    primary_op = "ingest" if "query_batch" not in table else "query_batch"
    primary = table.get(primary_op, {})
    primary_requests = max(primary.get("requests", 0), 1)
    generator = latencies.get(primary_op, [])
    residual_us = (
        (_mean(generator) * 1e9 - primary.get("rtt", 0) / primary_requests
         + primary.get("server.gaps", 0) / primary_requests) / 1e3
        if generator else 0.0
    )
    values = {
        "client.rtt_us": total["rtt"] / requests / 1e3,
        "client.codec_us": total["client.codec"] / requests / 1e3,
        "client.gen_cpu_frac": gen_cpu_frac,
        "protocol.decode_us": mean_self_us("protocol.decode"),
        "protocol.encode_us": mean_self_us("protocol.encode"),
        "server.handle_self_us": mean_self_us("server.handle"),
        "server.wire_us": wire_us,
        "server.cpu_us_per_req": handler_cpu * 1e6 / n_calls,
        "cluster.hop_us": wire_us if router_pid is not None else 0.0,
        "cluster.router_cpu_us_per_req": router_cpu * 1e6 / n_calls,
        "engine.query_self_us": mean_self_us("engine.query_many"),
        "engine.hit_rate": hit_rate,
        "engine.ingest_self_us": mean_self_us("engine.ingest"),
        "labeling.kernel_ns_per_pair": (
            sum(_dur(s) for _, s in kernel) / kernel_pairs
            if kernel_pairs else 0.0),
        "labeling.kernel_pairs": float(kernel_pairs),
        "sessions.ingest_self_us": mean_self_us("sessions.ingest_many"),
        "sessions.label_ns_per_event": (
            sum(p.self_ns(s) for p, s in sessions) / session_events
            if session_events else 0.0),
        "wal.append_self_us": mean_self_us("wal.append"),
        "wal.fsync_ms": _mean([_dur(s) for s in ack_fsyncs]) / 1e6,
        "wal.fsyncs_per_ack": (
            sum(1 for _, s in fsyncs if s[TRACE] in ingest_traces)
            / len(ingest_traces) if ingest_traces else 0.0),
        "wal.bytes_per_event": (
            sum(s[NBYTES] for _, s in appends) / append_events
            if append_events else 0.0),
        "checkpoint.roll_ms": _mean([_dur(s) for s in rolls]) / 1e6,
        "checkpoint.bytes_written": float(sum(s[COUNT] for s in rolls)),
        "checkpoint.recover_s": (
            statistics.median(recover_s) if recover_s else 0.0),
        "checkpoint.replay_events_per_s": (
            replay_events * 1e9 / replay_ns if replay_ns else 0.0),
        "trace.residual_us": residual_us,
    }
    metrics = {name: (values[name], unit)
               for name, unit in LAYER_METRICS.items()}
    return metrics, {op: dict(row) for op, row in table.items()}


def format_attribution(
    table: Dict[str, Dict[str, float]],
    latencies: Dict[str, List[float]],
) -> List[str]:
    """The attribution table as text: per op, µs per request and share."""
    lines = []
    for op, row in sorted(table.items()):
        requests = row.get("requests", 0)
        if not requests:
            continue
        rtt = row["rtt"] / requests
        generator = latencies.get(op, [])
        lines.append(
            f"  {op}: {int(requests)} requests, rtt {rtt / 1e3:.1f} us"
            + (f", generator latency {_mean(generator) * 1e6:.1f} us"
               if generator else "")
        )
        parts = sorted(
            ((k, v) for k, v in row.items() if k not in ("requests", "rtt")),
            key=lambda item: -item[1],
        )
        for part, value in parts:
            per = value / requests
            lines.append(
                f"    {part:<26} {per / 1e3:10.1f} us  {per / rtt:7.1%}")
    return lines
