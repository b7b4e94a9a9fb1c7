"""``repro.obs``: the dependency-free observability layer.

Four pieces, each usable on its own and all threaded through the
provenance query service:

* :mod:`repro.obs.histogram` -- fixed-bucket log2 latency histograms
  with exactly-mergeable immutable snapshots and bounded-error
  p50/p95/p99 quantile estimation.  The one latency type shared by the
  engine, the WAL, the server, the load generator and the benchmarks.
* :mod:`repro.obs.metrics` -- a registry of named counter/histogram
  series with a JSON snapshot (the ``metrics`` protocol op) and a
  Prometheus text exposition rendered by a tiny HTTP exporter
  (``repro serve --metrics-port``).
* :mod:`repro.obs.trace` -- per-request traces: a wire-visible
  ``trace_id``, span timelines recorded by every layer a request
  crosses, bounded rings of recent and slow traces, and a structured
  slow-query log.
* :mod:`repro.obs.logs` -- JSON-lines (or text) structured logging on
  stdlib ``logging``, wired to ``repro serve --log-level/--log-format``.
* :mod:`repro.obs.names` -- the one registry of metric series, span and
  logger names; every instrumented call site imports its name from
  there (the ``metric-names`` rule of :mod:`repro.analysis` enforces
  it, so a typo'd series cannot be minted silently).

Everything here is standard library only, by design: observability
must never be the dependency that keeps the service from booting.
"""

from repro import _lazy_exports
from repro.obs import names

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".histogram": ("Histogram", "HistogramSnapshot", "bucket_bounds",
                   "bucket_index", "merge_snapshots"),
    ".logs": ("JsonLineFormatter", "TextLineFormatter", "configure_logging",
              "log_event"),
    ".metrics": ("NULL", "Counter", "MetricsExporter", "MetricsRegistry",
                 "default_registry", "parse_prometheus_text"),
    ".trace": ("Span", "Trace", "Tracer", "activate", "current_trace",
               "current_trace_id", "new_trace_id"),
})

__all__ = [
    "names",
    "Histogram",
    "HistogramSnapshot",
    "bucket_index",
    "bucket_bounds",
    "merge_snapshots",
    "Counter",
    "MetricsRegistry",
    "MetricsExporter",
    "default_registry",
    "parse_prometheus_text",
    "NULL",
    "Span",
    "Trace",
    "Tracer",
    "activate",
    "current_trace",
    "current_trace_id",
    "new_trace_id",
    "JsonLineFormatter",
    "TextLineFormatter",
    "configure_logging",
    "log_event",
]
