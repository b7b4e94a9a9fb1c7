"""The one registry of metric, span and logger names.

Every histogram/counter series name, every trace span name, and the
stage label values that double as span names live here as module
constants, and **only** here as literals: the ``metric-names`` rule of
:mod:`repro.analysis` flags any ``histogram(...)``/``counter(...)``/
``add_span(...)`` call site that passes a bare string instead of one of
these constants.  That turns the classic typo'd-series bug (a dashboard
quietly watching ``repro_wal_fysnc_seconds`` forever) into a lint
failure at the call site that would have minted the bogus name.

Grouping:

* ``*_SECONDS`` / ``*_TOTAL`` -- Prometheus-style series names.  The
  exposition layer appends ``_count``/``_sum``/``_bucket`` suffixes to
  histogram series; use :func:`series_count` for the scraped counter
  name rather than concatenating by hand.
* ``STAGE_*`` -- values of the ``stage`` label on
  :data:`ENGINE_STAGE_SECONDS`; each is also the span name the same
  code section records on an active trace.
* ``SPAN_*`` -- span names of the durability layer (no histogram label
  shares them, but they are registry-controlled all the same).

This module must stay import-free (stdlib included) so every layer --
``obs`` itself, the service, the CLI -- can import it without cycles.
"""

# --- histogram series -------------------------------------------------

#: per-op request latency, labeled ``op=...`` (server dispatch)
OP_LATENCY_SECONDS = "repro_op_latency_seconds"

#: engine/session stage latency, labeled ``stage=...`` (see STAGE_*)
ENGINE_STAGE_SECONDS = "repro_engine_stage_seconds"

#: wall time burned by batches that failed mid-flight (LabelingError)
ENGINE_ERRORED_SECONDS = "repro_engine_errored_seconds"

#: serialize+write+flush of one WAL record
WAL_APPEND_SECONDS = "repro_wal_append_seconds"

#: one physical fsync of the WAL file (only when one actually runs)
WAL_FSYNC_SECONDS = "repro_wal_fsync_seconds"

#: replica side: applying one shipped replication record batch
REPL_APPLY_SECONDS = "repro_repl_apply_seconds"

#: one cyclic garbage collection, labeled ``generation=0|1|2``
GC_PAUSE_SECONDS = "repro_gc_pause_seconds"

# --- counter series ---------------------------------------------------

#: primary side: WAL records published to the replication hub
REPL_RECORDS_SHIPPED_TOTAL = "repro_repl_records_shipped_total"

#: replica side: shipped records applied into the local store
REPL_RECORDS_APPLIED_TOTAL = "repro_repl_records_applied_total"

# --- counter series ---------------------------------------------------

#: requests by op and outcome, labeled ``op=...``, ``status=ok|error``
REQUESTS_TOTAL = "repro_requests_total"

#: batches that raised mid-flight (ingest or query path)
ENGINE_ERRORS_TOTAL = "repro_engine_errors_total"

# --- stage label values (each doubles as the span name) ---------------

#: engine: one query batch through the scheme's query_many kernel
STAGE_KERNEL = "kernel"

#: session ingest: time spent inside the labeler assigning labels
STAGE_LABEL_BUILD = "label_build"

# --- span names with no histogram label twin --------------------------

SPAN_WAL_APPEND = "wal_append"
SPAN_WAL_FSYNC = "wal_fsync"
SPAN_REPL_APPLY = "repl_apply"

# --- logger names ------------------------------------------------------

#: the structured slow-query log (see repro.obs.trace)
SLOW_QUERY_LOGGER = "repro.obs.slow"

#: every histogram series name above (scrape validation)
HISTOGRAM_NAMES = (
    OP_LATENCY_SECONDS,
    ENGINE_STAGE_SECONDS,
    ENGINE_ERRORED_SECONDS,
    WAL_APPEND_SECONDS,
    WAL_FSYNC_SECONDS,
    REPL_APPLY_SECONDS,
    GC_PAUSE_SECONDS,
)

#: every counter series name above
COUNTER_NAMES = (
    REQUESTS_TOTAL,
    ENGINE_ERRORS_TOTAL,
    REPL_RECORDS_SHIPPED_TOTAL,
    REPL_RECORDS_APPLIED_TOTAL,
)

#: every span name a trace can carry (stage names double as spans)
SPAN_NAMES = (
    STAGE_KERNEL,
    STAGE_LABEL_BUILD,
    SPAN_WAL_APPEND,
    SPAN_WAL_FSYNC,
    SPAN_REPL_APPLY,
)


def series_count(name):
    """The ``<name>_count`` series a Prometheus scrape exposes."""
    return name + "_count"
