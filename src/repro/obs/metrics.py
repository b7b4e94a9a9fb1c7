"""Named counters and histograms, plus a Prometheus-style exposition.

A :class:`MetricsRegistry` maps ``(name, labels)`` series to live
instruments -- monotonic :class:`Counter`\\ s and
:class:`~repro.obs.histogram.Histogram`\\ s -- and renders the whole
set either as a JSON-friendly snapshot (the ``metrics`` protocol op)
or as Prometheus text exposition format (the ``--metrics-port`` HTTP
endpoint, scrapable by any Prometheus-compatible collector).

One process-wide default registry (:func:`default_registry`) is what
components bind to when no registry is injected, so the engine, the
WAL, checkpoint exports and the session layer all land their series in
the same scrape without any plumbing.  :data:`NULL` is a no-op
registry: injecting it disables an instrumented component entirely
(the benchmark's uninstrumented baseline).

Series naming follows the Prometheus conventions: ``*_seconds`` for
histograms of durations, ``*_total`` for counters, labels for the
bounded dimensions (``op``, ``stage``, ``status``).
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.histogram import Histogram, bucket_upper_seconds
from repro.obs.names import GC_PAUSE_SECONDS

LabelsKey = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class _NullCounter:
    """A counter that records nothing (disabled instrumentation)."""

    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullHistogram:
    """A histogram that records nothing (disabled instrumentation)."""

    __slots__ = ()

    def record(self, seconds: float) -> None:
        pass

    def record_ns(self, ns: int) -> None:
        pass


def _labels_key(labels: Dict[str, str]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """A thread-safe home for every metric series of one process/service.

    ``counter(name, **labels)`` / ``histogram(name, **labels)`` return
    the live instrument for that series, creating it on first use --
    callers cache the returned instrument on their hot paths so a
    record is never a registry lookup.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter()
            return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram()
            return instrument

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def snapshot(self, raw: bool = False) -> Dict[str, Any]:
        """Every series, JSON-friendly (the ``metrics`` op payload).

        Histograms appear as their summary dict (count/sum/mean/min/
        max/p50/p95/p99); counters as their integer value.  With
        ``raw`` the histograms instead carry their full integer state
        (:meth:`~repro.obs.histogram.HistogramSnapshot.raw_dict`), the
        form a cluster router requests from its workers so per-worker
        series can be merged exactly before summarizing.
        """
        with self._lock:
            counters = list(self._counters.items())
            histograms = list(self._histograms.items())
        return {
            "counters": [
                {"name": name, "labels": dict(labels),
                 "value": counter.value}
                for (name, labels), counter in sorted(counters)
            ],
            "histograms": [
                {"name": name, "labels": dict(labels),
                 **(
                     histogram.snapshot().raw_dict()
                     if raw
                     else histogram.snapshot().to_dict()
                 )}
                for (name, labels), histogram in sorted(histograms)
            ],
        }

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Histogram buckets are rendered cumulatively with ``le`` upper
        bounds in seconds, trailing empty buckets elided (the ``+Inf``
        bucket always present); every series also exposes ``_sum`` and
        ``_count``.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            histograms = sorted(self._histograms.items())
        lines: List[str] = []
        typed: set = set()
        for (name, labels), counter in counters:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} counter")
            lines.append(
                f"{name}{_render_labels(labels)} {counter.value}"
            )
        for (name, labels), histogram in histograms:
            snapshot = histogram.snapshot()
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} histogram")
            highest = 0
            for index, count in enumerate(snapshot.counts):
                if count:
                    highest = index
            cumulative = 0
            for index in range(highest + 1):
                cumulative += snapshot.counts[index]
                bound = repr(bucket_upper_seconds(index))
                lines.append(
                    f"{name}_bucket"
                    f"{_render_labels(labels, le=bound)} {cumulative}"
                )
            lines.append(
                f"{name}_bucket"
                f"{_render_labels(labels, le='+Inf')} {snapshot.count}"
            )
            lines.append(
                f"{name}_sum{_render_labels(labels)} "
                f"{repr(snapshot.sum_seconds)}"
            )
            lines.append(
                f"{name}_count{_render_labels(labels)} {snapshot.count}"
            )
        return "\n".join(lines) + "\n"


def _render_labels(labels: LabelsKey, **extra: str) -> str:
    pairs = list(labels) + sorted(extra.items())
    if not pairs:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in pairs
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


class _NullRegistry:
    """The disabled registry: hands out no-op instruments."""

    enabled = False
    _COUNTER = _NullCounter()
    _HISTOGRAM = _NullHistogram()

    def counter(self, name: str, **labels: str) -> _NullCounter:
        return self._COUNTER

    def histogram(self, name: str, **labels: str) -> _NullHistogram:
        return self._HISTOGRAM

    def snapshot(self, raw: bool = False) -> Dict[str, Any]:
        return {"counters": [], "histograms": []}

    def render_prometheus(self) -> str:
        return "\n"


#: inject to disable a component's instrumentation entirely
NULL = _NullRegistry()

_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry components bind to by default."""
    return _default


_gc_hook: Optional[Callable[[str, Dict[str, int]], None]] = None


def observe_gc_pauses() -> None:
    """Time every cyclic-collector pause into :data:`GC_PAUSE_SECONDS`.

    Appends one hook to ``gc.callbacks`` per process (calling this
    again does nothing), feeding one series per collector generation
    in the default registry.  The hosted-session layer calls it on
    import, so every serving process -- each cluster worker too --
    reports its own pauses, and a router merges them exactly like any
    other histogram.  The series are bound up front: the hook runs
    inside whatever allocation triggered the collection, so it must
    not take the registry lock (see :class:`Histogram` for its own).
    """
    global _gc_hook
    if _gc_hook is not None:
        return
    pauses = [
        _default.histogram(GC_PAUSE_SECONDS, generation=str(generation))
        for generation in range(len(gc.get_count()))
    ]
    clock = time.perf_counter_ns
    started = [0]

    def hook(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            started[0] = clock()
        else:
            pauses[info["generation"]].record_ns(clock() - started[0])

    gc.callbacks.append(hook)
    _gc_hook = hook


# ---------------------------------------------------------------------------
# the exposition HTTP endpoint
# ---------------------------------------------------------------------------


class MetricsExporter:
    """A tiny HTTP server exposing ``GET /metrics`` as Prometheus text.

    Dependency-free (``http.server``), threaded, bound to loopback by
    default.  ``render`` is any zero-argument callable returning the
    exposition text -- usually a registry's ``render_prometheus``.
    """

    def __init__(
        self,
        render: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        # only ``serve --metrics-port`` runs an exporter: every other
        # process leaves http.server (and what it imports) unloaded
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        exporter = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] != "/metrics":
                    self.send_error(404, "only /metrics is served here")
                    return
                try:
                    body = exporter.render().encode("utf-8")
                except Exception as exc:  # pragma: no cover - render bug
                    self.send_error(500, f"metrics rendering failed: {exc}")
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes must not spam the server's stdio

        self.render = render
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "MetricsExporter":
        """Serve scrapes on a daemon thread; returns self."""
        # a 0.05 s poll, not socketserver's 0.5 s: stop() waits for it
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(0.05,),
            name="repro-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def parse_prometheus_text(text: str) -> Dict[str, List[Dict[str, Any]]]:
    """Parse exposition text into ``{metric name: [samples]}``.

    A deliberately strict little parser the load harness's checker
    (:mod:`repro.loadgen`) uses to validate that the endpoint's output
    is well-formed: every non-comment line must be
    ``name[{labels}] value`` with quoted label values and a
    float-parsable value.  Raises ``ValueError`` on the
    first malformed line.
    """
    series: Dict[str, List[Dict[str, Any]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value_text = line.rpartition(" ")
        if not head:
            raise ValueError(f"line {lineno}: no value: {line!r}")
        if value_text == "+Inf":
            value = float("inf")
        else:
            value = float(value_text)  # ValueError on garbage
        labels: Dict[str, str] = {}
        name = head
        if "{" in head:
            if not head.endswith("}"):
                raise ValueError(f"line {lineno}: unclosed labels: {line!r}")
            name, _, label_text = head.partition("{")
            for item in label_text[:-1].split(","):
                key, eq, quoted = item.partition("=")
                if (
                    not eq
                    or len(quoted) < 2
                    or quoted[0] != '"'
                    or quoted[-1] != '"'
                ):
                    raise ValueError(
                        f"line {lineno}: bad label {item!r}"
                    )
                labels[key] = quoted[1:-1]
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        series.setdefault(name, []).append(
            {"labels": labels, "value": value}
        )
    return series
