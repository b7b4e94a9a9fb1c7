"""The in-process benchmark harness and its one timing primitive.

It holds the configuration, the timing primitive, the record's cells,
tables, and the verdict arithmetic.  A number in a table row is either
a plain value (a run size, a bit count of a single run) or a *cell*:
the median, first and third quartile and count of its samples
(:func:`cell`), a dict that the JSON record holds as it is.  Label
lengths are cells over sampled runs; timings are cells over
:data:`REPEATS` repeats of :class:`Timings`.

Benchmarks that compare labeling schemes iterate the scheme registry
(:func:`build_registry_schemes`) instead of hand-constructing scheme
objects, so a newly registered scheme shows up in every comparison
without touching the drivers.
"""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import UnsupportedWorkflowError
from repro.schemes import Workload
from repro.schemes import registry as scheme_registry
from repro.workflow.derivation import Derivation, sample_run
from repro.workflow.specification import Specification

#: repeats behind every timed cell; a constant, so every timing in the
#: record has the same number of samples
REPEATS = 5


@dataclass(frozen=True)
class BenchConfig:
    """Experiment scale knobs.

    ``scale`` multiplies the largest run size of the 1K..32K ladder the
    paper sweeps; ``samples`` is the number of sampled runs per
    configuration behind each label-length cell and each construction
    timing (the paper uses 10^3; the default keeps the whole suite
    within about 15 minutes on 2 vCPUs) and ``queries`` the number of
    sampled reachability queries per query timing (the paper's 10^5).
    """

    scale: float = 1.0
    samples: int = 25
    queries: int = 100_000
    seed: int = 2011  # SIGMOD'11

    @property
    def max_size(self) -> int:
        return max(1000, int(32_000 * self.scale))


def default_config() -> BenchConfig:
    """Configuration from the REPRO_* environment.

    ``REPRO_SCALE``, ``REPRO_SAMPLES`` and ``REPRO_QUERIES`` override
    the :class:`BenchConfig` defaults."""
    defaults = BenchConfig()
    return BenchConfig(
        scale=float(os.environ.get("REPRO_SCALE", defaults.scale)),
        samples=int(os.environ.get("REPRO_SAMPLES", defaults.samples)),
        queries=int(os.environ.get("REPRO_QUERIES", defaults.queries)),
    )


def run_ladder(config: BenchConfig, start: int = 1000) -> List[int]:
    """The run-size ladder: 1K, 2K, 4K, ... up to ``config.max_size``."""
    sizes = []
    size = start
    while size <= config.max_size:
        sizes.append(size)
        size *= 2
    return sizes


def sampled_runs(
    spec: Specification, size: int, config: BenchConfig, tag: int = 0
) -> Iterator[Derivation]:
    """``config.samples`` seeded runs of roughly ``size`` vertices.

    They are built one at a time: a 32K-vertex run holds ~20 MB."""
    for i in range(config.samples):
        rng = random.Random((config.seed, size, tag, i).__hash__() & 0xFFFFFFFF)
        yield sample_run(spec, size, rng)


def cell(values: Sequence[float], scale: float = 1.0) -> Dict[str, float]:
    """A record cell: the median, quartiles and count of ``values``.

    Each value is multiplied by ``scale`` first."""
    ordered = sorted(value * scale for value in values)
    if len(ordered) == 1:
        q1 = median = q3 = ordered[0]
    else:
        q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(ordered)}


def med(value) -> float:
    """The median of a cell; a plain value is its own median."""
    return value["median"] if isinstance(value, dict) else value


class Timings:
    """The harness's one timing primitive.

    :meth:`time` runs each of a row's calls :data:`REPEATS` times, the
    repeats interleaved across the calls, with ``gc.collect()`` before
    each, and adds every repeat's seconds to that column's total for the
    repeat -- so a row timed over several sampled runs sums them per
    repeat.  :meth:`cell` reports a column's repeats as a cell.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, List[float]] = {}

    def time(self, calls: Dict[str, Callable[[], object]]) -> Dict[str, object]:
        """Time ``calls``; returns each call's result of its last repeat."""
        results: Dict[str, object] = {}
        for name in calls:
            self.seconds.setdefault(name, [0.0] * REPEATS)
        # what is alive now outlives the row: frozen, it is not scanned
        # again by the collection before each repeat, whose cost would
        # otherwise grow with the caller's heap (a test process's is large)
        gc.collect()
        gc.freeze()
        try:
            for repeat in range(REPEATS):
                for name, call in calls.items():
                    gc.collect()
                    start = time.perf_counter()
                    results[name] = call()
                    self.seconds[name][repeat] += time.perf_counter() - start
        finally:
            gc.unfreeze()
        return results

    def cell(self, name: str, scale: float = 1.0) -> Dict[str, float]:
        """Column ``name``'s repeats as a :func:`cell`."""
        return cell(self.seconds[name], scale)


def query_loop(query: Callable[[object, object], object], pairs) -> Callable[[], None]:
    """A call that asks ``query`` every pair once, for :meth:`Timings.time`."""

    def loop() -> None:
        for a, b in pairs:
            query(a, b)

    return loop


@dataclass
class SchemeBuild:
    """One registry scheme built (or skipped) on one workload."""

    name: str
    scheme: Optional[object]
    skip_reason: Optional[str] = None

    @property
    def built(self) -> bool:
        return self.scheme is not None


def build_registry_schemes(
    workload: Workload,
    names: Optional[Sequence[str]] = None,
    options: Optional[Dict[str, Dict[str, object]]] = None,
) -> List[SchemeBuild]:
    """Build every (requested) registered scheme on one workload.

    Schemes that do not support the workload -- or abort mid-build, like
    the tree transform hitting its blow-up guard -- are returned with a
    ``skip_reason`` instead of silently dropped, so comparison tables
    can show *why* a column is missing.  ``options`` maps scheme names
    to extra ``build`` keyword arguments.
    """
    options = options or {}
    builds: List[SchemeBuild] = []
    for name in names if names is not None else scheme_registry.available():
        reason = scheme_registry.get(name).supports(workload)
        if reason is not None:
            builds.append(SchemeBuild(name, None, reason))
            continue
        try:
            scheme = scheme_registry.build(name, workload, **options.get(name, {}))
        except UnsupportedWorkflowError as exc:
            builds.append(SchemeBuild(name, None, str(exc)))
            continue
        builds.append(SchemeBuild(name, scheme))
    return builds


@dataclass
class Table:
    """One experiment's rows: a dict per row, keyed by ``columns``."""

    id: str
    title: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add(self, *values: object) -> None:
        """Append one row; arity must match the column list."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row arity {len(values)} != column arity {len(self.columns)}"
            )
        self.rows.append(dict(zip(self.columns, values)))


# ---------------------------------------------------------------------------
# verdict arithmetic: every rule reads cell medians
# ---------------------------------------------------------------------------


def fit(
    rows: Sequence[Dict[str, object]],
    x: str,
    y: str,
    log_x: bool = False,
    log_y: bool = False,
) -> Tuple[float, float]:
    """Least-squares slope and R^2 of ``y`` against ``x``.

    The fit runs over the rows' medians, on log2 axes on request."""
    xs = [med(row[x]) for row in rows]
    ys = [med(row[y]) for row in rows]
    if log_x:
        xs = [math.log2(v) for v in xs]
    if log_y:
        ys = [math.log2(v) for v in ys]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((v - mean_x) ** 2 for v in xs)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys))
    syy = sum((v - mean_y) ** 2 for v in ys)
    slope = sxy / sxx
    r2 = sxy * sxy / (sxx * syy) if syy else 1.0
    return slope, r2


def median_ratio(rows: Sequence[Dict[str, object]], num: str, den: str) -> float:
    """The median over rows of ``num`` / ``den`` (cell medians)."""
    return statistics.median(med(row[num]) / med(row[den]) for row in rows)


def _fmt(value: object) -> str:
    if isinstance(value, dict):
        return f"{_fmt(value['median'])} [{_fmt(value['q1'])}, {_fmt(value['q3'])}]"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(table: Table) -> str:
    """Render a :class:`Table` as aligned monospace text.

    A cell shows its median and, bracketed, its quartiles."""
    header = [str(c) for c in table.columns]
    body = [[_fmt(row[c]) for c in table.columns] for row in table.rows]
    widths = [len(h) for h in header]
    for row in body:
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))
    lines = [f"## {table.id}: {table.title}"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
