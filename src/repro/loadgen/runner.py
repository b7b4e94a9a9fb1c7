"""The closed-loop load runner: scenario in, :class:`LoadReport` out.

Each worker owns one live session and loops until the deadline: with
probability ``scenario.query_fraction`` it issues a query batch over
the vertices it has inserted so far (optionally skewed onto a hot set),
otherwise it ingests the next chunk of its synthesized run.  A run that
reaches its end closes the session and opens a fresh one -- so
ingest-heavy scenarios naturally exercise session churn, and every
insertion stream is a *real* execution of the scenario's workflow spec
(synthesized via :func:`repro.workflow.derivation.sample_run`), never
random garbage the labeler would reject.

Closed loop means each worker has one operation in flight: measured
throughput is honest end-to-end capacity at the offered concurrency,
not an open-loop arrival fantasy.  Any exception -- a failure response
over TCP, an engine error in process, an answer that contradicts BFS
ground truth under ``verify`` -- is captured in ``LoadReport.errors``
(the run keeps going on the other workers; the failed worker stops).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.loadgen.driver import DriverFactory
from repro.loadgen.scenarios import Scenario
from repro.obs.histogram import Histogram, merge_snapshots
from repro.datasets import resolve_spec
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation


@dataclass
class LoadReport:
    """Aggregated outcome of one scenario run.

    ``elapsed`` is the measurement window the rates divide by: the
    longest per-worker closed-loop phase, which *excludes* session
    setup and prefill (every worker starts its own clock after setup).
    ``wall_seconds`` is the full wall time including setup/teardown.

    ``query_latency``/``ingest_latency`` are per-operation latency
    summaries (count/sum/mean/min/max and p50/p95/p99, in seconds)
    merged exactly from each worker's :class:`repro.obs.Histogram` --
    one query_batch or ingest round trip per sample, so over TCP they
    include the wire.
    """

    scenario: str
    transport: str
    workers: int
    requested_duration: float
    elapsed: float
    wall_seconds: float = 0.0
    operations: int = 0
    queries: int = 0
    query_batches: int = 0
    ingested: int = 0
    sessions_created: int = 0
    sessions_closed: int = 0
    errors: List[str] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    query_latency: Dict[str, Any] = field(default_factory=dict)
    ingest_latency: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def qps(self) -> float:
        return self.queries / self.elapsed if self.elapsed else 0.0

    @property
    def ingest_eps(self) -> float:
        return self.ingested / self.elapsed if self.elapsed else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "transport": self.transport,
            "workers": self.workers,
            "requested_duration": self.requested_duration,
            "elapsed": self.elapsed,
            "wall_seconds": self.wall_seconds,
            "operations": self.operations,
            "queries": self.queries,
            "query_batches": self.query_batches,
            "ingested": self.ingested,
            "sessions_created": self.sessions_created,
            "sessions_closed": self.sessions_closed,
            "qps": self.qps,
            "ingest_eps": self.ingest_eps,
            "ok": self.ok,
            "errors": list(self.errors),
            "stats": dict(self.stats),
            "query_latency": dict(self.query_latency),
            "ingest_latency": dict(self.ingest_latency),
        }


class _Worker:
    """One closed-loop worker: a session, its run, its RNG."""

    def __init__(
        self,
        index: int,
        scenario: Scenario,
        driver,
        prefix: str,
        seed: int,
        verify: bool,
    ) -> None:
        self.index = index
        self.scenario = scenario
        self.driver = driver
        self.prefix = prefix
        self.rng = random.Random(f"{scenario.name}:{seed}:{index}")
        self.verify = verify
        run = sample_run(
            resolve_spec(scenario.spec),
            scenario.run_size,
            random.Random(f"{scenario.name}:{seed}:{index}:run"),
        )
        self.graph = run.graph
        self.events = execution_from_derivation(run).insertions
        self.generation = 0
        self.session: Optional[str] = None
        self.cursor = 0
        self.seen: List[int] = []
        # counters, harvested by the runner after join
        self.operations = 0
        self.queries = 0
        self.query_batches = 0
        self.ingested = 0
        self.sessions_created = 0
        self.sessions_closed = 0
        self.busy_seconds = 0.0  # closed-loop phase only, not setup
        self.errors: List[str] = []
        # per-operation latency, merged across workers by the runner
        self.query_hist = Histogram()
        self.ingest_hist = Histogram()

    # -- session lifecycle ---------------------------------------------
    def open_session(self) -> None:
        self.generation += 1
        self.session = f"{self.prefix}-w{self.index}-g{self.generation}"
        self.driver.create_session(
            self.session, self.scenario.spec, self.scenario.scheme
        )
        self.sessions_created += 1
        self.cursor = 0
        self.seen = []
        self.ingest_chunk(max(2, self.scenario.prefill))

    def close_session(self) -> None:
        if self.session is not None:
            self.driver.close_session(self.session)
            self.sessions_closed += 1
            self.session = None

    # -- operations ----------------------------------------------------
    def ingest_chunk(self, size: Optional[int] = None) -> None:
        if self.cursor >= len(self.events):
            # the run completed: churn to a fresh session
            self.close_session()
            self.open_session()
            return
        size = size or self.scenario.ingest_chunk
        chunk = self.events[self.cursor : self.cursor + size]
        started = time.perf_counter()
        self.driver.ingest(self.session, chunk)
        self.ingest_hist.record(time.perf_counter() - started)
        self.cursor += len(chunk)
        self.seen.extend(event.vid for event in chunk)
        self.ingested += len(chunk)

    def sample_pairs(self) -> List[Tuple[int, int]]:
        scenario, rng, seen = self.scenario, self.rng, self.seen
        hot = seen[: max(1, int(len(seen) * scenario.hot_keys))]
        pairs = []
        for _ in range(scenario.batch_pairs):
            pool = (
                hot
                if scenario.hot_fraction
                and rng.random() < scenario.hot_fraction
                else seen
            )
            pairs.append((rng.choice(pool), rng.choice(pool)))
        return pairs

    def query_once(self) -> None:
        pairs = self.sample_pairs()
        started = time.perf_counter()
        answers = self.driver.query_batch(self.session, pairs)
        self.query_hist.record(time.perf_counter() - started)
        self.query_batches += 1
        self.queries += len(pairs)
        if self.verify:
            from repro.graphs.reachability import reaches

            for (a, b), answer in zip(pairs, answers):
                if answer != reaches(self.graph, a, b):
                    raise AssertionError(
                        f"answer {a}~>{b} = {answer} contradicts BFS"
                    )

    # -- the loop ------------------------------------------------------
    def run(self, duration: float) -> None:
        """Set up, then issue closed-loop ops for ``duration`` seconds.

        The clock starts *after* session setup so every worker gets the
        full measurement window regardless of how long synthesis and
        prefill took on its thread.
        """
        try:
            self.open_session()
            loop_started = time.monotonic()
            deadline = loop_started + duration
            try:
                while time.monotonic() < deadline:
                    if (
                        len(self.seen) >= 2
                        and self.rng.random() < self.scenario.query_fraction
                    ):
                        self.query_once()
                    else:
                        self.ingest_chunk()
                    self.operations += 1
            finally:
                self.busy_seconds = time.monotonic() - loop_started
            self.close_session()
        except Exception as exc:
            self.errors.append(
                f"worker {self.index} ({type(exc).__name__}): {exc}"
            )
        finally:
            try:
                self.driver.finish()
            except Exception:  # pragma: no cover  # repro: noqa[broad-except] -- teardown is best-effort; worker errors were already recorded above
                pass


def run_scenario(
    scenario: Scenario,
    driver_factory: DriverFactory,
    duration: float = 5.0,
    workers: Optional[int] = None,
    seed: int = 0,
    session_prefix: Optional[str] = None,
    verify: bool = False,
) -> LoadReport:
    """Drive ``scenario`` through a worker pool; returns the report.

    ``workers`` defaults to the scenario's session count (one live
    session per worker).  ``session_prefix`` namespaces the session
    names so concurrent runs against one shared server cannot collide.
    ``verify`` checks every answer against BFS ground truth on the
    synthesized run graph (slow; for smoke tests, not throughput runs).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    count = workers if workers is not None else scenario.sessions
    if count < 1:
        raise ValueError("workers must be >= 1")
    prefix = session_prefix or f"loadgen-{scenario.name}-{seed}"
    pool = [
        _Worker(index, scenario, driver_factory(), prefix, seed, verify)
        for index in range(count)
    ]
    threads = [
        threading.Thread(target=worker.run, args=(duration,), daemon=True)
        for worker in pool
    ]
    begun = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=duration + 60.0)
    wall = time.monotonic() - begun
    # rates divide by the longest closed-loop phase, so per-worker
    # setup/prefill (which runs before each worker starts its clock)
    # cannot deflate the reported throughput
    measured = max((worker.busy_seconds for worker in pool), default=0.0)
    report = LoadReport(
        scenario=scenario.name,
        transport=getattr(pool[0].driver, "transport", "unknown"),
        workers=count,
        requested_duration=duration,
        elapsed=measured,
        wall_seconds=wall,
    )
    for thread in threads:
        if thread.is_alive():  # pragma: no cover - hang diagnostics
            report.errors.append("worker failed to stop before the join "
                                 "timeout")
    for worker in pool:
        report.operations += worker.operations
        report.queries += worker.queries
        report.query_batches += worker.query_batches
        report.ingested += worker.ingested
        report.sessions_created += worker.sessions_created
        report.sessions_closed += worker.sessions_closed
        report.errors.extend(worker.errors)
    report.query_latency = merge_snapshots(
        worker.query_hist.snapshot() for worker in pool
    ).to_dict()
    report.ingest_latency = merge_snapshots(
        worker.ingest_hist.snapshot() for worker in pool
    ).to_dict()
    try:
        snapshotter = driver_factory()
        try:
            report.stats = snapshotter.stats()
        finally:
            snapshotter.finish()
    except Exception as exc:  # pragma: no cover - stats best effort
        report.errors.append(f"stats snapshot failed: {exc}")
    return report
