"""One run: a workload driven closed-loop, then checked once.

:func:`run` drives a :class:`~repro.loadgen.workload.Workload` against a
live server, or against a fleet it spawns
(:class:`~repro.loadgen.fleet.Fleet`).  Every stream's session is
created first; then one worker thread per stream, on its own
connection, sends query batches over the stream's acknowledged vids
and ingest chunks of its run, in the workload's mix.  Closed loop: one
request in flight per worker, so throughput is honest capacity at the
offered concurrency.  A run stops at a deadline (``duration``), a
stream whose run completed closing its session and opening a fresh
one, or, without a deadline, once every stream's run is acknowledged
(fixed work).

Without a fleet, any failure is recorded and ends its worker.  With
one, a failed request goes through the fleet's one recovery rule, once
per fault: an interrupted ingest chunk is then probed and resent only
if its atomic WAL record did not land, a query is sent again, and a
failure where nothing died is an error.  The checker then runs once:
every acknowledged vid is on the entry point and on every caught-up
replica, a fixed-work run acknowledged its whole run, sampled pairs
answer like BFS (with ``verify``, every answer of the run too), and the
entry point's metrics hold the required series.
"""

from __future__ import annotations

import contextlib
import tempfile
import threading
import time
import urllib.request
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError, ServiceError
from repro.loadgen.fleet import ROLES, Fleet, missing, poll
from repro.loadgen.workload import Stream, Workload
from repro.obs.histogram import Histogram
from repro.obs.metrics import parse_prometheus_text
from repro.obs.names import (
    ENGINE_STAGE_SECONDS,
    OP_LATENCY_SECONDS,
    WAL_FSYNC_SECONDS,
    series_count,
)
from repro.service.client import ServiceClient

CHECK_PAIRS = 400  # pairs the checker answers against BFS, over all streams


@dataclass
class Report:
    """The outcome of one :func:`run`.

    ``elapsed`` is the window the rates divide by: the longest worker's
    closed-loop phase, after its session's first ingest.  ``faults``
    holds a row per fault that landed: the ``role`` that died,
    ``acked`` events by then, and its ``pid`` and ``exit`` status, a
    worker's ``respawns`` or a primary's ``promoted`` port and epoch.
    ``query_latency`` and ``ingest_latency`` summarize the round trips.
    """

    scenario: str
    topology: Optional[str]  # None: a live server was driven
    sessions: int
    elapsed: float = 0.0
    wall_seconds: float = 0.0
    operations: int = 0
    queries: int = 0
    query_batches: int = 0
    ingested: int = 0
    sessions_created: int = 0
    sessions_closed: int = 0
    run_size: int = 0  # events in every stream's run
    acknowledged: int = 0  # events in the ledgers checked
    lost: List[int] = field(default_factory=list)  # acked vids missing
    verified_pairs: int = 0
    wrong_answers: int = 0
    interrupted_chunks: int = 0
    resent_chunks: int = 0
    faults: List[Dict[str, Any]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    query_latency: Dict[str, Any] = field(default_factory=dict)
    ingest_latency: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors and not self.lost and not self.wrong_answers

    @property
    def qps(self) -> float:
        return self.queries / self.elapsed if self.elapsed else 0.0

    @property
    def ingest_eps(self) -> float:
        return self.ingested / self.elapsed if self.elapsed else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "ok": self.ok, "qps": self.qps,
                "ingest_eps": self.ingest_eps}


class _Driver:
    """One connection to the entry point, under the recovery rule."""

    def __init__(self, fleet: Optional[Fleet],
                 server: Optional[Tuple[str, int]]) -> None:
        self.fleet = fleet
        self.client = (ServiceClient(*server, timeout=30.0)
                       if fleet is None else None)
        self.generation = -1  # the fleet generation it connected under

    def send(self, request: Callable[[ServiceClient], Any],
             session: Optional[str] = None) -> Any:
        """``request(client)``'s answer, or None once the fleet recovered
        from a fault that interrupted it.  ``session`` marks an ingest:
        a due kill lands while it is in flight."""
        fleet = self.fleet
        if fleet is None:
            return request(self.client)
        seen = fleet.generation
        killer = failure = answer = None
        try:
            if seen != self.generation:  # a fault broke the connection
                self.close()
                self.client, self.generation = fleet.client(), seen
            if session is not None:
                killer = fleet.kill_due(session)
            answer = request(self.client)
        except (OSError, ReproError) as exc:
            failure = exc
        if killer is not None:
            killer.join()
        if killer is not None or failure is not None:
            fleet.recover(failure, killed=killer is not None, seen=seen)
        return answer

    def close(self) -> None:
        if self.client is not None:
            with contextlib.suppress(OSError):
                self.client.close()
            self.client = None


class _Run:
    """The shared state of one run: streams, report, timings."""

    def __init__(self, workload: Workload, streams: List[Stream],
                 fleet: Optional[Fleet], server, duration: Optional[float],
                 seed: int, verify: bool, report: Report) -> None:
        self.workload, self.streams, self.fleet = workload, streams, fleet
        self.server, self.duration, self.verify = server, duration, verify
        self.prefix = f"{workload.name}-{seed}"
        self.report = report
        self.lock = threading.Lock()  # the report's counters
        self.query_hist, self.ingest_hist = Histogram(), Histogram()

    def count(self, **counters: int) -> None:
        with self.lock:
            for name, value in counters.items():
                setattr(self.report, name, getattr(self.report, name) + value)

    def open(self, driver: _Driver, stream: Stream) -> None:
        """Create the stream's next session; an interrupted create is
        abandoned for a fresh name."""
        workload = self.workload
        while True:
            stream.opened += 1
            name = f"{self.prefix}-{stream.index}-{stream.opened}"
            if driver.send(lambda c: c.create_session(
                    name, workload.spec, scheme=workload.scheme)) is not None:
                stream.begin(name)
                self.count(sessions_created=1)
                return

    def ingest(self, driver: _Driver, stream: Stream) -> None:
        """Send the stream's next chunk until it is acknowledged."""
        batch, name = stream.chunk(), stream.session
        while True:
            started = time.perf_counter()
            if driver.send(lambda c: c.ingest(name, batch), name) is not None:
                self.ingest_hist.record(time.perf_counter() - started)
                break
            self.count(interrupted_chunks=1)
            landed = None
            while landed is None:  # the probe may be interrupted too
                landed = driver.send(
                    lambda c: not missing(c, name, [batch[0].vid]))
            if landed:
                break
            self.count(resent_chunks=1)
        stream.acked.extend(event.vid for event in batch)
        self.count(ingested=len(batch))
        if self.fleet is not None:
            self.fleet.acknowledge(len(batch))

    def query(self, driver: _Driver, stream: Stream) -> None:
        pairs = stream.pairs(self.workload.batch_pairs)
        answers = None
        while answers is None:
            started = time.perf_counter()
            answers = driver.send(
                lambda c: c.query_batch(stream.session, pairs))
        self.query_hist.record(time.perf_counter() - started)
        self.count(queries=len(pairs), query_batches=1)
        if self.verify:
            self.judge(stream, pairs, answers)

    def judge(self, stream: Stream, pairs, answers) -> None:
        self.count(verified_pairs=len(pairs),
                   wrong_answers=stream.wrong(pairs, answers))

    def work(self, stream: Stream) -> None:
        """One worker thread: the first ingest, then the closed loop."""
        driver = _Driver(self.fleet, self.server)
        workload, rng = self.workload, stream.rng
        try:
            self.ingest(driver, stream)
            started = time.monotonic()
            try:
                while (time.monotonic() < started + self.duration
                       if self.duration else not stream.complete):
                    if rng.random() < workload.query_fraction:
                        self.query(driver, stream)
                    elif stream.complete:  # churn to a fresh session
                        driver.send(lambda c: c.close_session(stream.session))
                        self.count(sessions_closed=1)
                        self.open(driver, stream)
                        self.ingest(driver, stream)
                    else:
                        self.ingest(driver, stream)
                    self.count(operations=1)
            finally:
                busy = time.monotonic() - started
                with self.lock:
                    self.report.elapsed = max(self.report.elapsed, busy)
        except Exception as exc:
            self.report.errors.append(
                f"worker {stream.index} ({type(exc).__name__}): {exc}")
        finally:
            driver.close()

    # -- the checker ---------------------------------------------------
    def check(self, client: ServiceClient) -> None:
        report, fleet = self.report, self.fleet
        streams = [stream for stream in self.streams if stream.session]
        report.acknowledged = sum(len(stream.acked) for stream in streams)
        if self.duration is None and report.acknowledged != report.run_size:
            report.errors.append(f"{report.acknowledged} of "
                                 f"{report.run_size} insertions acknowledged")
        for stream in streams:
            lost = set(missing(client, stream.session, stream.acked))
            report.lost += sorted(lost)
            present = [vid for vid in stream.acked if vid not in lost]
            if present:
                pairs = stream.pairs(max(1, CHECK_PAIRS // len(streams)),
                                     present)
                answers = client.query_batch(stream.session, pairs)
                answers.append(client.query(stream.session, *pairs[0]))
                self.judge(stream, pairs + pairs[:1], answers)
        for index in fleet.replicas() if fleet else ():
            with fleet.client(index) as reader:
                # until it caught up with the primary
                left = poll(lambda: [vid for stream in streams for vid in
                                     missing(reader, stream.session,
                                             stream.acked)])
                if left:
                    report.errors.append(
                        f"replica node-{index} lacks {len(left)} "
                        f"acknowledged insertions, e.g. {left[:5]}")
                if reader.last_replica_lag is None:
                    report.errors.append(
                        f"replica node-{index} answered without replica_lag")
        if fleet is not None:
            self.check_metrics(client)

    def check_metrics(self, client: ServiceClient) -> None:
        """The router's merged ``metrics`` op, or a strict parse of the
        single server's or primary's ``/metrics``."""
        fleet, errors = self.fleet, self.report.errors
        if fleet.topology == "cluster":
            metrics = client.metrics()
            absent = {OP_LATENCY_SECONDS, ENGINE_STAGE_SECONDS} - {
                row["name"] for row in metrics["histograms"]}
            if absent:
                errors.append(f"metrics op lacks {sorted(absent)}")
            if not metrics.get("traces", {}).get("finished"):
                errors.append("metrics op reports no finished trace")
            return
        client.sync()  # an fsync under every policy
        url = f"http://127.0.0.1:{fleet.metrics_ports[fleet.primary]}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode("utf-8")
        try:
            series = parse_prometheus_text(text)
        except ValueError as exc:
            errors.append(f"{url} is malformed: {exc}")
            return
        required = [(series_count(OP_LATENCY_SECONDS), op)
                    for op in ("query", "query_batch", "ingest")]
        required.append((series_count(WAL_FSYNC_SECONDS), None))
        for name, op in required:
            if not any(sample["value"] > 0
                       and sample["labels"].get("op") == op
                       for sample in series.get(name, [])):
                errors.append(f"{url} has no populated {name} series"
                              + (f" for op {op!r}" if op else ""))


def run(
    workload: Workload,
    topology: Optional[str] = None,
    size: int = 2,
    kill: Optional[str] = None,
    failpoint: Optional[str] = None,
    armed_in: Optional[str] = None,
    server: Optional[Tuple[str, int]] = None,
    data_dir: Optional[str] = None,
    fsync: str = "always",
    duration: Optional[float] = None,
    kill_after: float = 2.0,
    seed: int = 0,
    verify: bool = False,
    verbose: bool = False,
) -> Report:
    """Drive ``workload`` against a fleet or a live server; check it.

    ``topology`` spawns a fleet (:data:`~repro.loadgen.fleet.ROLES`) of
    ``size`` cluster workers or replicas, durable under ``data_dir``
    (default: a temporary directory) with ``fsync``; ``server`` is the
    ``(host, port)`` of a live server instead.  ``kill`` names the role
    SIGKILLed at each mark, or ``kill_after`` seconds after the last
    recovery if that comes first; ``failpoint`` is a
    :mod:`repro.faults` spec armed in the role ``armed_in`` names
    (``replica`` is the first one).  ``duration`` sets a deadline;
    without one the run is fixed work.  ``verify`` checks every answer
    of the run against BFS.
    """
    kill_role, arm_roles = ROLES.get(topology, (None, ()))
    if ((server is None) == (topology is None)
            or topology is not None and kill_role is None
            or kill not in (None, kill_role) or size < 1
            or (failpoint is None) != (armed_in is None)
            or armed_in not in (None, *arm_roles)):
        raise ServiceError(
            f"a run takes a live server or a topology in {sorted(ROLES)} "
            f"of size >= 1 (got {server}, {topology!r}, {size}), a SIGKILL "
            f"of its {kill_role!r} and a failpoint armed in one of "
            f"{arm_roles}")
    if duration is not None and duration <= 0:
        raise ValueError("duration must be positive")
    if workload.sessions < 1:
        raise ValueError("a workload needs at least one session")
    if duration is None and workload.query_fraction >= 1:
        raise ValueError("fixed work needs ingests: query_fraction < 1")
    report = Report(scenario=workload.name, topology=topology,
                    sessions=workload.sessions)

    def say(message: str) -> None:
        if verbose:
            print(f"{topology}: {message}")

    streams = [Stream(workload, index, seed)
               for index in range(workload.sessions)]
    report.run_size = sum(len(stream.events) for stream in streams)
    begun = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as scratch:
        fleet = None if topology is None else Fleet(
            topology, size, data_dir or scratch, fsync, kill, kill_after,
            report, say)
        state = _Run(workload, streams, fleet, server, duration, seed,
                     verify, report)
        try:
            if fleet is not None:
                say(f"starting on ports {fleet.ports} under {fsync} fsync; "
                    f"kill {kill}, failpoint {failpoint} in {armed_in}")
                fleet.start(failpoint, armed_in, report.run_size)
            # every session first, so no kill lands on an unshipped create
            opener = _Driver(fleet, server)
            try:
                for stream in streams:
                    state.open(opener, stream)
            finally:
                opener.close()
            threads = [threading.Thread(target=state.work, args=(stream,),
                                        daemon=True) for stream in streams]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if fleet is not None:
                fleet.recover()  # a dead replica failed no request
            with (fleet.client() if fleet else ServiceClient(*server)
                  ) as client:
                state.check(client)
                for stream in streams:
                    if stream.session:
                        client.close_session(stream.session)
                        report.sessions_closed += 1
                report.stats = client.stats()
            if fleet is not None:
                fleet.stop()
        except (OSError, ReproError) as exc:
            report.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            if fleet is not None:
                fleet.kill()
    report.wall_seconds = time.monotonic() - begun
    report.query_latency = state.query_hist.snapshot().to_dict()
    report.ingest_latency = state.ingest_hist.snapshot().to_dict()
    return report
