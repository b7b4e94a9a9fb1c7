"""The four workloads: inputs from the seed, closed-loop load, checks.

Every workload follows one script:

1. **inputs** -- ``running-example`` runs sampled from the seed, their
   wire events, and the closure each answer is checked against
   (cross-checked against BFS on a sample), plus pre-built request
   pools.  Not timed.
2. **set-up** (``setup_s``) -- start the server on a fresh data dir and
   prefill it; done several times, the last server is kept.
3. **load** -- closed loop: each generator thread owns one connection
   and sends its next request only after the previous reply.  Readers
   alone measure a timed window after a warm-up; where a writer runs,
   it does a fixed amount of work and the window spans it.  The thread
   that opens and shuts the window samples CPU and cache counters
   there, on its own connection.
4. **crash** -- roll checkpoints of half the sessions, SIGKILL the
   server, restart it on the same data dir (``recovery_s``), several
   times.
5. **checks** -- the restarted server holds every acknowledged event
   and answers a fresh sample correctly; every answer returned in the
   window matches the closure.

A refused request, a wrong answer and an acknowledged event missing
after recovery each count as a failed op.
"""

from __future__ import annotations

import gc
import math
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from e2e_probe import HostMeter
from e2e_server import ServerProcess, filesystem_type
from e2e_stats import ReachClosure, latency_summary, percentile, scaled_rate

from repro.datasets import spec_by_name
from repro.errors import ReproError
from repro.graphs.reachability import reaches
from repro.io.jsonio import insertion_to_json
from repro.service.client import ServiceClient
from repro.workflow.derivation import sample_run
from repro.workflow.execution import Execution, execution_from_derivation

SPEC = "running-example"
PREFILL_CHUNK = 512
BATCH_PAIRS = 256
#: read-hot draws its pairs from this leading share of a run's vertices
HOT_SHARE = 0.02
#: read-hot cycles through this many pre-built batches (all fit the cache)
HOT_BATCHES = 512
#: read-cold cycles through 1024 x 256 pairs, four times the answer
#: cache, in a fixed order: an LRU cache then never hits
COLD_BATCHES = 1024
INGEST_CHUNK = 64
#: ingest-durable acks this many events per second of ``--seconds``,
#: split over its two connections: fixed work, so two commits write
#: and recover the same bytes
INGEST_EVENTS_PER_SECOND = 12_000
MIXED_WRITE_CHUNK = 32
#: mixed-routed's writer acks this many events per second of warm-up and
#: of ``--seconds``: fixed work, so every run writes and holds the same
#: data, while the reader runs beside it for as long as it takes
MIXED_EVENTS_PER_SECOND = 7_000
MIXED_READ_PAIRS = 64
MIXED_BATCHES = 2048
#: mixed-routed's live-half pairs come from this many latest acked vertices
MIXED_RECENT = 256
#: runs each writer connection cycles through (new session each time)
WRITER_POOL = 8
#: pairs per run checked against BFS on the materialized run graph
CLOSURE_CROSSCHECK = 25

FSYNC = "always"
#: no background checkpoint lands inside a run; checkpoints are taken
#: explicitly after the window, so every run does the same disk work
CHECKPOINT_INTERVAL = "3600"


@dataclass(frozen=True)
class Plan:
    """The sizes of one invocation (``--smoke`` shrinks them)."""

    seconds: float
    run_size: int = 2000
    prefill_sessions: int = 8
    setups: int = 5
    restarts: int = 5
    warmup: float = 1.0
    recheck: int = 2000

    @classmethod
    def smoke(cls, seconds: float) -> "Plan":
        return cls(seconds=seconds, run_size=300, prefill_sessions=2,
                   setups=1, restarts=1, warmup=0.2, recheck=200)


@dataclass(frozen=True)
class Workload:
    name: str
    cluster: bool
    prefill: bool
    #: the stream the gated metrics describe: "query" or "ingest"
    primary: str
    #: writer connections, each with its own pool of runs
    writers: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("read-hot", cluster=False, prefill=True, primary="query",
                 writers=0),
        Workload("read-cold", cluster=False, prefill=True, primary="query",
                 writers=0),
        Workload("ingest-durable", cluster=False, prefill=False,
                 primary="ingest", writers=2),
        Workload("mixed-routed", cluster=True, prefill=True, primary="query",
                 writers=1),
    )
}


class HarnessError(RuntimeError):
    """The benchmark itself could not proceed (not a server answer)."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


class Run:
    """One sampled run: its wire events and its answer key."""

    __slots__ = ("wire", "vids", "closure")

    def __init__(self, wire, vids, closure) -> None:
        self.wire: List[Dict[str, Any]] = wire
        self.vids: List[int] = vids
        self.closure: ReachClosure = closure


def sample_execution(seed: int, index: int, size: int) -> Execution:
    """The first ``size`` insertions of run ``index`` of ``seed``.

    The run is a ``running-example`` derivation sampled at 1.5 x
    ``size`` vertices (the sampler lands within 30% of its target) in
    its deterministic insertion order.  Every prefix of an insertion
    order is itself a valid execution -- a workflow still running -- so
    cutting it gives every seed sessions of the same size, and set-up,
    recovery and storage do not move with the seed's run sizes.
    """
    derivation = sample_run(
        spec_by_name(SPEC), size * 3 // 2, random.Random(f"{seed}:{index}"))
    execution = execution_from_derivation(derivation)
    return Execution(derivation, execution.insertions[:size])


def make_run(seed: int, index: int, size: int) -> Tuple[Run, int]:
    """Sample run ``index`` of ``seed``; returns it and the number of
    sampled pairs on which its closure disagrees with BFS."""
    execution = sample_execution(seed, index, size)
    insertions = execution.insertions
    closure = ReachClosure((ins.vid, ins.preds) for ins in insertions)
    vids = [ins.vid for ins in insertions]
    graph = execution.replay()
    rng = random.Random(f"{seed}:{index}:bfs")
    mismatches = 0
    for _ in range(CLOSURE_CROSSCHECK):
        source, target = rng.choice(vids), rng.choice(vids)
        if closure.reaches(source, target) != reaches(graph, source, target):
            mismatches += 1
    wire = [insertion_to_json(ins) for ins in insertions]
    return Run(wire, vids, closure), mismatches


def _batch_pool(
    rng: random.Random,
    runs: Sequence[Run],
    batches: int,
    pairs: int,
    share: float = 1.0,
) -> List[Tuple[int, List[List[int]]]]:
    """``batches`` of (run index, ``pairs`` [source, target] pairs) drawn
    uniformly from the leading ``share`` of a random run's vertices."""
    pool = []
    for _ in range(batches):
        index = rng.randrange(len(runs))
        vids = runs[index].vids
        head = vids[: max(2, int(len(vids) * share))]
        pool.append(
            (index, [[rng.choice(head), rng.choice(head)] for _ in range(pairs)])
        )
    return pool


# ---------------------------------------------------------------------------
# the generator side
# ---------------------------------------------------------------------------


class Stream:
    """Latencies and completions of one request type inside the window."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        #: (completion time, items) per request
        self.completions: List[Tuple[float, int]] = []

    def add(self, start: float, end: float, items: int) -> None:
        self.latencies.append(end - start)
        self.completions.append((end, items))

    @property
    def last_end(self) -> float:
        return max((end for end, _ in self.completions), default=0.0)


class Conn:
    """One generator connection; counts every op it attempts."""

    def __init__(self, port: int, tag: str) -> None:
        self.client = ServiceClient("127.0.0.1", port, timeout=120.0)
        self.tag = tag
        self.seq = 0
        self.attempted = 0
        self.refused: List[str] = []

    def call(self, op: str, **params: Any) -> Optional[Any]:
        """One request; a refused request returns None and counts."""
        self.seq += 1
        self.attempted += 1
        try:
            return self.client.call(
                op, trace_id=f"{self.tag}.{self.seq}", **params
            )
        except ReproError as exc:
            self.refused.append(f"{op}: {exc}")
            return None

    def close(self) -> None:
        self.client.close()


class Window:
    """The measured interval, on ``time.perf_counter`` (CLOCK_MONOTONIC
    on Linux, the clock the span hooks read too).  The thread that opens
    and shuts it samples the generator's and the server's CPU time and
    the engine's cache counters (through its own connection) there."""

    def __init__(self, server: ServerProcess) -> None:
        self.server = server
        self.start = math.inf
        self.end: Optional[float] = None
        self.edges: List[Tuple[float, float, Dict[int, float], Dict]] = []

    def measuring(self, t: float) -> bool:
        return t >= self.start and (self.end is None or t < self.end)

    def over(self, t: float) -> bool:
        return self.end is not None and t >= self.end

    def open(self, conn: Optional[Conn]) -> None:
        stats = (conn.call("stats") or {}) if conn is not None else {}
        self.start = time.perf_counter()
        self._sample(self.start, stats)

    def shut(self, conn: Optional[Conn]) -> None:
        self.end = time.perf_counter()
        self._sample(self.end, (conn.call("stats") or {}) if conn else {})

    def _sample(self, t: float, stats: Dict) -> None:
        self.edges.append((t, time.process_time(),
                           self.server.cpu_seconds(), stats))

    def close(self, outcome: "Outcome") -> None:
        """Record the window and the counters between its edges."""
        (t0, cpu0, server0, stats0), (t1, cpu1, server1, stats1) = self.edges
        outcome.window = (t0, t1)
        outcome.gen_cpu_frac = (cpu1 - cpu0) / max(t1 - t0, 1e-9)
        outcome.server_cpu = {
            pid: server1.get(pid, 0.0) - server0.get(pid, 0.0)
            for pid in server1
        }
        outcome.hit_rate = _hit_rate(stats0, stats1)


@dataclass
class Outcome:
    """What the load phase produced, for the metrics and the checks."""

    streams: Dict[str, Stream] = field(default_factory=dict)
    #: session name -> (run, acked events) for sessions still open
    acked: Dict[str, Tuple[Run, int]] = field(default_factory=dict)
    #: (run, pairs, answers) of every batch answered in the window
    answered: List[Tuple[Run, Sequence, Sequence]] = field(default_factory=list)
    snapshot: List[str] = field(default_factory=list)
    window: Tuple[float, float] = (0.0, 0.0)
    gen_cpu_frac: float = 0.0
    hit_rate: float = 0.0
    server_cpu: Dict[int, float] = field(default_factory=dict)
    router_pid: Optional[int] = None
    conns: List[Conn] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    errors: List[BaseException] = []

    def guarded(target):
        def body():
            try:
                target()
            except BaseException as exc:  # re-raised in the caller
                errors.append(exc)
        return body

    threads = [threading.Thread(target=guarded(t)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# the trial
# ---------------------------------------------------------------------------


class Trial:
    """One workload, one seed: set-up, load, crash, checks."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        plan: Plan,
        root: Path,
        run_dir: Path,
        trace_dir: Optional[Path],
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.plan = plan
        self.root = root
        self.run_dir = run_dir
        self.trace_dir = trace_dir
        self.data_dir = run_dir
        #: events acknowledged over the whole trial (prefill included)
        self.events_acked = 0
        self.prefill_runs: List[Run] = []
        self.writer_pools: List[List[Run]] = []
        self.closure_mismatches = 0
        #: (start, end) on perf_counter of each set-up and each restart
        self.setups: List[Tuple[float, float]] = []
        self.restarts: List[Tuple[float, float]] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.server: Optional[ServerProcess] = None
        #: pids of every traced server: ("main" | "restart", router, pids)
        self.servers_traced: List[Tuple[str, Optional[int], List[int]]] = []

    # ------------------------------------------------------------------
    def server_args(self, data_dir: Path) -> List[str]:
        args = ["--data-dir", str(data_dir), "--fsync", FSYNC,
                "--checkpoint-interval", CHECKPOINT_INTERVAL]
        if self.workload.cluster:
            args += ["--workers", "1"]
        return args

    def new_server(self, data_dir: Path, tag: str) -> ServerProcess:
        return ServerProcess(self.root, self.run_dir,
                             self.server_args(data_dir), tag, self.trace_dir)

    # ------------------------------------------------------------------
    def build_inputs(self) -> None:
        counts = [self.plan.prefill_sessions if self.workload.prefill else 0]
        counts += [WRITER_POOL] * self.workload.writers
        index = 0
        pools = []
        for count in counts:
            pool = []
            for _ in range(count):
                run, bad = make_run(self.seed, index, self.plan.run_size)
                pool.append(run)
                self.closure_mismatches += bad
                index += 1
            pools.append(pool)
        self.prefill_runs, self.writer_pools = pools[0], pools[1:]

    def prefill(self, port: int) -> None:
        conn = Conn(port, "prefill")
        try:
            for index, run in enumerate(self.prefill_runs):
                name = f"p{index}"
                if conn.call("create_session", name=name, spec=SPEC) is None:
                    raise HarnessError(f"prefill refused: {conn.refused}")
                for start in range(0, len(run.wire), PREFILL_CHUNK):
                    chunk = run.wire[start:start + PREFILL_CHUNK]
                    if conn.call("ingest", session=name,
                                 insertions=chunk) is None:
                        raise HarnessError(f"prefill refused: {conn.refused}")
        finally:
            conn.close()

    def set_up(self) -> None:
        """Start + prefill, ``plan.setups`` times; keep the last server."""
        for attempt in range(self.plan.setups):
            data_dir = self.run_dir / f"setup-{attempt}"
            server = self.new_server(data_dir, f"setup{attempt}")
            started = time.perf_counter()
            server.start()
            self.prefill(server.port)
            self.setups.append((started, time.perf_counter()))
            if attempt < self.plan.setups - 1:
                server.kill()
                shutil.rmtree(data_dir, ignore_errors=True)
            else:
                self.data_dir = data_dir
                self.server = server
        self.events_acked = sum(len(run.wire) for run in self.prefill_runs)

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def load(self) -> Outcome:
        outcome = Outcome()
        if self.workload.cluster:
            outcome.router_pid = self.server.pids[0]
        for index, run in enumerate(self.prefill_runs):
            outcome.acked[f"p{index}"] = (run, len(run.wire))
        outcome.snapshot = [
            f"p{index}" for index in range(0, len(self.prefill_runs), 2)
        ]
        loads = {
            "read-hot": self._load_read,
            "read-cold": self._load_read,
            "ingest-durable": self._load_ingest,
            "mixed-routed": self._load_mixed,
        }
        # the generator keeps every answer for the checks; a full
        # collection over them mid-window would stall a request
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            loads[self.workload.name](outcome)
        finally:
            gc.enable()
            gc.unfreeze()
        for conn in outcome.conns:
            self.attempted += conn.attempted
            self.failures.extend(conn.refused)
            conn.close()
        return outcome

    def _load_read(self, outcome: Outcome) -> None:
        """read-hot, read-cold: one connection, warm-up, then the window."""
        rng = random.Random(f"{self.seed}:{self.workload.name}:pool")
        hot = self.workload.name == "read-hot"
        pool = _batch_pool(rng, self.prefill_runs,
                           HOT_BATCHES if hot else COLD_BATCHES, BATCH_PAIRS,
                           HOT_SHARE if hot else 1.0)
        conn = Conn(self.server.port, "r")
        outcome.conns.append(conn)
        stream = outcome.streams["query"] = Stream()
        window = Window(self.server)
        opens = time.perf_counter() + self.plan.warmup
        outcome.notes["run_length"] = (
            f"{self.plan.warmup} s warm-up + {self.plan.seconds} s window")
        runs = self.prefill_runs
        index = 0
        while True:
            run_index, pairs = pool[index % len(pool)]
            index += 1
            start = time.perf_counter()
            if window.start == math.inf and start >= opens:
                window.open(conn)
                start = time.perf_counter()
            if start >= window.start + self.plan.seconds:
                window.shut(conn)
                break
            result = conn.call("query_batch", session=f"p{run_index}",
                               pairs=pairs)
            end = time.perf_counter()
            if result is not None and window.measuring(start):
                stream.add(start, end, len(pairs))
                outcome.answered.append(
                    (runs[run_index], pairs, result["answers"]))
        window.close(outcome)

    def _load_mixed(self, outcome: Outcome) -> None:
        """mixed-routed: a writer and a reader connection side by side.

        The writer does fixed work -- a warm-up's worth of events, then
        the window's -- and opens and shuts the window itself, so every
        run writes, stores and holds the same data."""
        rng = random.Random(f"{self.seed}:{self.workload.name}:pool")
        pool = _batch_pool(rng, self.prefill_runs, MIXED_BATCHES,
                           MIXED_READ_PAIRS)
        writes = outcome.streams["ingest"] = Stream()
        reads = outcome.streams["query"] = Stream()
        writer_conn = Conn(self.server.port, "w")
        reader_conn = Conn(self.server.port, "r")
        outcome.conns += [writer_conn, reader_conn]
        window = Window(self.server)
        warmup = int(MIXED_EVENTS_PER_SECOND * self.plan.warmup)
        quota = warmup + int(MIXED_EVENTS_PER_SECOND * self.plan.seconds)
        outcome.notes["run_length"] = (
            f"{warmup} + {quota - warmup} writer events (fixed work), "
            "reads beside them")
        # the live session (name, run, acked) and the session the reader
        # is querying, both guarded by one condition: the writer closes a
        # finished session only once the reader is off it
        live: List[Optional[Tuple[str, Run, int]]] = [None]
        reader_on: List[Optional[str]] = [None]
        reading = threading.Condition()
        writer_pool = self.writer_pools[0]
        runs = self.prefill_runs

        def close_when_unread(name: str) -> None:
            with reading:
                while reader_on[0] == name:
                    reading.wait()
            if writer_conn.call("close", session=name) is not None:
                outcome.acked.pop(name, None)

        def writer() -> None:
            written = 0
            try:
                for k in range(10 ** 9):
                    run = writer_pool[k % len(writer_pool)]
                    name = f"m{k}"
                    if writer_conn.call("create_session", name=name,
                                        spec=SPEC) is None:
                        return
                    acked = 0
                    while acked < len(run.wire):
                        if written >= warmup and window.start == math.inf:
                            window.open(writer_conn)
                        if written >= quota:
                            return
                        size = min(MIXED_WRITE_CHUNK, quota - written)
                        chunk = run.wire[acked:acked + size]
                        start = time.perf_counter()
                        result = writer_conn.call("ingest", session=name,
                                                  insertions=chunk)
                        end = time.perf_counter()
                        if result is None:
                            return
                        acked += len(chunk)
                        written += len(chunk)
                        self.events_acked += len(chunk)
                        outcome.acked[name] = (run, acked)
                        with reading:
                            previous = live[0]
                            live[0] = (name, run, acked)
                        if window.measuring(start):
                            writes.add(start, end, len(chunk))
                        if previous is not None and previous[0] != name:
                            close_when_unread(previous[0])
            finally:
                if window.start == math.inf:
                    window.open(writer_conn)
                window.shut(writer_conn)

        def reader() -> None:
            index = 0
            try:
                for turn in range(10 ** 12):
                    # picking the live session and announcing it is one
                    # step, so the writer never closes it under us
                    with reading:
                        current = live[0] if turn % 2 else None
                        if current is not None:
                            reader_on[0] = current[0]
                    if current is not None:
                        name, run, acked = current
                        recent = run.vids[max(0, acked - MIXED_RECENT):acked]
                        pairs = [[rng.choice(recent), rng.choice(recent)]
                                 for _ in range(MIXED_READ_PAIRS)]
                    else:
                        run_index, pairs = pool[index % len(pool)]
                        index += 1
                        name, run = f"p{run_index}", runs[run_index]
                    start = time.perf_counter()
                    if window.over(start):
                        return
                    result = reader_conn.call("query_batch", session=name,
                                              pairs=pairs)
                    end = time.perf_counter()
                    with reading:
                        reader_on[0] = None
                        reading.notify_all()
                    if result is not None and window.measuring(start):
                        reads.add(start, end, len(pairs))
                        outcome.answered.append(
                            (run, pairs, result["answers"]))
            finally:
                with reading:
                    reader_on[0] = None
                    reading.notify_all()

        _run_threads([writer, reader])
        window.close(outcome)

    def _load_ingest(self, outcome: Outcome) -> None:
        """ingest-durable: two connections, fixed work, no warm-up."""
        quota = int(INGEST_EVENTS_PER_SECOND * self.plan.seconds) // 2
        stream = outcome.streams["ingest"] = Stream()
        conns = [Conn(self.server.port, f"w{c}") for c in range(2)]
        outcome.conns += conns
        lock = threading.Lock()

        def writer(c: int) -> None:
            conn, pool = conns[c], self.writer_pools[c]
            remaining = quota
            for k in range(10 ** 9):
                if remaining <= 0:
                    return
                run = pool[k % len(pool)]
                name = f"w{c}-{k}"
                if conn.call("create_session", name=name, spec=SPEC) is None:
                    return
                if c == 0:
                    outcome.snapshot.append(name)
                acked = 0
                while acked < len(run.wire) and remaining > 0:
                    chunk = run.wire[acked:acked + min(INGEST_CHUNK, remaining)]
                    start = time.perf_counter()
                    result = conn.call("ingest", session=name,
                                       insertions=chunk)
                    end = time.perf_counter()
                    if result is None:
                        return
                    acked += len(chunk)
                    remaining -= len(chunk)
                    with lock:
                        stream.add(start, end, len(chunk))
                        outcome.acked[name] = (run, acked)
                        self.events_acked += len(chunk)

        window = Window(self.server)
        window.open(None)
        _run_threads([lambda: writer(0), lambda: writer(1)])
        window.shut(None)
        window.close(outcome)
        outcome.notes["run_length"] = (
            f"{quota * 2} events over 2 connections (fixed work)")

    # ------------------------------------------------------------------
    # crash, recovery, checks
    # ------------------------------------------------------------------
    def crash_and_recover(self, outcome: Outcome) -> Dict[str, float]:
        """Checkpoint half the sessions, SIGKILL, restart; returns the
        pre-crash measurements."""
        server = self.server
        conn = Conn(server.port, "snap")
        for name in outcome.snapshot:
            if name in outcome.acked:
                conn.call("snapshot", session=name)
        self.attempted += conn.attempted
        self.failures.extend(conn.refused)
        conn.close()
        measured = {
            "rss_mb": server.peak_rss_mb(),
            "rss_processes": len(server.pids),
            "disk_bytes": _dir_bytes(self.data_dir),
        }
        self._stop(server, "main", crash=True)
        for attempt in range(self.plan.restarts):
            server = self.new_server(self.data_dir, f"restart{attempt}")
            started = time.perf_counter()
            ready = server.start()
            self.restarts.append((started, started + ready))
            self.server = server
            if attempt < self.plan.restarts - 1:
                self._stop(server, "restart", crash=True)
        return measured

    def _stop(self, server: ServerProcess, role: str, crash: bool) -> None:
        if self.trace_dir is not None:
            server.dump_spans()
            router = server.pids[0] if self.workload.cluster else None
            handlers = server.pids[1:] if self.workload.cluster else server.pids
            self.servers_traced.append((role, router, handlers))
        if crash:
            server.kill()
        else:
            server.stop()

    def check_recovery(self, outcome: Outcome) -> Dict[str, int]:
        """Every acked event is back; a fresh sample answers right."""
        conn = Conn(self.server.port, "check")
        report = {"sessions_checked": 0, "sessions_lost": 0,
                  "recheck_pairs": 0, "recheck_wrong": 0}
        info = conn.call("recover_info") or {}
        recovered: Dict[str, Dict[str, Any]] = dict(info.get("sessions", {}))
        for worker in info.get("per_worker", []):
            recovered.update(worker.get("sessions", {}))
        for name, (run, acked) in sorted(outcome.acked.items()):
            report["sessions_checked"] += 1
            got = recovered.get(name, {}).get("vertices")
            if got != acked:
                report["sessions_lost"] += 1
                self.failures.append(
                    f"session {name}: {got} vertices recovered, {acked} acked")
        rng = random.Random(f"{self.seed}:{self.workload.name}:recheck")
        names = sorted(outcome.acked)
        remaining = self.plan.recheck
        while names and remaining > 0:
            name = rng.choice(names)
            run, acked = outcome.acked[name]
            vids = run.vids[:acked]
            pairs = [[rng.choice(vids), rng.choice(vids)]
                     for _ in range(min(250, remaining))]
            remaining -= len(pairs)
            result = conn.call("query_batch", session=name, pairs=pairs)
            if result is None:
                continue
            wrong = _count_wrong(run, pairs, result["answers"])
            report["recheck_pairs"] += len(pairs)
            report["recheck_wrong"] += wrong
            if wrong:
                self.failures.append(
                    f"after recovery, {wrong} wrong answers in {name}")
        self.attempted += conn.attempted
        self.failures.extend(conn.refused)
        conn.close()
        return report

    def check_answers(self, outcome: Outcome) -> Dict[str, int]:
        wrong_batches = wrong_pairs = 0
        for run, pairs, answers in outcome.answered:
            wrong = _count_wrong(run, pairs, answers)
            if wrong:
                wrong_batches += 1
                wrong_pairs += wrong
        if wrong_batches:
            self.failures.append(
                f"{wrong_pairs} wrong answers in {wrong_batches} batches")
        return {"batches_checked": len(outcome.answered),
                "wrong_batches": wrong_batches, "wrong_pairs": wrong_pairs}

    def finish(self) -> None:
        if self.server is not None:
            self._stop(self.server, "restart", crash=False)
            self.server = None

    def abort(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None


def _count_wrong(run: Run, pairs, answers) -> int:
    expected = run.closure.answers(pairs)
    if len(answers) != len(expected):
        return len(expected)
    return sum(1 for got, want in zip(answers, expected) if bool(got) != want)


def _hit_rate(before: Dict[str, Any], after: Dict[str, Any]) -> float:
    hits = after.get("cache_hits", 0) - before.get("cache_hits", 0)
    misses = after.get("cache_misses", 0) - before.get("cache_misses", 0)
    return hits / (hits + misses) if hits + misses > 0 else 0.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------


def run_trial(
    name: str,
    seed: int,
    plan: Plan,
    root: Path,
    run_dir: Path,
    trace_dir: Optional[Path] = None,
) -> Tuple[Trial, Outcome, Dict[str, Any]]:
    """Run one workload end to end; returns the trial, the load outcome
    and the pre-crash measurements."""
    trial = Trial(WORKLOADS[name], seed, plan, root, run_dir, trace_dir)
    built = time.perf_counter()
    trial.build_inputs()
    inputs_s = time.perf_counter() - built
    meter = HostMeter(run_dir).start()
    try:
        trial.set_up()
        outcome = trial.load()
        measured = trial.crash_and_recover(outcome)
        outcome.notes["recovery"] = trial.check_recovery(outcome)
        trial.finish()
    finally:
        trial.abort()
        meter.stop()
    outcome.notes["answers"] = trial.check_answers(outcome)
    if trial.closure_mismatches:
        trial.failures.append(
            f"closure disagrees with BFS on {trial.closure_mismatches} pairs")
    measured["inputs_s"] = inputs_s
    measured["data_dir_fs"] = filesystem_type(run_dir)
    measured["meter"] = meter
    return trial, outcome, measured


def _span(stream: Stream, window: Tuple[float, float]) -> Tuple[float, float]:
    """The window, stretched to the stream's last completion."""
    return window[0], max(window[1], stream.last_end)


def e2e_metrics(
    trial: Trial, outcome: Outcome, measured: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """The gated end-to-end metrics: ``{name: {value, unit, samples, raw}}``.

    Timed metrics are put at the host's reference speed (see
    :mod:`e2e_probe`): a time is multiplied by the host speed the
    probes saw while it was measured, over the reference speed.  Each
    request's latency is scaled by the speed of its own second of the
    window, the throughput counts each second of the window as that
    many reference seconds, and a set-up or a restart is scaled by the
    speed over its own interval.  ``raw`` keeps the number as measured.
    """
    meter: HostMeter = measured["meter"]

    def at_reference(intervals) -> Tuple[float, float]:
        raw = [end - start for start, end in intervals]
        scaled = [(end - start) * meter.scale(start, end)
                  for start, end in intervals]
        return statistics.median(scaled), statistics.median(raw)

    primary = outcome.streams[trial.workload.primary]
    start, end = _span(primary, outcome.window)
    scales = meter.scales(start, end)
    rate = scaled_rate(primary.completions, start, end, scales)
    raw_rate = scaled_rate(primary.completions, start, end)

    def scaled(latency: float, done: float) -> float:
        index = min(max(int(done - latency - start), 0), len(scales) - 1)
        return latency * scales[index]

    # the gated percentiles are always reported; the printed sample
    # count shows when p95 has fewer than ten samples beyond it (smoke)
    raw_latencies = sorted(primary.latencies) or [0.0]
    latencies = sorted(
        scaled(latency, done) for latency, (done, _) in
        zip(primary.latencies, primary.completions)) or [0.0]
    setup, setup_raw = at_reference(trial.setups)
    recovery, recovery_raw = at_reference(trial.restarts)
    disk = measured["disk_bytes"] / max(trial.events_acked, 1)
    metrics = {
        "setup_s": (setup, setup_raw, "s", len(trial.setups)),
        "throughput_per_s": (rate, raw_rate, "1/s", len(primary.latencies)),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3,
                           percentile(raw_latencies, 50) * 1e3, "ms",
                           len(primary.latencies)),
        "latency_p95_ms": (percentile(latencies, 95) * 1e3,
                           percentile(raw_latencies, 95) * 1e3, "ms",
                           len(primary.latencies)),
        "recovery_s": (recovery, recovery_raw, "s", len(trial.restarts)),
        "disk_bytes_per_event": (disk, disk, "B/event", trial.events_acked),
        "server_rss_mb": (measured["rss_mb"], measured["rss_mb"], "MiB",
                          measured["rss_processes"]),
    }
    return {
        key: {"value": value, "unit": unit, "samples": samples, "raw": raw}
        for key, (value, raw, unit, samples) in metrics.items()
    }


def stream_diagnostics(outcome: Outcome) -> Dict[str, Dict[str, Any]]:
    """Every stream's rate and latency summary, p99 and max included."""
    report = {}
    for kind, stream in outcome.streams.items():
        report[kind] = {
            "rate": scaled_rate(stream.completions,
                                *_span(stream, outcome.window)),
            "rate_unit": "pairs/s" if kind == "query" else "events/s",
            "requests": len(stream.latencies),
            **latency_summary(stream.latencies),
        }
    return report
