"""End-to-end smoke test: ``repro serve --selftest [--scheme NAME]``.

Spins up a real :class:`ReproServer` on an ephemeral loopback port,
drives one scripted session through the wire protocol -- scheme
discovery, create (under any registered *dynamic* scheme), batched
ingest, single and batch queries, snapshot, restore, close, shutdown --
and verifies every answer against BFS ground truth on the materialized
run graph, plus that the checkpoint records the session's scheme and
restores under it.  Returns nonzero on any mismatch, so CI can
exercise the server once per dynamic scheme without a separate client
harness.

With ``metrics_port`` the selftest additionally runs the server
durable (a temporary data dir, so WAL timings exist), serves the
Prometheus endpoint on that port, scrapes and strictly parses it, and
asserts the required series are present and populated -- per-op
request latency for query/query_batch/ingest and WAL fsync timings --
plus that the ``metrics`` op answers and that a client-sent
``trace_id`` is echoed end to end.

With ``workers > 0`` the exact same scripted session runs against a
:class:`~repro.service.cluster.ClusterSupervisor` instead of the
in-process server -- same client, same wire protocol, zero script
changes -- which is the point: a cluster must be indistinguishable to
clients.  Cluster-only checks ride along: ``cluster_info`` reports the
topology, and the merged ``stats`` query count equals the sum of the
per-worker rows.
"""

from __future__ import annotations

import random
import tempfile
import threading
import urllib.request
from pathlib import Path
from typing import List, Optional, Tuple

from repro.graphs.reachability import reaches
from repro.obs.metrics import MetricsExporter, parse_prometheus_text
from repro.obs.names import (
    ENGINE_STAGE_SECONDS,
    OP_LATENCY_SECONDS,
    WAL_FSYNC_SECONDS,
    series_count,
)
from repro.schemes import registry as scheme_registry
from repro.service.wal import replay_wal
from repro.service.client import ServiceClient
from repro.service.server import ReproServer, ReproService
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation

# schemes whose run-language support is narrower than "any workflow"
# get a compatible default specification
_SPEC_FOR_SCHEME = {"path-position": "fig12-path"}


def default_spec_for(scheme: str) -> str:
    """The default selftest spec exercising ``scheme``."""
    return _SPEC_FOR_SCHEME.get(scheme, "running-example")


def run_selftest(
    spec_name: Optional[str] = None,
    size: int = 300,
    queries: int = 400,
    seed: int = 0,
    scheme: str = "drl",
    verbose: bool = True,
    metrics_port: Optional[int] = None,
    workers: int = 0,
) -> int:
    """Run the scripted session; returns 0 on success, 1 on mismatch."""
    failures: List[str] = []
    if spec_name is None:
        spec_name = default_spec_for(scheme)
    if workers and metrics_port is not None:
        raise ValueError(
            "the Prometheus endpoint leg needs the in-process server; "
            "run --selftest with either --workers or --metrics-port"
        )

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    def say(message: str) -> None:
        if verbose:
            print(f"selftest: {message}")

    rng = random.Random(seed)
    data_tmp: Optional[tempfile.TemporaryDirectory] = None
    exporter: Optional[MetricsExporter] = None
    if metrics_port is not None:
        # a durable server, so the scrape can also validate the WAL
        # fsync series
        data_tmp = tempfile.TemporaryDirectory(prefix="repro-selftest-")
        service = ReproService(data_dir=data_tmp.name)
        exporter = MetricsExporter(
            service.metrics.render_prometheus, port=metrics_port
        ).start()
        say(f"metrics endpoint on 127.0.0.1:{exporter.port}/metrics")
    elif not workers:
        service = ReproService()
    supervisor = None
    if workers:
        from repro.service.cluster import ClusterSupervisor

        supervisor = ClusterSupervisor(workers=workers, port=0).start()
        thread = threading.Thread(
            target=supervisor.serve_forever, daemon=True
        )
        thread.start()
        port = supervisor.port
        say(f"cluster router on 127.0.0.1:{port} ({workers} workers)")
    else:
        server = ReproServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.port
        say(f"server listening on 127.0.0.1:{port}")
    try:
        with ServiceClient("127.0.0.1", port) as client:
            if workers:
                topology = client.cluster_info()
                check(
                    topology.get("cluster") is True
                    and topology.get("workers") == workers
                    and all(
                        row.get("alive")
                        for row in topology.get("per_worker", [])
                    ),
                    f"cluster_info reported a bad topology: {topology}",
                )
            check(client.ping(), "ping failed")
            advertised = {s["name"]: s for s in client.list_schemes()}
            check(
                advertised.get(scheme, {}).get("dynamic", False),
                f"scheme {scheme!r} not advertised as dynamic",
            )
            say(
                f"{len(advertised)} schemes advertised; exercising "
                f"{scheme!r} on {spec_name!r}"
            )
            info = client.create_session("selftest", spec_name, scheme=scheme)
            check(info["vertices"] == 0, "fresh session not empty")
            check(
                info.get("scheme") == scheme,
                f"create reported scheme {info.get('scheme')!r}",
            )

            run = sample_run(
                client_spec(spec_name), size, random.Random(seed)
            )
            execution = execution_from_derivation(run)
            graph = run.graph
            say(
                f"derived a {len(execution)}-vertex run of {spec_name!r}; "
                "ingesting in batches"
            )
            events = execution.insertions
            half = len(events) // 2
            client.ingest("selftest", events[:half])
            # queries are answerable mid-run, before ingest completes
            vids_so_far = sorted(ins.vid for ins in events[:half])
            mid_pairs = _sample_pairs(vids_so_far, min(50, queries), rng)
            mid_answers = client.query_batch("selftest", mid_pairs)
            for (a, b), answer in zip(mid_pairs, mid_answers):
                check(
                    answer == reaches(graph, a, b),
                    f"mid-run query {a}~>{b}: got {answer}",
                )
            client.ingest("selftest", events[half:])

            vids = sorted(graph.vertices())
            pairs = _sample_pairs(vids, queries, rng)
            answers = client.query_batch("selftest", pairs)
            wrong = sum(
                1
                for (a, b), answer in zip(pairs, answers)
                if answer != reaches(graph, a, b)
            )
            check(wrong == 0, f"{wrong}/{len(pairs)} batch answers wrong")
            say(f"{len(pairs)} batch queries verified against BFS")

            repeat = client.query_batch("selftest", pairs)
            check(repeat == answers, "repeated batch answers diverged")
            stats = client.stats()
            check(
                stats.get("queries", 0) >= 2 * len(pairs),
                f"stats count {stats.get('queries')!r} queries, "
                f"expected at least {2 * len(pairs)}",
            )
            if workers:
                check(
                    stats.get("workers") == workers
                    and len(stats.get("per_worker", [])) == workers,
                    "merged stats are missing the per-worker rows",
                )
                totals = sum(
                    row.get("queries", 0)
                    for row in stats.get("per_worker", [])
                )
                check(
                    totals == stats.get("queries"),
                    f"per-worker query counts sum to {totals}, "
                    f"merged total says {stats.get('queries')}",
                )

            # the pipelined fast path must agree with the plain batch
            # (chunked into several requests, matched back by id)
            chunk = max(1, len(pairs) // 7)
            pipelined = client.query_batch(
                "selftest", pairs, chunk=chunk, window=3
            )
            check(
                pipelined == answers,
                "pipelined chunked answers diverged from plain batch",
            )
            say(
                f"pipelined query_batch verified "
                f"({-(-len(pairs) // chunk)} chunks of <= {chunk})"
            )

            with tempfile.TemporaryDirectory() as tmp:
                ckpt = Path(tmp) / "ckpt"
                client.snapshot("selftest", str(ckpt))
                header = replay_wal(ckpt / "wal.jsonl").header
                check(
                    header.get("scheme") == scheme,
                    f"checkpoint recorded scheme {header.get('scheme')!r}, "
                    f"expected {scheme!r}",
                )
                restored_info = client.create_session(
                    "restored", checkpoint=str(ckpt)
                )
                check(
                    restored_info.get("scheme") == scheme,
                    f"restore reported scheme "
                    f"{restored_info.get('scheme')!r}",
                )
                restored = client.query_batch("restored", pairs)
                check(
                    restored == answers,
                    "restored session answers diverged",
                )
                say(
                    f"checkpoint -> restore round trip verified "
                    f"(scheme {scheme!r} recorded and restored)"
                )
                client.close_session("restored")

            # observability: a traced single query, the metrics op,
            # and -- when the endpoint is up -- a strict scrape
            source, target = pairs[0]
            traced = client.query(
                "selftest", source, target, trace_id="selftest-trace"
            )
            check(
                traced == reaches(graph, source, target),
                "traced single query answered wrong",
            )
            metrics = client.metrics()
            histogram_names = {h["name"] for h in metrics["histograms"]}
            for required in (
                OP_LATENCY_SECONDS,
                ENGINE_STAGE_SECONDS,
            ):
                check(
                    required in histogram_names,
                    f"metrics op is missing the {required!r} series",
                )
            check(
                metrics.get("traces", {}).get("finished", 0) > 0,
                "tracer finished no traces",
            )
            say(
                f"metrics op returned {len(metrics['histograms'])} "
                f"histogram series, {len(metrics['counters'])} counters"
            )
            if exporter is not None:
                client.sync()
                url = f"http://127.0.0.1:{exporter.port}/metrics"
                with urllib.request.urlopen(url, timeout=10) as response:
                    text = response.read().decode("utf-8")
                try:
                    series = parse_prometheus_text(text)
                except ValueError as exc:
                    check(False, f"exposition text is malformed: {exc}")
                    series = {}
                for op in ("query", "query_batch", "ingest"):
                    samples = [
                        sample
                        for sample in series.get(
                            series_count(OP_LATENCY_SECONDS), []
                        )
                        if sample["labels"].get("op") == op
                    ]
                    check(
                        bool(samples) and samples[0]["value"] > 0,
                        f"scrape has no populated latency series for "
                        f"op {op!r}",
                    )
                samples = series.get(series_count(WAL_FSYNC_SECONDS), [])
                check(
                    bool(samples) and samples[0]["value"] > 0,
                    f"scrape has no populated {WAL_FSYNC_SECONDS!r} series",
                )
                say(
                    f"scraped {len(series)} series from {url}; "
                    "format and required series verified"
                )

            client.close_session("selftest")
            client.shutdown_server()
        thread.join(timeout=15)
        check(not thread.is_alive(), "server did not shut down")
    finally:
        if supervisor is not None:
            supervisor.stop()
            thread.join(timeout=15)
        else:
            server.server_close()
            service.close()
        if exporter is not None:
            exporter.stop()
        if data_tmp is not None:
            data_tmp.cleanup()

    if failures:
        for failure in failures:
            print(f"selftest FAILED: {failure}")
        return 1
    say("all checks passed")
    return 0


def run_selftest_all_dynamic(
    size: int = 300,
    queries: int = 400,
    seed: int = 0,
    verbose: bool = True,
    metrics_port: Optional[int] = None,
    workers: int = 0,
) -> int:
    """Run the selftest once per registered dynamic scheme."""
    status = 0
    for scheme in scheme_registry.available(dynamic=True):
        if verbose:
            print(f"selftest: === scheme {scheme!r} ===")
        status |= run_selftest(
            size=size, queries=queries, seed=seed, scheme=scheme,
            verbose=verbose, metrics_port=metrics_port, workers=workers,
        )
    return status


def client_spec(spec_name: str):
    """The same specification the server will instantiate."""
    from repro.service.sessions import resolve_spec

    return resolve_spec(spec_name)


def _sample_pairs(
    vids: List[int], count: int, rng: random.Random
) -> List[Tuple[int, int]]:
    return [
        (rng.choice(vids), rng.choice(vids)) for _ in range(count)
    ]
