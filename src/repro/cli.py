"""Command-line interface.

Subcommands::

    python -m repro info SPEC                      # stats + grammar class
    python -m repro derive SPEC -o EXEC [--size N] # sample a run, write log
    python -m repro label SPEC EXEC -o LABELS      # label a log on-the-fly
    python -m repro query SPEC LABELS A B          # reachability from labels
    python -m repro schemes                        # list labeling backends
    python -m repro normalize SPEC -o OUT          # Section 5.3 rewriting
    python -m repro bench [EXPERIMENT...]          # Section 7 verdicts
    python -m repro serve [--port P | --stdio]     # provenance query service
    python -m repro loadgen [SCENARIO]             # drive a load scenario
    python -m repro stats [--watch]                # a live server's telemetry
    python -m repro lint [PATH...]                 # AST invariant lint suite

``label`` takes ``--scheme`` to pick any registered *dynamic*
labeling backend (``drl`` by default; see ``repro schemes``); ``query``
reads the scheme back from the label store, which records it.
``loadgen`` replays a named scenario (``repro loadgen --list``) against
a server it spawns and checks it, or, with ``--port``, a live server.
``serve --data-dir`` makes the service durable -- sessions recovered on
boot by replaying their write-ahead logs, every ingest logged under
``--fsync`` before it is acknowledged -- and ``loadgen crash-recovery``
SIGKILLs such a server twice mid-ingest and verifies that recovery loses
no acknowledged insertion.

Observability: ``serve --metrics-port`` exposes the server's latency
histograms and counters as a Prometheus text endpoint
(``GET /metrics``), ``--log-level``/``--log-format`` configure the
structured (text or JSON-lines) event log on stderr, and ``repro
stats`` polls a live server's ``stats`` and ``metrics`` ops --
``--watch`` keeps refreshing, a terminal-friendly top for the service.

Specifications and execution logs are read/written as JSON or XML,
chosen by file extension (``.json`` / ``.xml``).
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING, List, Optional

from repro.errors import ReproError, ServiceError

if TYPE_CHECKING:
    from repro.workflow.specification import Specification

# Each command imports what it runs, so a process loads only its own
# role's modules: ``serve --workers N`` (the cluster router) loads no
# labeling, workflow or WAL code, and ``serve`` no cluster code.


def _builtin_or_file(name: str) -> Specification:
    """Resolve a spec argument: a bundled dataset name or a file path."""
    from repro.datasets import resolve_spec

    try:
        return resolve_spec(name)
    except ServiceError as exc:
        raise SystemExit(str(exc)) from None


def _check_dynamic_scheme(name: str) -> None:
    """Exit unless ``name`` is a registered dynamic scheme."""
    from repro.schemes import registry

    valid = registry.available(dynamic=True)
    if name not in valid:
        raise SystemExit(
            f"unknown dynamic scheme {name!r}; expected one of {valid}"
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_info(args) -> int:
    from repro.workflow.grammar import analyze_grammar
    from repro.workflow.validation import naming_condition_violations

    spec = _builtin_or_file(args.spec)
    info = analyze_grammar(spec)
    print(f"name:            {spec.name}")
    print(f"graphs:          {len(list(spec.graph_keys()))}")
    print(f"composites:      {sorted(spec.composite_names)}")
    print(f"loops:           {sorted(spec.loops)}")
    print(f"forks:           {sorted(spec.forks)}")
    print(f"max graph size:  {spec.max_graph_size}")
    print(f"avg graph size:  {spec.average_graph_size:.2f}")
    print(f"grammar class:   {info.grammar_class.value}")
    print(f"parallel rec.:   {info.parallel_recursive}")
    problems = naming_condition_violations(spec)
    if problems:
        print(f"naming conditions: {len(problems)} violation(s) "
              "(use 'normalize' or logged mode)")
        for problem in problems[:5]:
            print(f"  - {problem}")
    else:
        print("naming conditions: satisfied (name-inference mode available)")
    return 0


def cmd_derive(args) -> int:
    import random

    from repro.io import save_execution_json, save_execution_xml
    from repro.workflow.derivation import sample_run
    from repro.workflow.execution import execution_from_derivation

    spec = _builtin_or_file(args.spec)
    run = sample_run(spec, args.size, random.Random(args.seed))
    rng = random.Random(args.seed + 1) if args.shuffle else None
    execution = execution_from_derivation(run, rng)
    if args.out.endswith(".xml"):
        save_execution_xml(execution.insertions, args.out, spec.name)
    else:
        save_execution_json(execution.insertions, args.out, spec.name)
    print(f"derived run of {run.run_size()} vertices -> {args.out}")
    return 0


def cmd_label(args) -> int:
    from repro.io import load_execution_json, load_execution_xml, save_labels
    from repro.schemes import registry as scheme_registry

    _check_dynamic_scheme(args.scheme)
    spec = _builtin_or_file(args.spec)
    if args.execution.endswith(".xml"):
        insertions = load_execution_xml(args.execution)
    else:
        insertions = load_execution_json(args.execution)
    try:
        scheme = scheme_registry.open_dynamic(
            args.scheme, spec, skeleton=args.skeleton, mode=args.mode
        )
    except ReproError as exc:
        raise SystemExit(str(exc)) from None
    for insertion in insertions:
        scheme.insert(insertion)
    save_labels(dict(scheme.labels), spec, args.out, scheme=scheme.name)
    bits = [scheme.label_bits_of(v) for v in scheme.labeled_vertices()]
    print(
        f"labeled {len(bits)} vertices with {scheme.name!r} -> {args.out} "
        f"(max {max(bits)} bits, avg {sum(bits) / len(bits):.1f})"
    )
    return 0


def cmd_query(args) -> int:
    from repro.io import load_label_store
    from repro.schemes import registry as scheme_registry

    spec = _builtin_or_file(args.spec)
    scheme_name, labels = load_label_store(spec, args.labels)
    scheme = scheme_registry.open_dynamic(
        scheme_name, spec, skeleton=args.skeleton
    )
    try:
        label_a, label_b = labels[args.source], labels[args.target]
    except KeyError as exc:
        raise SystemExit(f"vertex {exc} has no stored label")
    answer = scheme.reaches_labels(label_a, label_b)
    print(f"{args.source} ~> {args.target}: {answer}  [{scheme_name}]")
    return 0 if answer else 1


def cmd_schemes(args) -> int:
    from repro.schemes import registry as scheme_registry

    for record in scheme_registry.describe():
        kind = "dynamic" if record["dynamic"] else "static"
        exact = "exact" if record["exact"] else "filter+fallback"
        spec = "spec-aware" if record["needs_spec"] else "spec-free"
        print(
            f"{record['name']:<15} {kind:<8} {exact:<16} {spec:<11} "
            f"{record['summary']}"
        )
    return 0


def cmd_normalize(args) -> int:
    from repro.io import save_specification_json, save_specification_xml
    from repro.workflow.normalize import normalize_specification

    spec = _builtin_or_file(args.spec)
    normalized, name_map = normalize_specification(spec)
    if args.out.endswith(".xml"):
        save_specification_xml(normalized, args.out)
    else:
        save_specification_json(normalized, args.out)
    renamed = len(name_map.to_original)
    print(f"normalized -> {args.out} ({renamed} names rewritten)")
    for new, old in sorted(name_map.to_original.items())[:10]:
        print(f"  {new} <- {old}")
    return 0


def cmd_bench(args) -> int:
    from repro.bench.__main__ import run

    return run(args.experiments, args.output)


def _parse_endpoint(value: str, flag: str):
    """Parse one ``host:port`` argument into a ``(host, port)`` pair."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"{flag} must be host:port, got {value!r}")
    try:
        return (host, int(port))
    except ValueError:
        raise SystemExit(
            f"{flag} has a non-numeric port: {value!r}"
        ) from None


def cmd_serve(args) -> int:
    import sys

    from repro.faults import FAILPOINTS
    from repro.obs.logs import configure_logging

    if args.workers < 0:
        raise SystemExit("--workers must be >= 0 (0 = in-process)")
    if args.workers and args.stdio:
        raise SystemExit("--stdio needs the in-process server; "
                         "drop --workers")
    if args.workers and args.metrics_port is not None:
        raise SystemExit(
            "--metrics-port needs the in-process server (workers are "
            "separate processes; scrape the 'metrics' op through the "
            "router instead); drop --workers or --metrics-port"
        )
    replicate_from = None
    if args.replicate_from:
        if args.workers:
            raise SystemExit(
                "--replicate-from pairs whole servers; a replica of a "
                "cluster follows each worker directly -- drop --workers"
            )
        if not args.data_dir:
            raise SystemExit("--replicate-from needs --data-dir (a "
                             "replica applies into its own WAL)")
        replicate_from = _parse_endpoint(args.replicate_from,
                                         "--replicate-from")
    repl_peers = tuple(
        _parse_endpoint(peer.strip(), "--peers")
        for peer in (args.peers or "").split(",") if peer.strip()
    )
    if args.repl_min_acks < 0:
        raise SystemExit("--repl-min-acks must be >= 0")
    try:
        FAILPOINTS.arm_from_env()
        if args.failpoints:
            FAILPOINTS.arm_from_spec(args.failpoints)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    # stderr always: stdout may be the protocol stream under --stdio
    configure_logging(level=args.log_level, fmt=args.log_format)
    if args.workers:
        import signal

        from repro.service.cluster import ClusterSupervisor

        supervisor = ClusterSupervisor(
            workers=args.workers,
            host=args.host,
            port=args.port,
            data_dir=args.data_dir,
            fsync=args.fsync,
            slow_threshold=args.slow_threshold,
        )
        supervisor.start()
        # a process manager's stop signal drains like ``shutdown``; the
        # workers also stop on their own if the router dies any other way
        signal.signal(signal.SIGTERM, lambda signum, frame: supervisor.stop())
        print(
            f"repro cluster listening on {args.host}:{supervisor.port} "
            f"({args.workers} workers"
            + (f", durable under {args.data_dir}" if args.data_dir else "")
            + ")",
            # flushed: a supervisor reading a piped stdout waits for it
            flush=True,
        )
        try:
            supervisor.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            supervisor.stop()
        return 0
    from repro.service.server import ReproServer, ReproService, serve_stdio

    service = ReproService(
        data_dir=args.data_dir,
        fsync=args.fsync,
        slow_threshold=args.slow_threshold,
        replicate_from=replicate_from,
        repl_peers=repl_peers,
        repl_min_acks=args.repl_min_acks,
        replica_id=args.replica_id,
    )
    exporter = None
    if args.metrics_port is not None:
        from repro.obs.metrics import MetricsExporter

        exporter = MetricsExporter(
            service.metrics.render_prometheus, port=args.metrics_port
        ).start()
        print(
            f"repro metrics on http://127.0.0.1:{exporter.port}/metrics",
            file=sys.stderr if args.stdio else sys.stdout,
        )
    if args.data_dir:
        recovered = [
            report["session"]
            for report in service.store.recovery
            if not report.get("skipped")
        ]
        print(
            f"repro service durable under {args.data_dir} "
            f"(fsync={args.fsync}, "
            f"{len(recovered)} session(s) recovered"
            + (f": {', '.join(sorted(recovered))}" if recovered else "")
            + ")",
            # stdout is the protocol stream under --stdio
            file=sys.stderr if args.stdio else sys.stdout,
        )
    if replicate_from is not None:
        print(
            f"repro replica following "
            f"{replicate_from[0]}:{replicate_from[1]} "
            f"(read-only until promoted)",
            file=sys.stderr if args.stdio else sys.stdout,
        )
    try:
        if args.stdio:
            return serve_stdio(service, sys.stdin, sys.stdout)
        server = ReproServer((args.host, args.port), service)
        print(
            f"repro service listening on {args.host}:{server.port}",
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            server.server_close()
        return 0
    finally:
        service.close()
        if exporter is not None:
            exporter.stop()


def cmd_stats(args) -> int:
    import time

    from repro.errors import ReproError
    from repro.service.client import ServiceClient

    if not args.port:
        raise SystemExit("stats needs --port (the live server's TCP port)")

    def sample() -> int:
        try:
            with ServiceClient(args.host, args.port) as client:
                stats = client.stats()
                metrics = client.metrics()
        except (OSError, ReproError) as exc:
            print(f"stats: cannot reach {args.host}:{args.port}: {exc}")
            return 1
        # against a cluster the merged payload carries per-worker rows;
        # show each worker, then the merged total, so the dashboard
        # works unchanged against either serving tier
        per_worker = stats.get("per_worker") or []
        for row in per_worker:
            print(
                f"worker {row.get('worker')}: "
                f"sessions={row.get('sessions')} "
                f"queries={row.get('queries')} "
                f"errors={row.get('query_errors')} "
                f"ingested={row.get('ingested')}"
            )
        total_tag = (
            f"total ({stats.get('workers')} workers): "
            if per_worker else ""
        )
        print(
            f"{total_tag}"
            f"sessions={stats.get('sessions')} "
            f"queries={stats.get('queries')} "
            f"errors={stats.get('query_errors')} "
            f"ingested={stats.get('ingested')}"
        )
        traces = metrics.get("traces", {})
        print(
            f"traces: finished={traces.get('finished')} "
            f"slow={traces.get('slow')} "
            f"(threshold {traces.get('slow_threshold_s')}s)"
        )
        rows = [h for h in metrics.get("histograms", []) if h.get("count")]
        if rows:
            print(
                f"{'series':<44} {'count':>8} {'mean':>9} "
                f"{'p50':>9} {'p95':>9} {'p99':>9}"
            )
        for row in rows:
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(row["labels"].items())
            )
            series = row["name"] + (f"{{{labels}}}" if labels else "")
            print(
                f"{series:<44} {row['count']:>8} "
                f"{_ms(row['mean']):>9} {_ms(row['p50']):>9} "
                f"{_ms(row['p95']):>9} {_ms(row['p99']):>9}"
            )
        return 0

    if not args.watch:
        return sample()
    try:
        while True:
            # clear + home, a terminal-friendly top for the service
            print("\x1b[2J\x1b[H", end="")
            print(f"repro stats {args.host}:{args.port} "
                  f"(every {args.interval:.1f}s, ctrl-C to stop)")
            sample()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _ms(seconds) -> str:
    """Render a seconds quantity as fixed-width milliseconds."""
    if seconds is None:
        return "-"
    return f"{seconds * 1000:.3f}ms"


def cmd_lint(args) -> int:
    import json
    import os
    import time

    from repro.analysis import ALL_CHECKERS, RULE_IDS, lint

    if args.list_rules:
        width = max(len(rule) for rule in RULE_IDS)
        for checker in ALL_CHECKERS:
            scope = "project" if checker.project else "file"
            print(f"{checker.rule:<{width}}  [{scope:>7}]  "
                  f"{checker.summary}")
        return 0
    paths = args.paths
    if not paths:
        # default: the source tree and the tooling next to this package
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        paths = [
            candidate
            for candidate in (os.path.join(root, "src"),
                              os.path.join(root, "tools"))
            if os.path.isdir(candidate)
        ] or ["."]
    rules = None
    if args.rules:
        rules = [part.strip() for part in args.rules.split(",")
                 if part.strip()]
    started = time.perf_counter()
    try:
        report = lint(paths, rules=rules)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    elapsed = time.perf_counter() - started

    if args.json:
        payload = report.to_dict()
        payload["elapsed_seconds"] = round(elapsed, 6)
        print(json.dumps(payload, indent=2))
        return report.exit_code
    for finding in report.findings:
        print(finding.render())
    suffix = (
        f", {len(report.suppressed)} suppressed"
        if report.suppressed else ""
    )
    print(
        f"lint: {len(report.findings)} finding(s) across "
        f"{report.files} file(s), {len(report.rules)} rule(s)"
        f"{suffix} in {elapsed:.2f}s"
    )
    return report.exit_code


def cmd_loadgen(args) -> int:
    import json
    from dataclasses import replace

    from repro.loadgen import get_workload, run, workloads
    from repro.loadgen.workload import FAULTS

    if args.list:
        for name, workload in workloads().items():
            print(f"{name:<24} {workload.summary}")
        return 0
    # a fault preset fixes its topology; any other scenario drives the
    # live server at --port, or spawns one (a cluster or a replicated
    # fleet under --cluster-workers or --replicas)
    topology, kill, _ = FAULTS.get(args.scenario, (None, None, None))
    if topology and args.port:
        raise SystemExit(f"{args.scenario} manages its own server; drop --port")
    if not (topology or args.port):
        topology = ("cluster" if args.cluster_workers is not None
                    else "replicated" if args.replicas is not None
                    else "single")
    size = args.replicas if topology == "replicated" else args.cluster_workers
    try:
        workload = get_workload(args.scenario)
        if args.workers is not None:
            workload = replace(workload, sessions=args.workers)
        report = run(
            workload,
            topology=topology,
            size=2 if size is None else size,
            kill=kill,
            server=(args.host, args.port) if args.port else None,
            data_dir=args.data_dir,
            fsync=args.fsync,
            duration=None if kill else args.duration,
            kill_after=max(0.2, args.duration / 2),
            seed=args.seed,
            verify=args.verify,
            verbose=not args.json,
        )
    except (ReproError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1
    print(
        f"loadgen: {report.operations} ops in {report.elapsed:.2f}s -- "
        f"{report.qps:,.0f} queries/sec ({report.queries} queries), "
        f"{report.ingest_eps:,.0f} events/sec ({report.ingested} "
        f"events), {report.sessions_created} sessions"
    )
    for kind, latency in (
        ("query", report.query_latency),
        ("ingest", report.ingest_latency),
    ):
        if latency.get("count"):
            print(
                f"loadgen: {kind} latency p50={_ms(latency['p50'])} "
                f"p95={_ms(latency['p95'])} p99={_ms(latency['p99'])} "
                f"max={_ms(latency['max'])}"
            )
    for error in report.errors:
        print(f"loadgen: ERROR {error}")
    print(
        f"loadgen: {args.scenario} "
        f"{'PASSED' if report.ok else 'FAILED'} "
        f"-- {report.acknowledged} acknowledged, "
        f"{len(report.lost)} lost, {report.verified_pairs} "
        f"answers BFS-verified ({report.wrong_answers} wrong), "
        f"{len(report.faults)} fault(s)"
    )
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic reachability labeling for workflow executions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="inspect a specification")
    p.add_argument("spec", help="spec file (.json/.xml) or a builtin name")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("derive", help="sample a run, write its execution log")
    p.add_argument("spec")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action="store_true",
                   help="random topological order instead of deterministic")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("label", help="label an execution log on-the-fly")
    p.add_argument("spec")
    p.add_argument("execution")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--scheme", default="drl",
                   help="dynamic labeling backend (see 'repro schemes')")
    p.add_argument("--skeleton", choices=["tcl", "bfs"], default="tcl")
    p.add_argument("--mode", choices=["name", "logged"], default="logged")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("query", help="answer reachability from stored labels")
    p.add_argument("spec")
    p.add_argument("labels")
    p.add_argument("source", type=int)
    p.add_argument("target", type=int)
    p.add_argument("--skeleton", choices=["tcl", "bfs"], default="tcl")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("schemes", help="list the registered labeling backends")
    p.set_defaults(func=cmd_schemes)

    p = sub.add_parser("normalize", help="rewrite to the naming conditions")
    p.add_argument("spec")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("bench", help="regenerate the paper's tables")
    p.add_argument("experiments", nargs="*",
                   help="experiment ids (default: all)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="write the JSON record (rows, verdicts, "
                        "provenance) to FILE")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve", help="run the provenance query service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--stdio", action="store_true",
                   help="speak the protocol over stdin/stdout instead")
    p.add_argument("--workers", type=int, default=0,
                   help="fork this many worker processes, each owning "
                        "a disjoint slice of sessions by stable name "
                        "hash, behind a hash-routing frontend -- the "
                        "multi-core path (0 = today's in-process "
                        "threaded server)")
    p.add_argument("--data-dir", default=None,
                   help="durability: recover every session found here "
                        "on boot, then write-ahead-log all ingests "
                        "(with --workers: one subdir per worker)")
    p.add_argument("--fsync", choices=["always", "batch", "never"],
                   default="always",
                   help="WAL fsync policy (with --data-dir): 'always' "
                        "fsyncs every ingest before acknowledging it, "
                        "'batch' amortizes, 'never' leaves it to the OS")
    # inert: the WAL is a session's only durable state, so there is
    # nothing to roll; still accepted because benchmarks/e2e passes it
    # (ROADMAP item 3)
    p.add_argument("--checkpoint-interval", type=float,
                   help=argparse.SUPPRESS)
    p.add_argument("--replicate-from", default=None, metavar="HOST:PORT",
                   help="run as a read replica of the primary at this "
                        "address (needs --data-dir): apply its shipped "
                        "WAL stream, serve reads, accept 'promote'")
    p.add_argument("--peers", default=None, metavar="H:P,H:P",
                   help="replica only: other endpoints to probe for "
                        "the new primary after a failover")
    p.add_argument("--repl-min-acks", type=int, default=0,
                   help="primary only: acknowledge an ingest only "
                        "after this many replicas cover it (0 = "
                        "asynchronous shipping)")
    p.add_argument("--replica-id", default=None,
                   help="replica only: stable id reported in acks "
                        "(default: one derived from host/pid)")
    p.add_argument("--failpoints", default=None, metavar="SPEC",
                   help="arm deterministic failpoints, e.g. "
                        "'wal.pre_fsync=crash,wal.post_append=raise@2' "
                        "(also read from $REPRO_FAILPOINTS)")
    from repro.obs.logs import LOG_FORMATS, LOG_LEVELS
    from repro.obs.trace import DEFAULT_SLOW_THRESHOLD

    p.add_argument("--metrics-port", type=int, default=None,
                   help="expose Prometheus text metrics on this HTTP "
                        "port (0 picks an ephemeral one)")
    p.add_argument("--log-level", choices=list(LOG_LEVELS), default="info",
                   help="structured event log verbosity (on stderr)")
    p.add_argument("--log-format", choices=list(LOG_FORMATS), default="text",
                   help="event log rendering: human text or JSON lines")
    p.add_argument("--slow-threshold", type=float,
                   default=DEFAULT_SLOW_THRESHOLD,
                   help="requests slower than this many seconds are "
                        "dumped to the slow-query log with their full "
                        "span timeline")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("loadgen",
                       help="replay a synthesized load scenario")
    p.add_argument("scenario", nargs="?", default="mixed",
                   help="scenario name (see --list); default: mixed")
    p.add_argument("--list", action="store_true",
                   help="list the scenario catalog and exit")
    p.add_argument("--duration", type=float, default=5.0,
                   help="seconds of closed-loop load per worker (a fault "
                        "scenario runs its whole run, and kills no later "
                        "than half this after each recovery)")
    p.add_argument("--workers", type=int, default=None,
                   help="sessions, each driven by its own worker thread "
                        "(default: the scenario's session count)")
    p.add_argument("--host", default="127.0.0.1",
                   help="drive a live server at this host (with --port)")
    p.add_argument("--port", type=int, default=0,
                   help="drive a live server over TCP instead of a "
                        "spawned one (0 = spawn)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload synthesis RNG seed")
    p.add_argument("--verify", action="store_true",
                   help="check every answer against BFS ground truth "
                        "(slow; smoke tests)")
    p.add_argument("--data-dir", default=None,
                   help="durable data dir for the spawned servers "
                        "(default: a temp dir)")
    p.add_argument("--fsync", choices=["always", "batch", "never"],
                   default="always",
                   help="the spawned servers' WAL fsync policy")
    p.add_argument("--cluster-workers", type=int, default=None,
                   help="spawn a cluster of this many worker processes "
                        "(>= 1; kill-worker: default 2)")
    p.add_argument("--replicas", type=int, default=None,
                   help="spawn a primary with this many read replicas "
                        "(>= 1; kill-primary: default 2)")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("lint",
                       help="run the AST invariant lint suite "
                            "(repro.analysis)")
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default: the "
                        "repo's src/ and tools/)")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule ids to run "
                        "(default: all; see --list-rules)")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("stats",
                       help="poll a live server's stats and latency "
                            "percentiles")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="the live server's TCP port")
    p.add_argument("--watch", action="store_true",
                   help="keep refreshing instead of sampling once")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh period under --watch, in seconds")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
