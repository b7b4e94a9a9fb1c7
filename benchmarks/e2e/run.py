#!/usr/bin/env python3
"""End-to-end benchmark of the provenance query service.

Starts the real server (``python -m repro serve``) as a subprocess,
drives it over loopback TCP through the public ``ServiceClient`` in
closed loop, checks every answer and every acknowledged event, and
prints every metric with its unit and sample count.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``).  Run from the repository root::

    python3 benchmarks/e2e/run.py --workload read-hot --seed 0 --seconds 10
    python3 benchmarks/e2e/run.py --seed 0                 # all workloads
    python3 benchmarks/e2e/run.py --seed 0 --trace 1       # layer metrics
    python3 benchmarks/e2e/run.py --seed 3 --out runs.jsonl
    python3 benchmarks/e2e/run.py compare base.jsonl change.jsonl

Exit status: 0 when every check passed, 1 when an op failed or an
answer was wrong, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.jsonl"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE / "trace_hook"))

from e2e_probe import REFERENCE_SPEED  # noqa: E402
from e2e_stats import judge, quartiles  # noqa: E402

#: a generator busier than this measures itself, not the server
GEN_CPU_LIMIT = 0.9


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def load_records(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def run_workload(name: str, args, plan) -> Dict[str, Any]:
    from e2e_server import provenance, serve_command
    from e2e_trace import (
        install_client_hooks, layer_metrics, uninstall_client_hooks,
    )
    from e2e_workloads import (
        FSYNC, WORKLOADS, e2e_metrics, run_trial, stream_diagnostics,
    )

    began = time.perf_counter()
    run_dir = ROOT / ".bench_runs" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    trace_dir = run_dir / "spans" if args.trace else None
    if trace_dir is not None:
        trace_dir.mkdir()
    recorder = install_client_hooks() if args.trace else None
    layers = attribution = None
    passed = False
    try:
        trial, outcome, measured = run_trial(
            name, args.seed, plan, ROOT, run_dir, trace_dir)
        latencies = {
            ("query_batch" if kind == "query" else "ingest"): stream.latencies
            for kind, stream in outcome.streams.items()
        }
        if recorder is not None:
            layers, attribution = layer_metrics(
                recorder.spans, trace_dir, trial.servers_traced,
                outcome.window, latencies, outcome.gen_cpu_frac,
                outcome.hit_rate, outcome.server_cpu)
        passed = not trial.failures
    finally:
        if recorder is not None:
            uninstall_client_hooks()
        if passed:
            shutil.rmtree(run_dir, ignore_errors=True)
        else:
            print(f"run.py: kept {run_dir} (data dirs, server logs, spans, "
                  "probe samples) for inspection", file=sys.stderr)
    metrics = e2e_metrics(trial, outcome, measured)
    command = serve_command(trial.server_args(Path("DATA_DIR")))
    handlers = sum(
        seconds for pid, seconds in outcome.server_cpu.items()
        if pid != outcome.router_pid)
    requests = sum(len(s.latencies) for s in outcome.streams.values())
    record = {
        "workload": name,
        "seed": args.seed,
        "trace": bool(args.trace),
        "correct": not trial.failures,
        "attempted": trial.attempted,
        "failed": len(trial.failures),
        "metrics": metrics,
        "layers": (
            {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            if layers else None),
        "diagnostics": {
            "streams": stream_diagnostics(outcome),
            "gen_cpu_frac": outcome.gen_cpu_frac,
            "hit_rate": outcome.hit_rate,
            "server_cpu_us_per_req": handlers * 1e6 / max(requests, 1),
            "setup_seconds": [end - start for start, end in trial.setups],
            "recovery_seconds": [end - start for start, end in trial.restarts],
            "host_speed": measured["meter"].speed(*outcome.window),
            "inputs_s": measured["inputs_s"],
            "wall_s": time.perf_counter() - began,
            "checks": {k: v for k, v in outcome.notes.items()
                       if k in ("answers", "recovery")},
            "failures": trial.failures[:20],
        },
        "provenance": {
            **provenance(ROOT),
            "seed": args.seed,
            "smoke": bool(args.smoke),
            "run_length": outcome.notes["run_length"],
            "setups": plan.setups,
            "restarts": plan.restarts,
            "server_command": command[1:],
            "fsync": FSYNC,
            "data_dir_fs": measured["data_dir_fs"],
            "generator": "closed loop, ServiceClient, "
                         f"{len(outcome.conns)} load connection(s)",
        },
    }
    print_record(record, attribution, latencies, args)
    return record


def print_record(record, attribution, latencies, args) -> None:
    from e2e_trace import format_attribution

    trace = "on" if record["trace"] else "off"
    print(f"== {record['workload']} | seed {record['seed']} | "
          f"{record['provenance']['run_length']} | tracing {trace} ==")
    diagnostics = record["diagnostics"]
    print(f"  host speed {diagnostics['host_speed'] or 0:.0f} probe/s in the "
          f"window (reference {REFERENCE_SPEED:.0f}); raw = as measured")
    for name, metric in record["metrics"].items():
        print(f"  {name:<24} {metric['value']:>14.4f} {metric['unit']:<8} "
              f"({metric['samples']} samples, raw {metric['raw']:.4f})")
    for kind, stream in diagnostics["streams"].items():
        tail = "  ".join(
            f"{key} {stream[key]:.3f}"
            for key in ("p50_ms", "p95_ms", "p99_ms", "max_ms") if key in stream)
        print(f"  stream {kind}: {stream['rate']:.0f} {stream['rate_unit']}, "
              f"{stream['requests']} requests, {tail}")
    print(f"  generator cpu {diagnostics['gen_cpu_frac']:.2f} of a core, "
          f"hit rate {diagnostics['hit_rate']:.4f}, server cpu "
          f"{diagnostics['server_cpu_us_per_req']:.0f} us/request")
    if diagnostics["gen_cpu_frac"] > GEN_CPU_LIMIT:
        print(f"  WARNING: generator cpu above {GEN_CPU_LIMIT}: this run "
              "measures the generator")
    print(f"  checks: {json.dumps(diagnostics['checks'], sort_keys=True)}")
    print(f"  ops: {record['attempted']} attempted, {record['failed']} failed")
    for failure in diagnostics["failures"]:
        print(f"  FAILED: {failure}")
    if record["layers"]:
        print("  per-layer metrics:")
        for name, metric in record["layers"].items():
            print(f"    {name:<32} {metric['value']:>14.4f} {metric['unit']}")
        print("  attribution of each round trip (self time per request):")
        for line in format_attribution(attribution, latencies):
            print(line)
        print_overhead(record, args.against)


def print_overhead(record, against: Optional[str]) -> None:
    """Tracing overhead: traced end-to-end numbers against untraced runs."""
    if not against or not Path(against).exists():
        print("  tracing overhead: no untraced runs given (--against)")
        return
    untraced = [
        r for r in load_records(against)
        if r["workload"] == record["workload"] and not r.get("trace")
    ]
    if not untraced:
        print(f"  tracing overhead: {against} has no untraced "
              f"{record['workload']} runs")
        return
    for name in ("throughput_per_s", "latency_p50_ms"):
        base = quartiles([r["metrics"][name]["value"] for r in untraced])[1]
        traced = record["metrics"][name]["value"]
        print(f"  tracing overhead on {name}: traced {traced:.4f} vs "
              f"untraced median {base:.4f} ({traced / base - 1:+.1%}, "
              f"{len(untraced)} untraced runs)")


def result_line(record: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    source = record["layers"] if trace else record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in source.items()
        },
    }


def run_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the provenance query service.")
    parser.add_argument("--workload", default="all",
                        help="one workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace every layer and report per-layer "
                             "metrics")
    parser.add_argument("--out", default=None,
                        help="append one JSON record per workload here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up and one restart")
    parser.add_argument("--against", default=str(BASELINE),
                        help="untraced runs to report tracing overhead "
                             "against")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from e2e_workloads import WORKLOADS, Plan

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"expected one of {list(WORKLOADS)} or 'all'")
    seconds = args.seconds
    if seconds is None:
        seconds = float(load_benchmark()["run_seconds"])
    plan = Plan.smoke(seconds) if args.smoke else Plan(seconds=seconds)
    records = []
    for name in names:
        record = run_workload(name, args, plan)
        records.append(record)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
    if len(records) == 1:
        line = result_line(records[0], bool(args.trace))
    else:
        line = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                f"{r['workload']}/{name}": metric
                for r in records
                for name, metric in result_line(
                    r, bool(args.trace))["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Judge a change's runs against a base's, per workload "
                    "and end-to-end metric, by the BENCHMARK.json bounds.")
    parser.add_argument("base", help="JSON-lines records of the base")
    parser.add_argument("change", help="JSON-lines records of the change")
    args = parser.parse_args(argv)
    specs = load_benchmark()["end_to_end"]
    sides = []
    for path in (args.base, args.change):
        grouped: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list))
        shas = set()
        failed = 0
        for record in load_records(path):
            if record.get("trace") or record.get("provenance", {}).get("smoke"):
                continue
            shas.add(record.get("provenance", {}).get("git_sha", "unknown"))
            failed += record.get("failed", 0)
            for name, metric in record["metrics"].items():
                grouped[record["workload"]][name].append(metric["value"])
        sides.append(grouped)
        print(f"{path}: commits {sorted(shas)}, {failed} failed ops")
    base, change = sides
    verdicts = defaultdict(int)
    print(f"{'workload':<15} {'metric':<21} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8}  verdict")
    for workload in sorted(set(base) & set(change)):
        for spec in specs:
            name = spec["name"]
            if not base[workload].get(name) or not change[workload].get(name):
                continue
            result = judge(name, spec["better"], spec["bound"],
                           base[workload][name], change[workload][name])
            verdicts[result["verdict"]] += 1
            b, c = result["base"], result["change"]
            print(f"{workload:<15} {name:<21} "
                  f"{b['median']:>12.4f} [{b['q1']:.4f}, {b['q3']:.4f}] "
                  f"{c['median']:>12.4f} [{c['q1']:.4f}, {c['q3']:.4f}] "
                  f"{result['delta_frac']:>+8.1%}  {result['verdict']} "
                  f"(bound {spec['bound']:.0%}, spreads "
                  f"{result['spreads'][0]:.1%}/{result['spreads'][1]:.1%})")
    missing = sorted(set(base) ^ set(change))
    if missing:
        print(f"workloads on one side only: {missing}")
    print("verdicts: " + ", ".join(
        f"{count} {verdict}" for verdict, count in sorted(verdicts.items())))
    return 1 if verdicts["worse"] or verdicts["unresolved"] else 0


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
