"""Replay/load generation for the provenance query service.

``repro.loadgen`` synthesizes mixed scenario workloads -- ingest-heavy,
query-heavy, hot-key skew, many small churning sessions, one sweep per
registered dynamic labeling scheme -- and drives them through a
closed-loop worker pool against either an in-process
:class:`~repro.service.engine.QueryEngine` or a live server over TCP
(using the pipelined ``query_batch`` fast path).  The result is a
:class:`~repro.loadgen.runner.LoadReport`: throughput, per-op counts,
and every error the service returned.

Entry points: ``repro loadgen`` on the command line, and
:func:`run_scenario` / :func:`scenarios` from code (the worker-scaling
section of ``benchmarks/bench_service.py`` is built on them).
:func:`run_fault` is the fault harness: a seeded ingest against a
single server, a cluster or a replicated fleet under a SIGKILL or an
armed failpoint, checked for zero acknowledged loss and BFS-equal
answers (``repro loadgen crash-recovery``, ``kill-worker`` and
``kill-primary`` are its presets).
"""

from repro.loadgen.crash import CrashReport, run_fault
from repro.loadgen.driver import (
    ClientDriver,
    EngineDriver,
    client_driver_factory,
    engine_driver_factory,
)
from repro.loadgen.runner import LoadReport, run_scenario
from repro.loadgen.scenarios import Scenario, get_scenario, scenarios

__all__ = [
    "Scenario",
    "scenarios",
    "get_scenario",
    "LoadReport",
    "run_scenario",
    "CrashReport",
    "run_fault",
    "EngineDriver",
    "ClientDriver",
    "engine_driver_factory",
    "client_driver_factory",
]
