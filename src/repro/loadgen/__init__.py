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
"""

from repro.loadgen.crash import CrashReport, run_crash_recovery
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
    "run_crash_recovery",
    "EngineDriver",
    "ClientDriver",
    "engine_driver_factory",
    "client_driver_factory",
]
