"""Load generation and the fault harness for the provenance service.

``repro.loadgen`` drives one seeded workload model
(:class:`Workload`: sessions, ingest chunks of sampled runs, query
batches with hot or cold pairs) through one closed run loop against a
live server or a fleet it spawns -- a durable single server, a cluster
or a replicated primary, under SIGKILLs or armed failpoints and one
recovery rule -- and checks the result once: zero acknowledged loss,
BFS-equal answers, the required metrics.  The outcome is a
:class:`Report`: throughput, latency, faults and every error.

Entry points: ``repro loadgen`` on the command line (its scenarios,
the fault presets ``crash-recovery``, ``kill-worker`` and
``kill-primary`` among them, are the rows of :func:`workloads`), and
:func:`run` from code (the worker-scaling section of
``benchmarks/bench_service.py`` and the fault matrix in
``tests/test_faults.py`` are built on it).
"""

from repro.loadgen.runner import Report, run
from repro.loadgen.workload import Workload, get_workload, workloads

__all__ = [
    "Workload",
    "workloads",
    "get_workload",
    "Report",
    "run",
]
