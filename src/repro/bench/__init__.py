"""Benchmark harness: regenerates every table and figure of Section 7.

Each ``fig*`` / ``tab*`` function in :mod:`repro.bench.figures` runs one
experiment and returns a :class:`~repro.bench.harness.Table` whose rows
mirror the series the paper plots.  ``python -m repro.bench`` runs them
all and prints the tables; ``benchmarks/`` wraps the same experiment
functions in pytest-benchmark timers.

Scale knob: the environment variable ``REPRO_SCALE`` (default ``1.0``)
multiplies the largest run size; ``REPRO_SAMPLES`` overrides the number
of sampled runs per configuration.
"""

from repro.bench.harness import (
    BenchConfig,
    Table,
    default_config,
    format_table,
    run_ladder,
)

__all__ = ["BenchConfig", "Table", "default_config", "format_table", "run_ladder"]
