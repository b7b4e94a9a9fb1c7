"""Benchmark harness: regenerates every table and figure of Section 7.

Each experiment of :mod:`repro.bench.figures` is one driver that returns
a :class:`~repro.bench.harness.Table` whose rows mirror the series the
paper plots, paired in ``EXPERIMENTS`` with the paper's claim and the
rule that turns the rows into one verdict.  ``repro bench`` (or
``python -m repro.bench``) runs them and prints the tables; ``--output``
writes them, with their verdicts and provenance, as a JSON record.

Scale knobs: ``REPRO_SCALE`` (default ``1.0``) multiplies the largest
run size; ``REPRO_SAMPLES`` and ``REPRO_QUERIES`` override the sampled
runs per configuration and the query pairs per timing.
"""

from repro.bench.harness import (
    BenchConfig,
    Table,
    default_config,
    format_table,
    run_ladder,
)

__all__ = ["BenchConfig", "Table", "default_config", "format_table", "run_ladder"]
