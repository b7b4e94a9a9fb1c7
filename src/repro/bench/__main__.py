"""``python -m repro.bench``: the same command as ``repro bench``.

Usage::

    repro bench                              # run every experiment
    repro bench fig14 fig20                  # run selected experiments
    repro bench --output BENCH_paper.json    # also write the JSON record
    REPRO_SCALE=0.25 repro bench             # smaller run-size ladder

Prints each experiment as an aligned table with its claim, rule and
verdict.  Only ``--output`` writes a file: the JSON record of every
experiment run (rows, claim, rule, measured values, verdict) with its
provenance (git sha, Python version, core count, config).  An
experiment whose answers disagree across kernels exits 1.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from repro.bench.harness import REPEATS, default_config, format_table
from repro.errors import LabelingError


def _git_sha() -> str:
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return described.stdout.strip() or "unknown"


def run(names: Sequence[str], output: Optional[str] = None) -> int:
    """Run the named experiments (all when empty); 0 on success, 1 when
    an experiment's kernels disagree, 2 on an unknown name."""
    from repro.bench.figures import EXPERIMENTS

    names = list(names) or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    config = default_config()
    print(f"# repro bench -- scale={config.scale} samples={config.samples} "
          f"queries={config.queries} repeats={REPEATS}")
    entries = {}
    for name in names:
        experiment = EXPERIMENTS[name]
        try:
            table = experiment.driver(config)
        except LabelingError as exc:
            print(f"{name} FAILED: {exc}")
            return 1
        entry = entries[name] = {
            "title": table.title,
            "claim": experiment.claim,
            "rule": experiment.rule,
            "columns": list(table.columns),
            "rows": table.rows,
            **experiment.verdict(table.rows),
        }
        print()
        print(format_table(table))
        print(f"claim: {experiment.claim}")
        print(f"rule: {experiment.rule}")
        print(f"verdict: {entry['verdict']} {entry['measured']}")
    if output is not None:
        record = {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "config": {**asdict(config), "repeats": REPEATS},
            "experiments": entries,
        }
        with open(output, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
        print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    from repro.cli import main

    raise SystemExit(main(["bench", *sys.argv[1:]]))
