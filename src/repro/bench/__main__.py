"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench                # run everything
    python -m repro.bench fig14 fig20    # run selected experiments
    python -m repro.bench --output results.md   # also write to a file
    REPRO_SCALE=0.25 python -m repro.bench   # smaller run-size ladder

Prints each experiment as an aligned text table.
"""

from __future__ import annotations

import sys
import time

from repro.bench.figures import ALL_DRIVERS
from repro.bench.harness import default_config, format_table


def main(argv) -> int:
    config = default_config()
    args = list(argv[1:])
    output_path = None
    if "--output" in args:
        at = args.index("--output")
        try:
            output_path = args[at + 1]
        except IndexError:
            print("--output needs a file path", file=sys.stderr)
            return 2
        del args[at : at + 2]
    requested = args or list(ALL_DRIVERS)
    unknown = [name for name in requested if name not in ALL_DRIVERS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {sorted(ALL_DRIVERS)}", file=sys.stderr)
        return 2
    chunks = [
        f"# repro bench -- scale={config.scale} samples={config.samples} "
        f"queries={config.queries}"
    ]
    print(chunks[0])
    for name in requested:
        start = time.perf_counter()
        table = ALL_DRIVERS[name](config)
        elapsed = time.perf_counter() - start
        rendered = format_table(table)
        chunks.append("")
        chunks.append(rendered)
        print()
        print(rendered)
        print(f"[{name} completed in {elapsed:.1f}s]")
    if output_path is not None:
        with open(output_path, "w") as handle:
            handle.write("\n".join(chunks) + "\n")
        print(f"\nwrote {output_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
