"""A host speed meter: fixed pure-Python work on each CPU, low duty.

On a shared host the CPUs run the same code faster or slower by tens of
percent over tens of seconds, while the process is never descheduled:
execution itself slows.  One probe process per CPU times a fixed loop
of pure-Python work (independent of the code under test) every
``PERIOD`` seconds, about 3% of a CPU, for the whole trial.  The mean
over CPUs of the probes' median speed in an interval is the host's
speed there; the gated times are scaled by it to the host's
:data:`REFERENCE_SPEED`.

Run as a script: ``e2e_probe.py <cpu> <out-file>``.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

#: loop iterations of one probe sample (about 1.5 ms on a 2 GHz Xeon)
WORK = 20_000
PERIOD = 0.05

#: probe samples per second of the baseline's host (2 vCPUs of a shared
#: 2.0 GHz Xeon) at its usual speed: a scaled metric reads as if
#: measured at this host speed
REFERENCE_SPEED = 650.0


def work() -> int:
    total = 0
    for i in range(WORK):
        total += i * i % 7
    return total


def probe(cpu: int, out: str) -> None:
    os.sched_setaffinity(0, {cpu})
    with open(out, "w", encoding="utf-8") as handle:
        while True:
            start = time.perf_counter()
            work()
            elapsed = time.perf_counter() - start
            handle.write(f"{start:.6f} {elapsed:.9f}\n")
            handle.flush()
            time.sleep(PERIOD)


class HostMeter:
    """One probe process per CPU this process may run on."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.processes: List[subprocess.Popen] = []
        self.files: List[Path] = []
        self.samples: List[List[Tuple[float, float]]] = []

    def start(self) -> "HostMeter":
        for cpu in sorted(os.sched_getaffinity(0)):
            out = self.run_dir / f"probe-{cpu}.txt"
            self.files.append(out)
            self.processes.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(cpu),
                 str(out)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL))
        return self

    def stop(self) -> None:
        for process in self.processes:
            process.kill()
        for process in self.processes:
            process.wait()
        self.processes = []
        self.samples = []
        for path in self.files:
            rows = []
            try:
                text = path.read_text()
            except OSError:
                text = ""
            for line in text.splitlines():
                fields = line.split()
                if len(fields) == 2:
                    rows.append((float(fields[0]), 1.0 / float(fields[1])))
            self.samples.append(rows)

    def speed(self, start: float, end: float) -> Optional[float]:
        """Host speed (probe samples per second) over ``[start, end]``,
        widened to at least one second around its middle."""
        if end - start < 1.0:
            middle = (start + end) / 2
            start, end = middle - 0.5, middle + 0.5
        per_cpu = [
            statistics.median(rate for t, rate in rows if start <= t <= end)
            for rows in self.samples
            if any(start <= t <= end for t, _ in rows)
        ]
        return statistics.mean(per_cpu) if per_cpu else None

    def scale(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]`` relative to
        :data:`REFERENCE_SPEED` (1.0 where the probes saw nothing)."""
        speed = self.speed(start, end)
        return speed / REFERENCE_SPEED if speed else 1.0

    def scales(self, start: float, end: float, width: float = 1.0) -> List[float]:
        """:meth:`scale` of each ``width`` slice of ``[start, end)``."""
        slices = max(1, math.ceil((end - start) / width))
        return [
            self.scale(start + index * width, start + (index + 1) * width)
            for index in range(slices)
        ]


if __name__ == "__main__":
    probe(int(sys.argv[1]), sys.argv[2])
