"""Pure arithmetic of the end-to-end benchmark: no sockets, no processes.

* latency summaries under the sample-count rule (a percentile is
  reported only when at least ten samples lie beyond it), and rates
  per second of the host's reference time;
* quartiles and their spread, the way the comparison judges runs;
* interval arithmetic for span self time (a span minus the part of its
  interval that its children cover, children possibly overlapping);
* the reflexive transitive closure of a run, the answer key every
  returned reachability answer is checked against;
* the ``compare`` verdict of one (workload, metric) pair.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: a percentile is reported only when this many samples lie beyond it
MIN_TAIL_SAMPLES = 10

#: absolute slack a metric may worsen by before ``compare`` calls it a
#: regression, on top of its relative bound: a set-up step of 0.4 s
#: moving by 0.1 s is scheduler noise, not a regression
ABSOLUTE_FLOORS = {"setup_s": 0.15}


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def percentile_supported(samples: int, q: float) -> bool:
    """True when at least :data:`MIN_TAIL_SAMPLES` samples lie beyond
    the ``q``-th percentile of ``samples`` values."""
    return samples * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


def latency_summary(seconds: Iterable[float]) -> Dict[str, float]:
    """Median, p95, p99 and max in milliseconds, with the sample count.

    A percentile the sample cannot support is left out rather than
    reported from a handful of values; the median is always present
    when there is at least one sample.
    """
    values = sorted(seconds)
    summary: Dict[str, float] = {"samples": len(values)}
    if not values:
        return summary
    summary["p50_ms"] = percentile(values, 50) * 1e3
    for q in (95, 99):
        if percentile_supported(len(values), q):
            summary[f"p{q}_ms"] = percentile(values, q) * 1e3
    summary["max_ms"] = values[-1] * 1e3
    return summary


def scaled_rate(
    completions: Iterable[Tuple[float, int]],
    start: float,
    end: float,
    scales: Optional[Sequence[float]] = None,
    width: float = 1.0,
) -> float:
    """Items completed in ``[start, end]`` per second of reference time.

    ``completions`` are ``(time, items)``.  ``scales[i]`` is the host's
    speed in the ``i``-th ``width``-second slice of the interval
    relative to its reference speed: a slice the host ran twice as fast
    counts as two reference seconds.  Without scales this is total ÷
    elapsed.
    """
    total = sum(items for t, items in completions if start <= t <= end)
    elapsed = 0.0
    slices = max(1, math.ceil((end - start) / width))
    for index in range(slices):
        part = min(width, end - start - index * width)
        elapsed += part * (scales[min(index, len(scales) - 1)]
                           if scales else 1.0)
    return total / max(elapsed, 1e-9)


# ---------------------------------------------------------------------------
# quartiles
# ---------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    current_start: Optional[int] = None
    current_end = 0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        total += current_end - current_start
    return total


def self_time(
    start: int, end: int, children: Iterable[Tuple[int, int]]
) -> int:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and may overlap each
    other (threads, or a child recorded on another clock edge); the
    covered part counts once.
    """
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
    ]
    return (end - start) - covered_length(clipped)


# ---------------------------------------------------------------------------
# the answer key
# ---------------------------------------------------------------------------


class ReachClosure:
    """Reflexive transitive closure of one run, from its insertions.

    Insertions arrive in a topological order (every predecessor first),
    so one pass builds, for each vertex, the bitset of the insertion
    ranks of its ancestors: ``u`` reaches ``v`` iff bit ``rank(u)`` of
    ``v``'s row is set.  A 2,700-vertex run costs a few milliseconds
    and about a megabyte.
    """

    __slots__ = ("rank", "rows")

    def __init__(self, insertions: Iterable[Tuple[int, Iterable[int]]]) -> None:
        self.rank: Dict[int, int] = {}
        self.rows: Dict[int, int] = {}
        for vid, preds in insertions:
            row = 1 << len(self.rank)
            for pred in preds:
                row |= self.rows[pred]
            self.rank[vid] = len(self.rank)
            self.rows[vid] = row

    def reaches(self, source: int, target: int) -> bool:
        return bool(self.rows[target] >> self.rank[source] & 1)

    def answers(self, pairs: Iterable[Sequence[int]]) -> List[bool]:
        rank, rows = self.rank, self.rows
        return [bool(rows[t] >> rank[s] & 1) for s, t in pairs]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def judge(
    name: str,
    better: str,
    bound: float,
    base: Sequence[float],
    change: Sequence[float],
) -> Dict[str, object]:
    """The verdict on one (workload, metric) between two sets of runs.

    ``worse``: the change's median is worse than the base median by
    more than ``bound`` of it (and by more than the metric's absolute
    floor, if it has one).  ``better``: improved by as much.
    ``unresolved``: either side's quartile spread exceeds the bound, so
    a difference within it cannot be told from noise -- unless every
    change run beats every base run (or loses to every one).  ``ok``:
    within the bound.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"'better' must be lower or higher, not {better!r}")
    b1, base_median, b3 = quartiles(base)
    c1, change_median, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    # positive = the change is worse
    delta = sign * (change_median - base_median)
    allowed = max(bound * abs(base_median), ABSOLUTE_FLOORS.get(name, 0.0))
    spreads = (relative_spread(base), relative_spread(change))
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    all_worse = all(sign * (c - b) > 0 for c in change for b in base)
    if max(spreads) > bound and not (all_better or all_worse):
        verdict = "unresolved"
    elif delta > allowed:
        verdict = "worse"
    elif -delta > allowed:
        verdict = "better"
    else:
        verdict = "ok"
    return {
        "metric": name,
        "verdict": verdict,
        "base": {"q1": b1, "median": base_median, "q3": b3, "runs": len(base)},
        "change": {
            "q1": c1, "median": change_median, "q3": c3, "runs": len(change),
        },
        "delta_frac": (
            (change_median - base_median) / abs(base_median)
            if base_median else math.inf
        ),
        "allowed": allowed,
        "spreads": spreads,
    }
