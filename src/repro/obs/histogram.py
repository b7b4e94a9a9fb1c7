"""Fixed-bucket log2 latency histograms with mergeable snapshots.

The histogram is the one latency primitive every layer of the service
shares (engine stages, protocol ops, WAL appends/fsyncs, checkpoint
rolls, loadgen reports).  Design constraints, in order:

* **dependency-free and cheap to record** -- one integer ``bit_length``
  picks the bucket, so a ``record`` is a few dict-free integer ops
  under a small lock; recording happens per *batch*, never per pair,
  so the hot query path pays one record per request.
* **exactly mergeable** -- all internal state is integral (bucket
  counts, a nanosecond sum, min/max nanoseconds), so merging snapshots
  is associative and commutative *exactly*, not merely up to float
  rounding.  Per-worker or per-shard histograms aggregate into one
  global view with no coordination while recording.
* **bounded error quantiles** -- buckets double (bucket ``i`` covers
  ``[2^i, 2^(i+1))`` nanoseconds, bucket 0 covers ``[0, 2)``), so a
  quantile estimated by linear interpolation inside its bucket is
  always within a factor of two of the true sample quantile, and the
  observed ``min``/``max`` clamp tightens the tails further (p0 and
  p100 are exact).

64 buckets cover 1 ns .. ~584 years, so no latency a Python service
can produce ever clips.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

NUM_BUCKETS = 64
_NS_PER_SECOND = 1_000_000_000


def bucket_index(ns: int) -> int:
    """The bucket holding a duration of ``ns`` nanoseconds."""
    if ns < 2:
        return 0
    return min(ns.bit_length() - 1, NUM_BUCKETS - 1)


def bucket_bounds(index: int) -> Tuple[int, int]:
    """The ``[lo, hi)`` nanosecond range of bucket ``index``."""
    if index <= 0:
        return 0, 2
    return 1 << index, 1 << (index + 1)


def bucket_upper_seconds(index: int) -> float:
    """The bucket's exclusive upper bound, in seconds (for exposition)."""
    return bucket_bounds(index)[1] / _NS_PER_SECOND


@dataclass(frozen=True)
class HistogramSnapshot:
    """An immutable point-in-time copy of a histogram.

    All fields are integers (counts and nanoseconds), so :meth:`merge`
    is exactly associative: merging per-shard or per-worker snapshots
    in any grouping yields the identical aggregate.
    """

    counts: Tuple[int, ...]
    count: int
    sum_ns: int
    min_ns: int  # 0 when empty
    max_ns: int  # 0 when empty

    @classmethod
    def empty(cls) -> "HistogramSnapshot":
        return cls((0,) * NUM_BUCKETS, 0, 0, 0, 0)

    def raw_dict(self) -> Dict[str, object]:
        """The full integer state, JSON-friendly and exactly mergeable.

        This is the wire form a cluster worker ships to the router so
        per-worker histograms can be merged *exactly* (all fields are
        integers; :meth:`from_raw` round-trips losslessly).
        """
        return {
            "counts": list(self.counts),
            "count": self.count,
            "sum_ns": self.sum_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
        }

    @classmethod
    def from_raw(cls, doc: Dict[str, object]) -> "HistogramSnapshot":
        """Rebuild a snapshot from :meth:`raw_dict` output.

        Raises ``ValueError`` on a malformed document (wrong bucket
        count, non-integer state) rather than guessing.
        """
        counts = doc.get("counts")
        if not isinstance(counts, (list, tuple)) or len(counts) > NUM_BUCKETS:
            raise ValueError("raw histogram has a bad 'counts' vector")
        padded = tuple(int(c) for c in counts)
        padded += (0,) * (NUM_BUCKETS - len(padded))
        return cls(
            counts=padded,
            count=int(doc.get("count", 0)),
            sum_ns=int(doc.get("sum_ns", 0)),
            min_ns=int(doc.get("min_ns", 0)),
            max_ns=int(doc.get("max_ns", 0)),
        )

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """The snapshot of both populations combined (exact)."""
        if not self.count:
            return other
        if not other.count:
            return self
        return HistogramSnapshot(
            counts=tuple(
                a + b for a, b in zip(self.counts, other.counts)
            ),
            count=self.count + other.count,
            sum_ns=self.sum_ns + other.sum_ns,
            min_ns=min(self.min_ns, other.min_ns),
            max_ns=max(self.max_ns, other.max_ns),
        )

    # ------------------------------------------------------------------
    # derived statistics (seconds at the API edge)
    # ------------------------------------------------------------------
    @property
    def sum_seconds(self) -> float:
        return self.sum_ns / _NS_PER_SECOND

    @property
    def mean_seconds(self) -> float:
        return self.sum_ns / self.count / _NS_PER_SECOND if self.count else 0.0

    @property
    def min_seconds(self) -> float:
        return self.min_ns / _NS_PER_SECOND

    @property
    def max_seconds(self) -> float:
        return self.max_ns / _NS_PER_SECOND

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile of the recorded durations, in
        seconds.

        The estimate interpolates linearly inside the bucket holding
        the target rank, then clamps to the observed ``[min, max]``.
        Because the true sample value lies in the same bucket and
        buckets double, the estimate is always within a factor of two
        of the true sorted-sample quantile (and exact at q=0 / q=1).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return 0.0
        if q <= 0.0:
            return self.min_seconds
        if q >= 1.0:
            return self.max_seconds
        # rank of the target element in the sorted sample (0-indexed,
        # nearest-rank: the smallest rank covering a q fraction)
        rank = max(0, -(-int(q * self.count * 1_000_000) // 1_000_000) - 1)
        rank = min(rank, self.count - 1)
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if rank < cumulative + bucket_count:
                lo, hi = bucket_bounds(index)
                position = rank - cumulative
                estimate = lo + (hi - lo) * (position + 0.5) / bucket_count
                estimate = min(max(estimate, self.min_ns), self.max_ns)
                return estimate / _NS_PER_SECOND
            cumulative += bucket_count
        return self.max_seconds  # pragma: no cover - counts sum to count

    def percentiles(self) -> Dict[str, float]:
        """The standard p50/p95/p99 summary, in seconds."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def to_dict(self) -> Dict[str, float]:
        """A JSON-friendly summary (counts elided, percentiles in)."""
        doc: Dict[str, float] = {
            "count": self.count,
            "sum": self.sum_seconds,
            "mean": self.mean_seconds,
            "min": self.min_seconds,
            "max": self.max_seconds,
        }
        doc.update(self.percentiles())
        return doc


class Histogram:
    """A thread-safe log2 latency histogram recording seconds.

    ``record`` converts to integer nanoseconds and updates five
    integers under a lock; ``snapshot`` returns an immutable
    :class:`HistogramSnapshot` for merging/quantiles, leaving the live
    histogram recording.
    """

    __slots__ = ("_lock", "_counts", "_count", "_sum_ns", "_min_ns",
                 "_max_ns")

    def __init__(self) -> None:
        # re-entrant: the collector-pause hook records from inside the
        # allocation that triggered a collection, which can be this
        # very histogram's snapshot() on the same thread
        self._lock = threading.RLock()
        self._counts: List[int] = [0] * NUM_BUCKETS
        self._count = 0
        self._sum_ns = 0
        self._min_ns = 0
        self._max_ns = 0

    def record(self, seconds: float) -> None:
        """Record one duration, clamped at zero."""
        self.record_ns(int(seconds * _NS_PER_SECOND))

    def record_ns(self, ns: int) -> None:
        """Record one duration in integer nanoseconds."""
        if ns < 0:
            ns = 0
        with self._lock:
            self._counts[bucket_index(ns)] += 1
            if self._count:
                if ns < self._min_ns:
                    self._min_ns = ns
                if ns > self._max_ns:
                    self._max_ns = ns
            else:
                self._min_ns = self._max_ns = ns
            self._count += 1
            self._sum_ns += ns

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                counts=tuple(self._counts),
                count=self._count,
                sum_ns=self._sum_ns,
                min_ns=self._min_ns,
                max_ns=self._max_ns,
            )

    def __len__(self) -> int:
        with self._lock:
            return self._count


def merge_snapshots(
    snapshots: Iterable[Optional[HistogramSnapshot]],
) -> HistogramSnapshot:
    """Merge any number of snapshots (``None`` entries skipped)."""
    merged = HistogramSnapshot.empty()
    for snapshot in snapshots:
        if snapshot is not None:
            merged = merged.merge(snapshot)
    return merged
