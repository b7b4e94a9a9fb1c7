"""The seeded workload model: preset rows, and one stream per session.

A :class:`Workload` row is a declarative recipe -- which spec and
labeling scheme, how many concurrent sessions, how large each hosted
run is, the query/ingest mix, the key-skew shape -- that
:func:`repro.loadgen.run` drives closed-loop.  :func:`workloads` is the
catalog:

* ``mixed`` -- the default 70/30 query/ingest blend;
* ``query-heavy`` -- read throughput with rare ingests;
* ``ingest-heavy`` -- write-dominated, with sessions churning as their
  runs complete;
* ``hot-key`` -- Zipf-ish skew: most queries hammer a small hot set
  of one session's vertices;
* ``many-small-sessions`` -- lots of short-lived runs, stressing the
  session registry's create/close path;
* ``scheme-<name>`` -- one sweep per registered *dynamic* labeling
  backend (built from :mod:`repro.schemes.registry`, so a newly
  registered scheme gets a row for free);
* ``crash-recovery``, ``kill-worker``, ``kill-primary`` -- the fault
  presets: one session's ingest in 4-event chunks, against the
  topology :data:`FAULTS` names, whose named role is SIGKILLed twice.

A :class:`Stream` is one session's traffic: a seeded run sampled from
the spec (so every insertion is a real execution of the workflow, never
garbage the labeler would reject), the run graph as its answer key, the
ledger of acknowledged vids, and the one pair sampler, which draws only
acknowledged vids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets import resolve_spec
from repro.errors import ServiceError
from repro.graphs.reachability import reaches
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation

# schemes whose run-language support is narrower than "any workflow"
# get a compatible default specification
_SPEC_FOR_SCHEME = {"path-position": "fig12-path"}

#: the fault presets: (topology, the role SIGKILLed twice, summary)
FAULTS = {
    "crash-recovery": (
        "single", "server", "SIGKILL a durable server mid-ingest, restart, "
        "verify no acknowledged insertion was lost"),
    "kill-worker": (
        "cluster", "worker", "SIGKILL one cluster worker mid-ingest; the "
        "supervisor restarts it, WAL replay loses zero acknowledged "
        "insertions"),
    "kill-primary": (
        "replicated", "primary", "SIGKILL a replicated primary mid-ingest, "
        "promote the most-caught-up replica, verify zero acknowledged loss"),
}


def default_spec_for(scheme: str) -> str:
    """The spec a workload under ``scheme`` runs by default."""
    return _SPEC_FOR_SCHEME.get(scheme, "running-example")


@dataclass(frozen=True)
class Workload:
    """One declarative load recipe (see module docstring)."""

    name: str
    summary: str
    spec: str = "running-example"
    scheme: str = "drl"
    sessions: int = 4          # streams: one worker thread and session each
    run_size: int = 300        # vertices per sampled run
    prefill: int = 48          # events in a session's first ingest
    query_fraction: float = 0.7  # P(an op is a query batch, not ingest)
    batch_pairs: int = 64      # pairs per query batch
    ingest_chunk: int = 32     # events per later ingest
    hot_fraction: float = 0.0  # P(a query pair is drawn from the hot set)
    hot_keys: float = 0.1      # share of acknowledged vids that are "hot"


def workloads() -> Dict[str, Workload]:
    """The full catalog: the closed-loop rows, one sweep per dynamic
    scheme, and the fault presets."""
    from repro.schemes import registry as scheme_registry

    base = Workload(
        name="mixed",
        summary="70/30 query/ingest blend over concurrent sessions",
    )
    catalog = [
        base,
        replace(base, name="query-heavy",
                summary="read throughput; rare ingests",
                query_fraction=0.97, batch_pairs=128),
        replace(base, name="ingest-heavy",
                summary="write-dominated; sessions churn as runs complete",
                query_fraction=0.15, run_size=400, ingest_chunk=48),
        replace(base, name="hot-key",
                summary="Zipf-ish skew: 90% of queries hit 5% of vertices",
                query_fraction=0.9, hot_fraction=0.9, hot_keys=0.05),
        replace(base, name="many-small-sessions",
                summary="short-lived runs stressing create/close",
                sessions=8, run_size=60, prefill=16, query_fraction=0.5,
                ingest_chunk=16),
    ]
    catalog += [
        replace(base, name=f"scheme-{scheme}",
                summary=f"mixed sweep under the {scheme!r} labeling backend",
                spec=default_spec_for(scheme), scheme=scheme,
                query_fraction=0.8)
        for scheme in scheme_registry.available(dynamic=True)
    ]
    # each one atomic WAL record of 4 events, so a kill interrupts few
    catalog += [
        Workload(name=name, summary=summary, sessions=1, run_size=800,
                 prefill=4, query_fraction=0.0, ingest_chunk=4)
        for name, (_, _, summary) in FAULTS.items()
    ]
    return {workload.name: workload for workload in catalog}


def get_workload(name: str) -> Workload:
    """Look a workload up by name; :class:`ServiceError` when unknown."""
    catalog = workloads()
    try:
        return catalog[name]
    except KeyError:
        raise ServiceError(
            f"unknown scenario {name!r}; available: {sorted(catalog)}"
        ) from None


class Stream:
    """One session's traffic: its run, answer key, ledger and sampler.

    Stream ``index`` samples its run from ``seed + index``.  ``acked``
    is the ledger: the vids acknowledged in the current session, always
    a prefix of the run, since a chunk is resent until it is
    acknowledged and only then is the next one sent.
    """

    def __init__(self, workload: Workload, index: int, seed: int) -> None:
        run = sample_run(resolve_spec(workload.spec), workload.run_size,
                         random.Random(seed + index))
        self.workload, self.index = workload, index
        self.graph = run.graph  # the answer key
        self.events = execution_from_derivation(run).insertions
        self.rng = random.Random(f"{workload.name}:{seed}:{index}")
        self.session: Optional[str] = None
        self.opened = 0  # sessions this stream created
        self.acked: List[int] = []

    @property
    def complete(self) -> bool:
        return len(self.acked) == len(self.events)

    def begin(self, session: str) -> None:
        """Start the run over in a fresh session."""
        self.session, self.acked = session, []

    def chunk(self) -> list:
        """The next events to send: the first ingest's ``prefill``, then
        ``ingest_chunk`` at a time."""
        start = len(self.acked)
        size = (self.workload.ingest_chunk if start
                else self.workload.prefill)
        return self.events[start:start + max(1, size)]

    def pairs(self, count: int, vids: Optional[Sequence[int]] = None
              ) -> List[Tuple[int, int]]:
        """``count`` pairs of ``vids`` (the ledger by default), each from
        the hot set with the workload's ``hot_fraction``."""
        workload, rng = self.workload, self.rng
        vids = self.acked if vids is None else vids
        hot = vids[:max(1, int(len(vids) * workload.hot_keys))]
        pairs = []
        for _ in range(count):
            pool = hot if rng.random() < workload.hot_fraction else vids
            pairs.append((rng.choice(pool), rng.choice(pool)))
        return pairs

    def wrong(self, pairs: Sequence[Tuple[int, int]],
              answers: Sequence[bool]) -> int:
        """How many ``answers`` contradict BFS on the answer key."""
        return sum(answer != reaches(self.graph, a, b)
                   for (a, b), answer in zip(pairs, answers))
