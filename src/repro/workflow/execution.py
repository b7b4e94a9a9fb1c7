"""Graph executions: insertion streams over run graphs (Definition 8).

An execution reveals the run one vertex at a time, in some topological
order: module executions are reported as they happen, each with edges from
the already-executed vertices that produced its inputs.  This module turns
a recorded derivation into such an insertion stream.

Each :class:`Insertion` optionally carries its *log origin* -- which
derivation step, copy and template vertex produced it.  The execution-based
labeling scheme has two modes (Section 5.3):

* *name inference*: uses only ``(vid, name, preds)`` and the naming
  conditions of the specification;
* *logged*: uses the origin metadata, mirroring real scientific-workflow
  systems that record a run-to-specification mapping in execution logs.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import ExecutionError
from repro.graphs.digraph import NamedDAG
from repro.graphs.random_graphs import random_insertion_order
from repro.workflow.derivation import Derivation

# (graph key of the instantiated specification graph, instance-copy token,
# template vertex id).  The copy token is a run-wide sequence number: 0 for
# the start instance, then one per instantiated copy in derivation order.
# This is the "run vertex -> specification module" mapping that scientific
# workflow systems record in execution logs (Section 5.3).
LogOrigin = Tuple[str, int, int]


class Insertion(NamedTuple):
    """One step of a graph execution: ``g + (v, C)`` (Definition 3).

    ``slot`` is logged-mode metadata identifying which composite occurrence
    this vertex's instance copy expands: ``(parent copy token, template
    vertex of the composite inside the parent's graph)``; None for the
    start instance.  Together with ``origin`` it is the full
    run-to-specification mapping a workflow engine logs.

    A named tuple: immutable, hashable, and cheaper to build than a
    frozen dataclass, and every wire ingest and every replayed WAL event
    builds one.  It compares equal to the plain tuple of its fields.
    """

    vid: int
    name: str
    preds: FrozenSet[int]
    origin: Optional[LogOrigin] = None
    slot: Optional[Tuple[int, int]] = None


@dataclass
class Execution:
    """A complete execution of a run graph.

    ``insertions`` lists every vertex in a topological order of the final
    run graph; replaying them with :func:`repro.graphs.ops.insert_vertex`
    reproduces the run.
    """

    derivation: Derivation
    insertions: List[Insertion]

    def __iter__(self) -> Iterator[Insertion]:
        return iter(self.insertions)

    def __len__(self) -> int:
        return len(self.insertions)

    def replay(self) -> NamedDAG:
        """Materialize the run graph by replaying the insertions."""
        graph = NamedDAG()
        for ins in self.insertions:
            graph.add_vertex(ins.vid, ins.name)
            for p in ins.preds:
                if p not in graph:
                    raise ExecutionError(
                        f"insertion {ins.vid} references future vertex {p}"
                    )
                graph.add_edge(p, ins.vid)
        return graph


def _origin_map(
    derivation: Derivation,
) -> Tuple[Dict[int, LogOrigin], Dict[int, Optional[Tuple[int, int]]]]:
    """Per-vertex log origins and slot linkage.

    Returns ``(origins, slots)``: ``origins`` maps every atomic run vertex
    to ``(graph key, copy token, template vertex)``; ``slots`` maps it to
    the ``(parent copy token, composite template vertex)`` its instance
    copy expands (None for the start instance).
    """
    spec = derivation.spec
    origins: Dict[int, LogOrigin] = {}
    slots: Dict[int, Optional[Tuple[int, int]]] = {}
    # full reverse map (composites included) to resolve step targets
    locate: Dict[int, Tuple[int, int]] = {}
    all_instances = derivation.all_instances()
    for token, inst in enumerate(all_instances):
        for tv, run_vid in inst.mapping.items():
            locate[run_vid] = (token, tv)
    # instance copies receive tokens in derivation order: start = 0, then
    # each step's copies; record which composite occurrence each expands.
    instance_slot: Dict[int, Optional[Tuple[int, int]]] = {0: None}
    next_token = 1
    for step in derivation.steps:
        parent = locate[step.target]
        for _ in step.copies:
            instance_slot[next_token] = parent
            next_token += 1
    for token, inst in enumerate(all_instances):
        template = spec.graph(inst.key)
        for tv in template.vertices():
            if spec.is_atomic(template.name(tv)):
                run_vid = inst.mapping[tv]
                origins[run_vid] = (inst.key, token, tv)
                slots[run_vid] = instance_slot[token]
    return origins, slots


def deterministic_insertion_order(graph: NamedDAG) -> List[int]:
    """Smallest-vertex-first topological order.

    Run vertex ids are allocated in derivation order, so this order visits
    instance copies in their creation order; with it the execution-based
    labeler reproduces the derivation-based labels *exactly* (Section 5.3).
    """
    indeg = {v: graph.in_degree(v) for v in graph.vertices()}
    heap = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order: List[int] = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in graph.successors(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != len(indeg):
        raise ExecutionError("graph contains a cycle")
    return order


def execution_from_derivation(
    derivation: Derivation,
    rng: Optional[random.Random] = None,
) -> Execution:
    """Produce an execution (random topological insertion order) of a run.

    The derivation must be complete (all vertices atomic).  With ``rng``
    None, ties break deterministically by vertex id.
    """
    graph = derivation.graph
    spec = derivation.spec
    for v in graph.vertices():
        if not spec.is_atomic(graph.name(v)):
            raise ExecutionError(
                "derivation is not complete; run still has composite vertices"
            )
    if rng is None:
        order = deterministic_insertion_order(graph)
    else:
        order = random_insertion_order(graph, rng)
    origins, slots = _origin_map(derivation)
    insertions = [
        Insertion(
            vid=v,
            name=graph.name(v),
            preds=frozenset(graph.predecessors(v)),
            origin=origins.get(v),
            slot=slots.get(v),
        )
        for v in order
    ]
    return Execution(derivation=derivation, insertions=insertions)
