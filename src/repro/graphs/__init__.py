"""Graph substrate: DAGs, two-terminal graphs and the paper's operations.

This package implements every graph notion used by the paper:

* :class:`~repro.graphs.digraph.NamedDAG` -- directed acyclic graphs with no
  self-loops or multi-edges whose vertices carry *names* (module names).
* :class:`~repro.graphs.two_terminal.TwoTerminalGraph` -- graphs with a
  single source and a single sink (the set ``G_Sigma`` of the paper).
* The four graph operations of Definitions 1-4: series composition,
  parallel composition, vertex insertion and vertex replacement
  (:mod:`repro.graphs.ops`).
* Reachability utilities (BFS search and bitset transitive closure,
  :mod:`repro.graphs.reachability`).
* A random two-terminal DAG generator used by the synthetic workloads
  (:mod:`repro.graphs.random_graphs`).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".digraph": ("IdAllocator", "NamedDAG"),
    ".two_terminal": ("TwoTerminalGraph",),
    ".ops": ("insert_vertex", "parallel_composition", "replace_vertex",
             "series_composition"),
    ".reachability": ("TransitiveClosure", "ancestors_of", "descendants_of",
                      "reaches"),
    ".random_graphs": ("random_two_terminal_dag",),
})

__all__ = [
    "IdAllocator",
    "NamedDAG",
    "TwoTerminalGraph",
    "series_composition",
    "parallel_composition",
    "insert_vertex",
    "replace_vertex",
    "reaches",
    "ancestors_of",
    "descendants_of",
    "TransitiveClosure",
    "random_two_terminal_dag",
]
