"""Provenance layer: the motivating application of the paper (Section 1).

Scientific workflow systems record data and module dependencies during
execution; users ask "was data item A (or module M) used to produce data
item B, directly or indirectly?" *while the workflow is still running*.
:class:`~repro.provenance.store.ProvenanceStore` wires the execution-based
DRL labeler to a small data-item catalog so such queries are answered from
two labels in constant time, as soon as the relevant data exists.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".store": ("DataItem", "ModuleRun", "ProvenanceStore"),
})

__all__ = ["ProvenanceStore", "DataItem", "ModuleRun"]
