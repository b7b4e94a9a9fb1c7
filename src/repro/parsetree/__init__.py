"""Parse trees for workflow runs (Section 4.2).

* :mod:`repro.parsetree.canonical` -- the canonical parse tree: one node
  per derivation step, depth proportional to recursion depth.
* :mod:`repro.parsetree.explicit` -- the explicit parse tree with special
  ``L`` (loop), ``F`` (fork) and ``R`` (recursion) nodes, built dynamically
  by Algorithm 2; for linear recursive grammars its depth is bounded by
  ``2 * |Sigma \\ Delta|`` (Lemma 4.1).
* :mod:`repro.parsetree.queries` -- the LCA-based reachability reduction of
  Lemma 4.2, used as an independent oracle for testing the label-based
  predicate.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".explicit": ("ExplicitParseTree", "NodeKind", "ParseNode"),
    ".canonical": ("CanonicalParseTree",),
    ".queries": ("tree_reaches",),
})

__all__ = [
    "ExplicitParseTree",
    "NodeKind",
    "ParseNode",
    "CanonicalParseTree",
    "tree_reaches",
]
