"""Workflow model: specifications, grammars, derivations and executions.

Implements Section 2 of the paper:

* :class:`~repro.workflow.specification.Specification` -- Definition 5,
  the tuple (Sigma, Delta, Delta_L, Delta_F, I, g0).
* :mod:`repro.workflow.grammar` -- the workflow grammar view
  (Definition 6): the ``induces`` relation, recursive vertices, and the
  grammar classification (non-recursive, linear recursive, parallel
  recursive, nonlinear; Definitions 10 and 13).
* :mod:`repro.workflow.derivation` -- graph derivations (Definition 9's
  input model): a derivation engine that samples runs from a specification
  with controllable size and repetition policies.
* :mod:`repro.workflow.execution` -- graph executions (Definition 8's input
  model): topological insertion sequences generated from derivations.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".specification": ("GraphKey", "Specification"),
    ".grammar": ("GrammarClass", "GrammarInfo", "analyze_grammar"),
    ".derivation": ("Derivation", "DerivationEngine", "DerivationPolicy",
                    "DerivationStep", "Instance", "sample_run"),
    ".execution": ("Execution", "Insertion", "execution_from_derivation"),
})

__all__ = [
    "Specification",
    "GraphKey",
    "GrammarClass",
    "GrammarInfo",
    "analyze_grammar",
    "Derivation",
    "DerivationEngine",
    "DerivationPolicy",
    "DerivationStep",
    "Instance",
    "sample_run",
    "Execution",
    "Insertion",
    "execution_from_derivation",
]
