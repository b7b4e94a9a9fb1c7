"""repro -- dynamic reachability labeling for recursive workflow executions.

A from-scratch reproduction of Bao, Davidson & Milo, *"Labeling Recursive
Workflow Executions On-the-Fly"* (SIGMOD 2011): workflow specifications
modeled as graph grammars, runs derived or executed dynamically, and the
DRL labeling scheme that answers provenance reachability queries from two
logarithmic-size labels in constant time -- plus every baseline and
substrate the paper's evaluation uses.

Quickstart::

    import random
    from repro import (
        DRL, DRLExecutionLabeler, bioaid, execution_from_derivation,
        sample_run,
    )

    spec = bioaid()
    scheme = DRL(spec, skeleton="tcl")
    run = sample_run(spec, target_size=1000, rng=random.Random(0))
    execution = execution_from_derivation(run)

    labeler = DRLExecutionLabeler(scheme, mode="name")
    for insertion in execution:          # label on-the-fly
        labeler.insert(insertion)

    v, w = execution.insertions[0].vid, execution.insertions[-1].vid
    scheme.query(labeler.label(v), labeler.label(w))   # v ~> w ?

As a service (many concurrent runs, batch queries)::

    from repro import QueryEngine, SessionManager

    manager = SessionManager()
    engine = QueryEngine(manager)
    manager.create("run-1", "bioaid")            # any builtin or spec file
    engine.ingest("run-1", execution.insertions)
    engine.query_many("run-1", [(v, w), (w, v)])  # batch answers

or over the wire: ``python -m repro serve --port 7464`` hosts the same
engine behind a JSON-lines TCP protocol (see :mod:`repro.service` and
``docs/SERVICE.md``), with live-session checkpoint/restore via
:func:`checkpoint_session` / :func:`restore_session`.

Every labeling backend conforms to one capability-typed protocol
(:mod:`repro.schemes`): build any registered scheme by name and query
it through the single ``reaches`` method::

    from repro.schemes import Workload, registry

    workload = Workload.from_run(spec, run)
    for name in registry.available():            # drl, grail, twohop, ...
        if registry.get(name).supports(workload) is None:
            index = registry.build(name, workload)
            index.reaches(v, w)

Sessions host any *dynamic* scheme (``manager.create(..., scheme="naive")``,
``repro serve``/``repro label`` take ``--scheme``).
"""

import importlib as _importlib
import sys as _sys


def _lazy_exports(package, exports):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of module ``package``.

    A package ``__init__`` that re-exported names by importing its
    submodules would load all of them whenever any one submodule is
    imported, since the package ``__init__`` runs first.  Instead each
    package here names where its public names live: ``exports`` maps a
    module, absolute or relative to ``package``, to the names it
    defines.  The first read of a name imports its module and binds the
    value in ``package``'s namespace, so later reads are plain attribute
    lookups.  Any other name raises :class:`AttributeError`, which is
    what lets ``from package import submodule`` fall back to importing
    the submodule.  A process thus loads only what its role runs: a
    cluster router no labeling code, a server no cluster code.
    """
    home = {name: module for module, names in exports.items()
            for name in names}
    namespace = _sys.modules[package].__dict__

    def __getattr__(name):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(_importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.errors": (
        "CycleError", "DerivationError", "ExecutionError", "GraphError",
        "LabelingError", "NotTwoTerminalError", "ProtocolError",
        "ReproError", "ServiceError", "SessionNotFoundError",
        "SpecificationError", "UnsupportedWorkflowError",
    ),
    "repro.graphs": (
        "NamedDAG", "TwoTerminalGraph", "insert_vertex",
        "parallel_composition", "random_two_terminal_dag", "reaches",
        "replace_vertex", "series_composition",
    ),
    "repro.workflow": (
        "Derivation", "DerivationEngine", "DerivationPolicy", "Execution",
        "GrammarClass", "Insertion", "Specification", "analyze_grammar",
        "execution_from_derivation", "sample_run",
    ),
    "repro.workflow.specification": ("make_spec",),
    "repro.parsetree": (
        "CanonicalParseTree", "ExplicitParseTree", "NodeKind",
    ),
    "repro.labeling": (
        "BFSSkeleton", "DRL", "DRLDerivationLabeler", "DRLExecutionLabeler",
        "NaiveDynamicScheme", "SKL", "TCLSkeleton",
    ),
    "repro.datasets": (
        "bioaid", "builtin_spec_names", "fig12_path_grammar",
        "running_example", "spec_by_name", "synthetic_spec",
        "theorem1_grammar",
    ),
    "repro.provenance": ("ProvenanceStore",),
    "repro.schemes": (
        "DynamicScheme", "Scheme", "SchemeCapabilities", "StaticScheme",
        "Workload",
    ),
    "repro.service": (
        "QueryEngine", "ReproServer", "ReproService", "ServiceClient",
        "ServiceStats", "Session", "SessionManager", "checkpoint_session",
        "restore_session",
    ),
})

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "GraphError",
    "CycleError",
    "NotTwoTerminalError",
    "SpecificationError",
    "DerivationError",
    "ExecutionError",
    "LabelingError",
    "UnsupportedWorkflowError",
    "ServiceError",
    "SessionNotFoundError",
    "ProtocolError",
    # graphs
    "NamedDAG",
    "TwoTerminalGraph",
    "series_composition",
    "parallel_composition",
    "insert_vertex",
    "replace_vertex",
    "reaches",
    "random_two_terminal_dag",
    # workflow
    "Specification",
    "make_spec",
    "GrammarClass",
    "analyze_grammar",
    "Derivation",
    "DerivationEngine",
    "DerivationPolicy",
    "sample_run",
    "Execution",
    "Insertion",
    "execution_from_derivation",
    # parse trees
    "ExplicitParseTree",
    "CanonicalParseTree",
    "NodeKind",
    # labeling
    "DRL",
    "DRLDerivationLabeler",
    "DRLExecutionLabeler",
    "SKL",
    "NaiveDynamicScheme",
    "TCLSkeleton",
    "BFSSkeleton",
    # datasets
    "running_example",
    "theorem1_grammar",
    "fig12_path_grammar",
    "bioaid",
    "synthetic_spec",
    "builtin_spec_names",
    "spec_by_name",
    # provenance
    "ProvenanceStore",
    # schemes
    "Scheme",
    "StaticScheme",
    "DynamicScheme",
    "SchemeCapabilities",
    "Workload",
    # service
    "Session",
    "SessionManager",
    "QueryEngine",
    "ServiceStats",
    "ReproService",
    "ReproServer",
    "ServiceClient",
    "checkpoint_session",
    "restore_session",
    "__version__",
]
