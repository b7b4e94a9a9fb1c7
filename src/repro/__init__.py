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

from repro.errors import (
    CycleError,
    DerivationError,
    ExecutionError,
    GraphError,
    LabelingError,
    NotTwoTerminalError,
    ProtocolError,
    ReproError,
    ServiceError,
    SessionNotFoundError,
    SpecificationError,
    UnsupportedWorkflowError,
)
from repro.graphs import (
    NamedDAG,
    TwoTerminalGraph,
    insert_vertex,
    parallel_composition,
    random_two_terminal_dag,
    reaches,
    replace_vertex,
    series_composition,
)
from repro.workflow import (
    Derivation,
    DerivationEngine,
    DerivationPolicy,
    Execution,
    GrammarClass,
    Insertion,
    Specification,
    analyze_grammar,
    execution_from_derivation,
    sample_run,
)
from repro.workflow.specification import make_spec
from repro.parsetree import CanonicalParseTree, ExplicitParseTree, NodeKind
from repro.labeling import (
    BFSSkeleton,
    DRL,
    DRLDerivationLabeler,
    DRLExecutionLabeler,
    NaiveDynamicScheme,
    SKL,
    TCLSkeleton,
)
from repro.datasets import (
    bioaid,
    builtin_spec_names,
    fig12_path_grammar,
    running_example,
    spec_by_name,
    synthetic_spec,
    theorem1_grammar,
)
from repro.provenance import ProvenanceStore
from repro.schemes import (
    DynamicScheme,
    Scheme,
    SchemeCapabilities,
    StaticScheme,
    Workload,
)
from repro.service import (
    QueryEngine,
    ReproServer,
    ReproService,
    ServiceClient,
    ServiceStats,
    Session,
    SessionManager,
    checkpoint_session,
    restore_session,
)

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
