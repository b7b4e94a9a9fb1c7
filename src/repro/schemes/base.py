"""The scheme protocol: one typed interface over every labeling scheme.

The repository hosts many reachability schemes -- the paper's DRL, the
Section 3.2 naive dynamic scheme, the SKL static baseline, and the
general-purpose index family (GRAIL, 2-hop, chains, tree transform,
path positions).  Each grew its own ad-hoc API (``label/query/reaches/
may_reach/total_bits``); this module defines the single protocol they
all conform to through thin adapters (:mod:`repro.schemes.adapters`),
so the service, the CLI and the benchmarks can swap schemes per
workload the way the reachability-index literature treats GRAIL and
2-hop as interchangeable indexes.

Capability typing
-----------------
:class:`SchemeCapabilities` records what a scheme can do, statically:

* ``dynamic`` -- vertices are labeled incrementally as they are
  inserted and labels never change (:class:`DynamicScheme`); static
  schemes need the frozen run up front (:class:`StaticScheme`);
* ``exact`` -- a label-only comparison answers reachability exactly.
  GRAIL's interval containment is only a *necessary* condition: a
  positive filter answer falls back to a guided graph search, so its
  ``exact`` flag is False (``reaches`` is still always correct);
* ``needs_spec`` -- the scheme exploits the workflow specification
  (DRL, SKL, path positions); spec-free schemes index any DAG.

The one protocol query method is :meth:`Scheme.reaches` (batched:
:meth:`Scheme.query_many`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.errors import LabelingError, UnsupportedWorkflowError
from repro.workflow.derivation import Derivation
from repro.workflow.execution import Insertion
from repro.workflow.specification import Specification


@dataclass(frozen=True)
class SchemeCapabilities:
    """What a registered scheme supports, decidable without building it."""

    dynamic: bool
    exact: bool
    needs_spec: bool
    #: the scheme ships a specialized :meth:`Scheme.query_many` batch
    #: kernel (the base-class default -- a per-pair loop over
    #: :meth:`Scheme.reaches` -- is always available as the fallback)
    batch: bool = False

    def to_dict(self) -> Dict[str, bool]:
        return {
            "dynamic": self.dynamic,
            "exact": self.exact,
            "needs_spec": self.needs_spec,
            "batch": self.batch,
        }


class Workload:
    """Everything a scheme may need to label one run.

    Static schemes consume the frozen ``graph`` (and, for SKL, the
    ``spec`` + ``derivation``); dynamic schemes consume the
    ``insertions`` stream.  All views are derived lazily from whatever
    the caller provides, so graph-only workloads (random DAGs) and full
    workflow runs share one type.
    """

    def __init__(
        self,
        spec: Optional[Specification] = None,
        derivation: Optional[Derivation] = None,
        graph=None,
        insertions: Optional[Sequence[Insertion]] = None,
    ) -> None:
        self.spec = spec
        self.derivation = derivation
        self._graph = graph
        self._insertions = list(insertions) if insertions is not None else None

    @classmethod
    def from_run(
        cls, spec: Specification, derivation: Derivation
    ) -> "Workload":
        """The workload of one sampled/recorded workflow run."""
        return cls(spec=spec, derivation=derivation)

    @classmethod
    def from_graph(cls, graph) -> "Workload":
        """A spec-free workload: just a frozen DAG."""
        return cls(graph=graph)

    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The frozen run DAG (materialized from the derivation)."""
        if self._graph is None:
            if self.derivation is None:
                raise LabelingError("workload has neither graph nor derivation")
            self._graph = self.derivation.graph
        return self._graph

    @property
    def insertions(self) -> List[Insertion]:
        """A topological insertion stream over the run."""
        if self._insertions is None:
            if self.derivation is None:
                graph = self.graph
                self._insertions = [
                    Insertion(
                        vid=v,
                        name=graph.name(v),
                        preds=frozenset(graph.predecessors(v)),
                    )
                    for v in graph.topological_order()
                ]
            else:
                from repro.workflow.execution import execution_from_derivation

                self._insertions = list(
                    execution_from_derivation(self.derivation).insertions
                )
        return self._insertions


class Scheme(ABC):
    """One built reachability scheme over one run: the shared protocol.

    Every adapter answers :meth:`reaches` over *vertex ids* (reflexive,
    always exact -- inexact filters fall back internally), exposes the
    per-vertex labels it assigned, and accounts its storage in bits.
    """

    name: ClassVar[str] = "abstract"
    capabilities: ClassVar[SchemeCapabilities]

    # -- construction ---------------------------------------------------
    @classmethod
    def supports(cls, workload: Workload) -> Optional[str]:
        """None when the scheme can label ``workload``, else the reason.

        The default implementation only enforces the ``needs_spec``
        capability; adapters refine it (SKL rejects recursive grammars,
        path positions reject non-path run languages).
        """
        if cls.capabilities.needs_spec and workload.spec is None:
            return f"{cls.name} needs a workflow specification"
        return None

    @classmethod
    @abstractmethod
    def build(cls, workload: Workload, **options: Any) -> "Scheme":
        """A fully labeled instance over ``workload``.

        Raises :class:`UnsupportedWorkflowError` when :meth:`supports`
        would have returned a reason.
        """

    @classmethod
    def check_supported(cls, workload: Workload) -> None:
        reason = cls.supports(workload)
        if reason is not None:
            raise UnsupportedWorkflowError(reason)

    # -- the protocol query method --------------------------------------
    @abstractmethod
    def reaches(self, u: int, v: int) -> bool:
        """Does vertex ``u`` reach vertex ``v``?  Reflexive and exact."""

    def query_many(self, pairs: Iterable[Sequence[int]]) -> List[bool]:
        """Batch :meth:`reaches` over ``(u, v)`` vertex pairs.

        This default is the universal per-pair fallback; schemes whose
        capability record sets ``batch`` override it with a kernel that
        hoists dispatch out of the loop (packed DRL's integer LCA scan,
        the naive scheme's shift-and-mask, path positions' integer
        compare).  Answers are identical either way.
        """
        reaches = self.reaches
        return [reaches(pair[0], pair[1]) for pair in pairs]

    # -- labels and accounting ------------------------------------------
    @abstractmethod
    def label_of(self, vid: int) -> Any:
        """The label assigned to ``vid`` (scheme-specific type)."""

    @abstractmethod
    def labeled_vertices(self) -> Iterable[int]:
        """The vertex ids this scheme has labeled."""

    @abstractmethod
    def label_bits_of(self, vid: int) -> int:
        """Accounted size of one vertex's label, in bits."""

    def total_bits(self) -> int:
        """Total accounted label storage, in bits."""
        return sum(self.label_bits_of(v) for v in self.labeled_vertices())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class StaticScheme(Scheme):
    """A scheme built over a frozen, fully known run graph."""

    @classmethod
    def build(cls, workload: Workload, **options: Any) -> "StaticScheme":
        cls.check_supported(workload)
        return cls._build(workload, **options)

    @classmethod
    @abstractmethod
    def _build(cls, workload: Workload, **options: Any) -> "StaticScheme":
        """Construct the fully labeled instance (support already checked)."""


class DynamicScheme(Scheme):
    """A scheme labeling vertices as they are inserted, labels final.

    Instances come in two ways: :meth:`open` starts an *empty* scheme
    ready for incremental :meth:`insert` calls (what a service session
    does), and :meth:`build` replays a whole workload through it (what
    benchmarks and conformance tests do).
    """

    @classmethod
    def open(
        cls, spec: Optional[Specification] = None, **options: Any
    ) -> "DynamicScheme":
        """An empty instance ready to ingest an insertion stream."""
        if cls.capabilities.needs_spec and spec is None:
            raise UnsupportedWorkflowError(
                f"{cls.name} needs a workflow specification"
            )
        return cls._open(spec, **options)

    @classmethod
    @abstractmethod
    def _open(
        cls, spec: Optional[Specification], **options: Any
    ) -> "DynamicScheme":
        """Construct the empty instance (spec requirement already checked)."""

    @classmethod
    def build(cls, workload: Workload, **options: Any) -> "DynamicScheme":
        cls.check_supported(workload)
        scheme = cls._open(workload.spec, **options)
        scheme.insert_all(workload.insertions)
        return scheme

    # ------------------------------------------------------------------
    @abstractmethod
    def insert(self, insertion: Insertion) -> Any:
        """Label one inserted vertex; its label is final at once.

        Read the label with :meth:`label_of`; DRL returns None here.
        """

    def insert_all(self, insertions: Iterable[Insertion]) -> None:
        for insertion in insertions:
            self.insert(insertion)

    @property
    @abstractmethod
    def labels(self) -> Mapping[int, Any]:
        """The write-once vid -> label map (readable without locking)."""

    def labels_of(self, vids: Sequence[int]) -> List[Any]:
        """The labels of ``vids``, in order (a batch's fingerprint input)."""
        labels = self.labels
        return [labels[vid] for vid in vids]

    @abstractmethod
    def reaches_labels(self, label_u: Any, label_v: Any) -> bool:
        """Reachability decided from two labels alone (dynamic schemes
        are all exact, so this never needs the graph)."""

    # dynamic schemes share the label-map plumbing ----------------------
    def label_of(self, vid: int) -> Any:
        try:
            return self.labels[vid]
        except KeyError:
            raise LabelingError(f"vertex {vid} has no label") from None

    def labeled_vertices(self) -> Iterable[int]:
        return self.labels.keys()

    def reaches(self, u: int, v: int) -> bool:
        return self.reaches_labels(self.label_of(u), self.label_of(v))

    def __len__(self) -> int:
        return len(self.labels)
