"""DRL: the paper's dynamic labeling scheme (Section 5).

A reachability label is a list of *entries*, one per node on the path
from the root of the explicit parse tree to the vertex's context.  Each
entry (Algorithm 1) stores:

* ``index`` -- the prefix-scheme child index of the tree node;
* ``kind``  -- the node type (N / L / F / R);
* ``skl``   -- for non-special nodes, a pointer to the skeleton label of
  the vertex's origin inside the annotated specification graph;
* ``rec1`` / ``rec2`` -- for elements of a recursion chain, whether the
  origin reaches the body's recursive vertex and vice versa.

:class:`DRLDerivationLabeler` consumes derivation steps and labels every
new vertex (Algorithms 2 + 3); the binary predicate :meth:`DRL.query`
implements Algorithm 4 and decides reachability from two labels alone in
O(1) for a fixed grammar.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import LabelingError
from repro.labeling.bits import pointer_bits, uint_bits
from repro.labeling.skeleton import SkeletonScheme, make_skeleton
from repro.parsetree.explicit import ExplicitParseTree, NodeKind, ParseNode
from repro.workflow.derivation import Derivation, DerivationStep, Instance
from repro.workflow.grammar import GrammarInfo, analyze_grammar
from repro.workflow.specification import GraphKey, Specification


@dataclass(frozen=True)
class SkeletonRef:
    """Pointer to the skeleton label of vertex ``vertex`` of graph ``key``.

    Skeleton labels are shared by all runs of a specification, so labels
    store this constant-size reference rather than the label itself
    (footnote 4 of the paper).
    """

    key: GraphKey
    vertex: int


@dataclass(frozen=True)
class Entry:
    """One label entry: ``(index, type, skl, rec1, rec2)`` of Algorithm 1."""

    index: int
    kind: NodeKind
    skl: Optional[SkeletonRef] = None
    rec1: Optional[bool] = None
    rec2: Optional[bool] = None


# A reachability label: the entries along the root-to-context path.
Label = Tuple[Entry, ...]


class LabelFactory:
    """Builds entries and per-node label prefixes (Algorithms 1 and 3).

    Shared by the derivation-based and execution-based labelers: a label
    depends only on the tree node and the template vertex, so both modes
    produce *identical* labels (Section 5.3).  The factory caches, per
    parse-tree node, the entry prefix of the path above it.
    """

    def __init__(
        self,
        spec: Specification,
        info: GrammarInfo,
        skeleton: SkeletonScheme,
        r_mode: str,
    ) -> None:
        self.spec = spec
        self.info = info
        self.skeleton = skeleton
        self.r_mode = r_mode
        # node -> entries of the path strictly above the node's own entry
        self._prefix: Dict[ParseNode, Label] = {}
        # node -> annotated graph key (N nodes only)
        self._key: Dict[ParseNode, GraphKey] = {}
        # entries and skeleton refs are interned by value: a label entry
        # depends only on (index, kind, graph key, origin), so equal
        # entries across labels are the *same object*.  Tuple equality
        # between two equal labels then short-circuits per element on
        # identity instead of deep-comparing five dataclass fields, and
        # the reflexive fast path of :meth:`DRL.query` stays O(length).
        self._entry_intern: Dict[
            Tuple[int, NodeKind, Optional[GraphKey], Optional[int]], Entry
        ] = {}
        self._ref_intern: Dict[Tuple[GraphKey, int], SkeletonRef] = {}

    # ------------------------------------------------------------------
    def entry(self, node: ParseNode, template_vid: Optional[int]) -> Entry:
        """Algorithm 1: build ``Entry(x, u)`` for node ``x``, origin ``u``.

        Entries are interned: the same ``(index, kind, origin)`` always
        returns the same :class:`Entry` instance.
        """
        if node.kind is not NodeKind.N:
            key = (node.index, node.kind, None, None)
            entry = self._entry_intern.get(key)
            if entry is None:
                entry = Entry(index=node.index, kind=node.kind)
                self._entry_intern[key] = entry
            return entry
        if template_vid is None:
            raise LabelingError("non-special entries need an origin vertex")
        graph_key = self._key[node]
        intern_key = (node.index, node.kind, graph_key, template_vid)
        entry = self._entry_intern.get(intern_key)
        if entry is not None:
            return entry
        ref_key = (graph_key, template_vid)
        skl = self._ref_intern.get(ref_key)
        if skl is None:
            skl = SkeletonRef(graph_key, template_vid)
            self._ref_intern[ref_key] = skl
        recursive = None
        if self.r_mode != "simplified":
            recursive = self.info.designated_recursive.get(graph_key)
        if recursive is None:
            entry = Entry(index=node.index, kind=node.kind, skl=skl)
        else:
            entry = Entry(
                index=node.index,
                kind=node.kind,
                skl=skl,
                rec1=self.skeleton.reaches(graph_key, template_vid, recursive),
                rec2=self.skeleton.reaches(graph_key, recursive, template_vid),
            )
        self._entry_intern[intern_key] = entry
        return entry

    # ------------------------------------------------------------------
    def register_node(
        self,
        node: ParseNode,
        graph_key: Optional[GraphKey],
        edge_template_vid: Optional[int],
    ) -> None:
        """Record a new tree node and compute its prefix (Algorithm 3).

        ``graph_key`` annotates N nodes; ``edge_template_vid`` is the
        template vertex of the composite on the edge from a *non-special*
        parent (None for the root and for children of special nodes).
        """
        if node.kind is NodeKind.N and graph_key is None:
            raise LabelingError("N nodes must carry a graph key")
        parent = node.parent
        if parent is None:
            self._prefix[node] = ()
        else:
            try:
                base = self._prefix[parent]
            except KeyError:
                raise LabelingError("node was never registered") from None
            if parent.kind is NodeKind.N:
                if edge_template_vid is None:
                    raise LabelingError(
                        "children of non-special nodes need the edge composite"
                    )
                base += (self.entry(parent, edge_template_vid),)
            else:
                base += (self.entry(parent, None),)
            self._prefix[node] = base
        if node.kind is NodeKind.N:
            self._key[node] = graph_key

    def label(self, node: ParseNode, template_vid: int) -> Label:
        """The reachability label of the vertex ``template_vid`` at ``node``."""
        try:
            base = self._prefix[node]
        except KeyError:
            raise LabelingError("node was never registered") from None
        return base + (self.entry(node, template_vid),)

    def new_labels(self) -> Dict[int, Label]:
        """An empty vid -> label store for :meth:`bind`: a dict."""
        return {}

    def bind(
        self,
        labels: Dict[int, Label],
        node: ParseNode,
        template_vid: int,
        vid: int,
    ) -> None:
        """Label vertex ``vid`` at ``node``, origin ``template_vid``."""
        labels[vid] = self.label(node, template_vid)

    def node_key(self, node: ParseNode) -> GraphKey:
        """Annotated graph key of a registered N node."""
        return self._key[node]

    def forget(self, node: ParseNode) -> None:
        """Drop a node's cached prefix when nothing more is labeled under it.

        Labels already built keep their entries.
        """
        self._prefix.pop(node, None)
        self._key.pop(node, None)


class DRL:
    """The DRL scheme: configuration + the Algorithm 4 predicate.

    Parameters
    ----------
    spec:
        The workflow specification.
    skeleton:
        ``'tcl'`` / ``'bfs'`` or a prebuilt :class:`SkeletonScheme` -- the
        scheme used for the specification graphs (Section 5.1).
    r_mode:
        ``'linear'`` (default for linear recursive grammars), ``'one_r'``
        or ``'simplified'`` -- the Section 6 adaptations for nonlinear
        grammars.
    """

    def __init__(
        self,
        spec: Specification,
        skeleton: "str | SkeletonScheme" = "tcl",
        info: Optional[GrammarInfo] = None,
        r_mode: Optional[str] = None,
    ) -> None:
        self.spec = spec
        self.info = info if info is not None else analyze_grammar(spec)
        if r_mode is None:
            r_mode = "linear" if self.info.is_linear else "one_r"
        self.r_mode = r_mode
        if isinstance(skeleton, str):
            skeleton = make_skeleton(spec, skeleton)
        self.skeleton = skeleton
        self._skl_pointer_bits = pointer_bits(spec.max_graph_size)

    # ------------------------------------------------------------------
    def make_factory(self) -> LabelFactory:
        """The label factory this scheme's labelers build labels with.

        Subclasses (the packed representation in
        :mod:`repro.labeling.compact`) override this to swap the label
        representation without touching either labeler.
        """
        return LabelFactory(self.spec, self.info, self.skeleton, self.r_mode)

    def labeler(self) -> "DRLDerivationLabeler":
        """A fresh derivation-based labeler for one run."""
        return DRLDerivationLabeler(self)

    def label_derivation(self, derivation: Derivation) -> Mapping[int, Label]:
        """Label a complete recorded derivation; returns vid -> label."""
        labeler = self.labeler()
        labeler.begin(derivation.start_instance)
        for step in derivation.steps:
            labeler.apply_step(step)
        return labeler.labels

    # ------------------------------------------------------------------
    def query(self, label_v: Label, label_w: Label) -> bool:
        """Algorithm 4: does the vertex of ``label_v`` reach ``label_w``'s?

        Reflexive: equal labels answer True.  The check is
        identity-first -- a reflexive probe of a stored label is one
        pointer comparison -- and entry interning in
        :class:`LabelFactory` makes the structural fallback cheap too:
        equal entries are the same object, so tuple equality
        short-circuits per element instead of deep-comparing dataclass
        fields.
        """
        if label_v is label_w or label_v == label_w:
            return True
        limit = min(len(label_v), len(label_w))
        i = 0
        while i < limit and label_v[i].index == label_w[i].index:
            i += 1
        # Entries 0..i-1 coincide; position i-1 is the LCA of the contexts.
        if i == 0:
            raise LabelingError("labels do not share a root; different runs?")
        lca = label_v[i - 1]
        if lca.kind is NodeKind.L:
            return label_v[i].index < label_w[i].index
        if lca.kind is NodeKind.F:
            return False
        if lca.kind is NodeKind.R:
            if label_v[i].index < label_w[i].index:
                rec1 = label_v[i].rec1
                if rec1 is None:
                    raise LabelingError("missing rec1 flag on R-chain entry")
                return rec1
            rec2 = label_w[i].rec2
            if rec2 is None:
                raise LabelingError("missing rec2 flag on R-chain entry")
            return rec2
        # Non-special LCA: compare skeleton labels of the two origins.
        skl_v = label_v[i - 1].skl
        skl_w = label_w[i - 1].skl
        if skl_v is None or skl_w is None:
            raise LabelingError("missing skeleton pointer on N entry")
        if skl_v.key != skl_w.key:
            raise LabelingError("origin skeleton pointers disagree on graph")
        return self.skeleton.reaches(skl_v.key, skl_v.vertex, skl_w.vertex)

    def query_many_from(
        self, labels: Dict[int, Label], pairs: Iterable[Tuple[int, int]]
    ) -> List[bool]:
        """Batch :meth:`query` over ``(u, v)`` pairs resolved in ``labels``.

        The label lookup is fused into the batch loop on purpose: an
        intermediate list of label pairs would cost as much as the
        dispatch the batching saves.  The reference implementation
        simply loops; the packed representation
        (:class:`repro.labeling.compact.CompactDRL`) overrides it with
        a tight integer kernel.  A pair naming an unlabeled vertex
        raises ``KeyError`` (callers map it to their error type).
        """
        query = self.query
        return [query(labels[pair[0]], labels[pair[1]]) for pair in pairs]

    # ------------------------------------------------------------------
    def entry_bits(self, entry: Entry) -> int:
        """Size of one entry: index + 2 type bits [+ pointer] [+ 2 flags]."""
        bits = uint_bits(entry.index) + 2
        if entry.skl is not None:
            bits += self._skl_pointer_bits
        if entry.rec1 is not None:
            bits += 2
        return bits

    def label_bits(self, label: Label) -> int:
        """Total size of a label in bits (the paper's measured quantity)."""
        return sum(self.entry_bits(entry) for entry in label)


class DRLDerivationLabeler:
    """Derivation-based on-the-fly labeler (Algorithms 2 + 3).

    Feed :meth:`begin` with the start instance and :meth:`apply_step` with
    each derivation step; after every step all new vertices (atomic and
    composite) carry labels in :attr:`labels`, and those labels are final.
    """

    def __init__(self, scheme: DRL) -> None:
        self.scheme = scheme
        self.tree = ExplicitParseTree(
            scheme.spec, info=scheme.info, r_mode=scheme.r_mode
        )
        self.factory = scheme.make_factory()
        self.labels: Mapping[int, Label] = self.factory.new_labels()

    # ------------------------------------------------------------------
    def _label_instance(self, node: ParseNode, instance: Instance) -> None:
        bind = self.factory.bind
        labels = self.labels
        for tv, run_vid in instance.mapping.items():
            bind(labels, node, tv, run_vid)

    def _register(self, node: ParseNode) -> None:
        edge_tv: Optional[int] = None
        if (
            node.parent is not None
            and node.parent.kind is NodeKind.N
            and node.edge_composite is not None
        ):
            _, edge_tv = self.tree.context_of(node.edge_composite)
        key = node.instance.key if node.instance is not None else None
        self.factory.register_node(node, key, edge_tv)
        if node.instance is not None:
            self._label_instance(node, node.instance)

    # ------------------------------------------------------------------
    def begin(self, start_instance: Instance) -> None:
        """Label the start graph (the first intermediate graph)."""
        root = self.tree.begin(start_instance)
        self._register(root)

    def apply_step(self, step: DerivationStep) -> None:
        """Label everything introduced by one derivation step."""
        for node in self.tree.apply_step(step):
            self._register(node)

    # ------------------------------------------------------------------
    def label(self, run_vid: int) -> Label:
        """The (final) label of a run vertex."""
        try:
            return self.labels[run_vid]
        except KeyError:
            raise LabelingError(f"vertex {run_vid} has not been labeled") from None


def label_lengths(scheme: DRL, labels: Iterable[Label]) -> List[int]:
    """Bit lengths of a collection of labels (report helper)."""
    return [scheme.label_bits(label) for label in labels]


def max_label_bits(scheme: DRL, labels: Dict[int, Label]) -> int:
    """Maximum label length in bits over a labeled run.

    Raises :class:`LabelingError` when no vertex has been labeled yet:
    the maximum of an empty run is undefined, and a bare ``ValueError``
    from ``max`` would leak the implementation to report callers.
    """
    if not labels:
        raise LabelingError(
            "cannot report label bits: the run has no labeled vertices"
        )
    return max(scheme.label_bits(label) for label in labels.values())


def avg_label_bits(scheme: DRL, labels: Dict[int, Label]) -> float:
    """Average label length in bits over a labeled run.

    Raises :class:`LabelingError` for a run with no labeled vertices
    (previously a ``ZeroDivisionError``).
    """
    if not labels:
        raise LabelingError(
            "cannot report label bits: the run has no labeled vertices"
        )
    sizes = [scheme.label_bits(label) for label in labels.values()]
    return sum(sizes) / len(sizes)


def pairwise_queries(labels: Dict[int, Label], limit: int = 0) -> Iterable[Tuple[int, int]]:
    """Vertex pairs for query benchmarks (all pairs, optionally truncated)."""
    pairs = itertools.permutations(labels, 2)
    if limit:
        return itertools.islice(pairs, limit)
    return pairs
