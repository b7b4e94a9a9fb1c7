"""Adapters: every existing labeling class behind the scheme protocol.

Each adapter is deliberately thin -- it owns configuration and label
bookkeeping but delegates all per-scheme math to the labeling classes
in :mod:`repro.labeling`, which keep their original APIs.  What the
adapters normalize is exactly the historical drift: one ``reaches``
query method, one ``build``/``open`` construction path, one bit
accounting surface, one capability record per scheme.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

import random

from repro.errors import LabelingError
from repro.labeling.chains import ChainIndex
from repro.labeling.compact import CompactDRL
from repro.labeling.drl import DRL
from repro.labeling.drl_execution import DRLExecutionLabeler
from repro.labeling.grail import GrailIndex
from repro.labeling.naive_dynamic import NaiveDynamicScheme
from repro.labeling.path_position import PathPositionScheme, runs_are_paths
from repro.labeling.skl import SKL
from repro.labeling.tree_transform import TreeTransformIndex
from repro.labeling.twohop import TwoHopIndex
from repro.schemes.base import (
    DynamicScheme,
    SchemeCapabilities,
    StaticScheme,
    Workload,
)
from repro.schemes.registry import register
from repro.workflow.execution import Insertion
from repro.workflow.grammar import analyze_grammar
from repro.workflow.specification import Specification


# ---------------------------------------------------------------------------
# dynamic schemes
# ---------------------------------------------------------------------------


@register
class DRLScheme(DynamicScheme):
    """The paper's DRL: logarithmic labels, O(1) queries, on-the-fly.

    Labels use the packed integer representation of
    :mod:`repro.labeling.compact` by default (same answers, same bit
    accounting, a fraction of the per-query cost); pass
    ``packed=False`` to run the reference entry-tuple representation
    instead -- benchmarks do, to measure the gap.
    """

    name = "drl"
    capabilities = SchemeCapabilities(
        dynamic=True, exact=True, needs_spec=True, batch=True
    )

    def __init__(self, drl: DRL, labeler: DRLExecutionLabeler) -> None:
        self.drl = drl
        self.labeler = labeler
        self.skeleton = getattr(drl.skeleton, "name", "tcl").lower()
        self.mode = labeler.mode
        self.packed = getattr(drl, "packed", False)

    @classmethod
    def _open(
        cls,
        spec: Optional[Specification],
        skeleton: str = "tcl",
        mode: str = "logged",
        packed: bool = True,
        **_options: Any,
    ) -> "DRLScheme":
        drl_cls = CompactDRL if packed else DRL
        drl = drl_cls(spec, skeleton=skeleton)
        return cls(drl, DRLExecutionLabeler(drl, mode=mode))

    def insert(self, insertion: Insertion) -> None:
        self.labeler.insert(insertion)

    @property
    def labels(self) -> Mapping[int, Any]:
        return self.labeler.labels

    def labels_of(self, vids: Sequence[int]) -> List[Any]:
        if self.packed:
            return self.labeler.labels.labels_of(vids)
        return super().labels_of(vids)

    def reaches_labels(self, label_u: Any, label_v: Any) -> bool:
        return self.drl.query(label_u, label_v)

    def reaches(self, u: int, v: int) -> bool:
        # the generic DynamicScheme.reaches pays three extra call
        # frames per probe (label_of twice + reaches_labels); on the
        # innermost loop that dispatch costs more than the kernel
        labels = self.labeler.labels
        try:
            label_u = labels[u]
            label_v = labels[v]
        except KeyError as exc:
            raise LabelingError(f"vertex {exc} has no label") from None
        return self.drl.query(label_u, label_v)

    def query_many(self, pairs: Iterable[Sequence[int]]) -> List[bool]:
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        try:
            return self.drl.query_many_from(self.labeler.labels, pairs)
        except KeyError as exc:
            raise LabelingError(f"vertex {exc} has no label") from None

    def label_bits_of(self, vid: int) -> int:
        return self.drl.label_bits(self.label_of(vid))


@register
class NaiveScheme(DynamicScheme):
    """Section 3.2's naive dynamic scheme: n-1-bit labels, any DAG."""

    name = "naive"
    capabilities = SchemeCapabilities(
        dynamic=True, exact=True, needs_spec=False, batch=True
    )

    def __init__(self) -> None:
        self.inner = NaiveDynamicScheme()

    @classmethod
    def _open(
        cls, spec: Optional[Specification], **_options: Any
    ) -> "NaiveScheme":
        return cls()

    def insert(self, insertion: Insertion) -> Any:
        return self.inner.insert(insertion.vid, insertion.preds)

    @property
    def labels(self) -> Dict[int, Any]:
        return self.inner.labels

    def reaches_labels(self, label_u: Any, label_v: Any) -> bool:
        return NaiveDynamicScheme.query(label_u, label_v)

    def reaches(self, u: int, v: int) -> bool:
        labels = self.inner.labels
        try:
            label_u = labels[u]
            label_v = labels[v]
        except KeyError as exc:
            raise LabelingError(f"vertex {exc} has no label") from None
        rank_u = label_u.index
        rank_v = label_v.index
        if rank_u == rank_v:
            return True
        if rank_u > rank_v:
            return False
        return bool(label_v.ancestors >> (rank_u - 1) & 1)

    def query_many(self, pairs: Iterable[Sequence[int]]) -> List[bool]:
        # the query is a rank compare plus one shift-and-mask; inlining
        # it removes a method dispatch and a dataclass call per pair
        labels = self.inner.labels
        answers: List[bool] = []
        append = answers.append
        try:
            for pair in pairs:
                label_u = labels[pair[0]]
                label_v = labels[pair[1]]
                rank_u = label_u.index
                rank_v = label_v.index
                if rank_u == rank_v:
                    append(True)
                elif rank_u > rank_v:
                    append(False)
                else:
                    append(bool(label_v.ancestors >> (rank_u - 1) & 1))
        except KeyError as exc:
            raise LabelingError(f"vertex {exc} has no label") from None
        return answers

    def label_bits_of(self, vid: int) -> int:
        return self.label_of(vid).bits


@register
class PathPositionAdapter(DynamicScheme):
    """Example 15's position labels, sound only for path-shaped runs."""

    name = "path-position"
    capabilities = SchemeCapabilities(
        dynamic=True, exact=True, needs_spec=True, batch=True
    )

    def __init__(self, inner: PathPositionScheme) -> None:
        self.inner = inner

    @classmethod
    def supports(cls, workload: Workload) -> Optional[str]:
        reason = super().supports(workload)
        if reason is not None:
            return reason
        if not runs_are_paths(workload.spec):
            return (
                "path-position needs a specification whose every run is "
                "a simple path"
            )
        return None

    @classmethod
    def _open(
        cls, spec: Optional[Specification], **_options: Any
    ) -> "PathPositionAdapter":
        return cls(PathPositionScheme(spec))

    def insert(self, insertion: Insertion) -> Any:
        return self.inner.insert(insertion.vid, insertion.preds)

    @property
    def labels(self) -> Dict[int, Any]:
        return self.inner.labels

    def reaches_labels(self, label_u: Any, label_v: Any) -> bool:
        return PathPositionScheme.query(label_u, label_v)

    def reaches(self, u: int, v: int) -> bool:
        labels = self.inner.labels
        try:
            return labels[u] <= labels[v]
        except KeyError as exc:
            raise LabelingError(f"vertex {exc} has no label") from None

    def query_many(self, pairs: Iterable[Sequence[int]]) -> List[bool]:
        # a position label *is* an int: the whole batch is <= compares
        labels = self.inner.labels
        try:
            return [labels[pair[0]] <= labels[pair[1]] for pair in pairs]
        except KeyError as exc:
            raise LabelingError(f"vertex {exc} has no label") from None

    def label_bits_of(self, vid: int) -> int:
        return PathPositionScheme.label_bits(self.label_of(vid))


# ---------------------------------------------------------------------------
# static schemes
# ---------------------------------------------------------------------------


@register
class SKLScheme(StaticScheme):
    """The SKL static baseline [Bao et al. 2010]: whole run required."""

    name = "skl"
    capabilities = SchemeCapabilities(
        dynamic=False, exact=True, needs_spec=True
    )

    def __init__(self, skl: SKL, labels: Dict[int, Any]) -> None:
        self.skl = skl
        self._labels = labels

    @classmethod
    def supports(cls, workload: Workload) -> Optional[str]:
        reason = super().supports(workload)
        if reason is not None:
            return reason
        if workload.derivation is None:
            return "skl labels whole recorded runs (needs a derivation)"
        if analyze_grammar(workload.spec).is_recursive:
            return "skl supports only non-recursive workflows"
        return None

    @classmethod
    def _build(
        cls, workload: Workload, skeleton: str = "tcl", **_options: Any
    ) -> "SKLScheme":
        skl = SKL(workload.spec, skeleton=skeleton)
        return cls(skl, skl.label_run(workload.derivation))

    def reaches(self, u: int, v: int) -> bool:
        return self.skl.query(self.label_of(u), self.label_of(v))

    def label_of(self, vid: int) -> Any:
        try:
            return self._labels[vid]
        except KeyError:
            raise LabelingError(f"vertex {vid} has no label") from None

    def labeled_vertices(self) -> Iterable[int]:
        return self._labels.keys()

    def label_bits_of(self, vid: int) -> int:
        return self.skl.label_bits(self.label_of(vid))


class _IndexScheme(StaticScheme):
    """Shared plumbing for the general-purpose static DAG indexes."""

    def __init__(self, index: Any, graph: Any) -> None:
        self.index = index
        self.graph = graph

    def reaches(self, u: int, v: int) -> bool:
        return self.index.reaches(u, v)

    def label_of(self, vid: int) -> Any:
        return self.index.label(vid)

    def labeled_vertices(self) -> Iterable[int]:
        return self.graph.vertices()

    def total_bits(self) -> int:
        return self.index.total_bits()


@register
class GrailScheme(_IndexScheme):
    """GRAIL [24]: k random interval labels; filter + guided fallback."""

    name = "grail"
    capabilities = SchemeCapabilities(
        dynamic=False, exact=False, needs_spec=False
    )

    @classmethod
    def _build(
        cls,
        workload: Workload,
        traversals: int = 3,
        rng: Optional[random.Random] = None,
        **_options: Any,
    ) -> "GrailScheme":
        graph = workload.graph
        index = GrailIndex(
            graph, traversals=traversals, rng=rng or random.Random(0)
        )
        return cls(index, graph)

    def label_bits_of(self, vid: int) -> int:
        return self.index.label(vid).bits


@register
class TwoHopScheme(_IndexScheme):
    """2-hop cover [9] via pruned landmark labeling; exact and static."""

    name = "twohop"
    capabilities = SchemeCapabilities(
        dynamic=False, exact=True, needs_spec=False
    )

    @classmethod
    def _build(cls, workload: Workload, **_options: Any) -> "TwoHopScheme":
        graph = workload.graph
        return cls(TwoHopIndex(graph), graph)

    def label_bits_of(self, vid: int) -> int:
        return self.index.label_bits(self.index.label(vid))


@register
class ChainScheme(_IndexScheme):
    """Chain-decomposition closure compression [15]; exact and static."""

    name = "chains"
    capabilities = SchemeCapabilities(
        dynamic=False, exact=True, needs_spec=False
    )

    @classmethod
    def _build(cls, workload: Workload, **_options: Any) -> "ChainScheme":
        graph = workload.graph
        return cls(ChainIndex(graph), graph)

    def label_bits_of(self, vid: int) -> int:
        return self.index.label_bits(self.index.label(vid))


@register
class TreeTransformScheme(_IndexScheme):
    """DAG-to-tree unfolding [13]; exact, static, can blow up."""

    name = "tree-transform"
    capabilities = SchemeCapabilities(
        dynamic=False, exact=True, needs_spec=False
    )

    @classmethod
    def _build(
        cls, workload: Workload, max_tree_size: int = 200_000, **_options: Any
    ) -> "TreeTransformScheme":
        graph = workload.graph
        index = TreeTransformIndex(graph, max_tree_size=max_tree_size)
        return cls(index, graph)

    def label_bits_of(self, vid: int) -> int:
        return self.index.label_bits(self.index.label(vid))
