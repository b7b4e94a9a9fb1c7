"""The Section 3.2 dynamic scheme: linear-size labels for any DAG execution.

The i-th inserted vertex receives a label of ``i - 1`` bits encoding its
reachability from every previously inserted vertex; together with the
Omega(n) lower bound of Theorem 1 this gives the tight Theta(n) bounds of
Figure 1 (and, as the paper notes, tight ``n - 1``-bit bounds for labeling
general dynamic DAGs and even dynamic trees).

It doubles as the ``TCL`` scheme applied dynamically: used on a whole
static graph in topological order, it is exactly the skeleton labeling of
:class:`~repro.labeling.skeleton.TCLSkeleton`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.errors import ExecutionError, LabelingError
from repro.workflow.execution import Insertion


@dataclass(frozen=True)
class NaiveLabel:
    """Label of the i-th inserted vertex.

    ``index`` is ``i`` (1-based insertion rank); ``ancestors`` is an
    ``i - 1``-bit integer whose bit ``j - 1`` is set when the j-th inserted
    vertex reaches this one.  The bit length of the label is ``i - 1``
    (the index is recoverable from the length, as in the paper).
    """

    index: int
    ancestors: int

    @property
    def bits(self) -> int:
        """Label size in bits (``i - 1`` for the i-th vertex)."""
        return self.index - 1


class NaiveDynamicScheme:
    """Execution-based dynamic labeling for arbitrary DAGs (Section 3.2).

    Works for *any* insertion stream -- no specification knowledge -- at
    the cost of linear-size labels.  Queries are O(1).
    """

    def __init__(self) -> None:
        self._labels: Dict[int, NaiveLabel] = {}
        self._count = 0

    # ------------------------------------------------------------------
    def insert(self, vid: int, preds: Iterable[int]) -> NaiveLabel:
        """Label the next inserted vertex given its predecessors."""
        if vid in self._labels:
            raise ExecutionError(f"vertex {vid} inserted twice")
        ancestors = 0
        for p in preds:
            try:
                pred_label = self._labels[p]
            except KeyError:
                raise ExecutionError(
                    f"predecessor {p} inserted after {vid}"
                ) from None
            # the predecessor itself, plus everything reaching it
            ancestors |= pred_label.ancestors | (1 << (pred_label.index - 1))
        # counted only once accepted: a refused vertex takes no rank, so
        # replaying the accepted stream reassigns the same labels
        self._count += 1
        label = NaiveLabel(index=self._count, ancestors=ancestors)
        self._labels[vid] = label
        return label

    def insert_all(self, insertions: Iterable[Insertion]) -> Dict[int, NaiveLabel]:
        """Label a whole insertion stream; returns vid -> label."""
        for ins in insertions:
            self.insert(ins.vid, ins.preds)
        return dict(self._labels)

    def label(self, vid: int) -> NaiveLabel:
        """The label assigned to ``vid``."""
        try:
            return self._labels[vid]
        except KeyError:
            raise LabelingError(f"vertex {vid} has no label") from None

    @property
    def labels(self) -> Dict[int, NaiveLabel]:
        """The live vid -> label map (labels are write-once)."""
        return self._labels

    # ------------------------------------------------------------------
    @staticmethod
    def query(label_v: NaiveLabel, label_w: NaiveLabel) -> bool:
        """Does ``label_v``'s vertex reach ``label_w``'s?  Reflexive."""
        if label_v.index == label_w.index:
            return True
        if label_v.index > label_w.index:
            return False
        return bool(label_w.ancestors >> (label_v.index - 1) & 1)

    @staticmethod
    def label_bits(label: NaiveLabel) -> int:
        """Label size in bits."""
        return label.bits
