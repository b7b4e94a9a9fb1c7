"""Reachability labeling schemes.

Dynamic schemes (label vertices as they appear, labels never change):

* :class:`~repro.labeling.drl.DRL` -- the paper's scheme for (linear)
  recursive workflows; derivation-based labeler (Algorithms 1-4) plus the
  execution-based labeler of Section 5.3
  (:class:`~repro.labeling.drl_execution.DRLExecutionLabeler`).
* :class:`~repro.labeling.naive_dynamic.NaiveDynamicScheme` -- the
  Section 3.2 scheme for arbitrary DAG executions; ``n - 1``-bit labels,
  matching the Theta(n) bounds of Section 3.

Static schemes (need the whole graph):

* :class:`~repro.labeling.skl.SKL` -- reconstruction of the
  state-of-the-art skeleton-based static scheme [Bao et al., SIGMOD 2010]
  for non-recursive workflows (the paper's comparison baseline).
* :mod:`repro.labeling.tree_labels` -- interval-based [22] and
  prefix-based [18] tree labelings used as components.

Skeleton schemes for the specification graphs (Section 5.1):

* :class:`~repro.labeling.skeleton.TCLSkeleton` -- precomputed transitive
  closure, O(1) query;
* :class:`~repro.labeling.skeleton.BFSSkeleton` -- no precomputation,
  breadth-first search per query.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".bits": ("pointer_bits", "uint_bits"),
    ".skeleton": ("BFSSkeleton", "SkeletonScheme", "TCLSkeleton",
                  "make_skeleton"),
    ".drl": ("DRL", "DRLDerivationLabeler", "Entry", "Label", "SkeletonRef"),
    ".compact": ("CompactDRL", "PackedLabel", "PackedLabelFactory",
                 "PackedLabels", "SkeletonBitsets", "pack_label",
                 "unpack_label"),
    ".drl_execution": ("DRLExecutionLabeler",),
    ".naive_dynamic": ("NaiveDynamicScheme", "NaiveLabel"),
    ".skl": ("SKL", "SKLLabel"),
    ".chains": ("ChainIndex",),
    ".grail": ("GrailIndex",),
    ".twohop": ("TwoHopIndex",),
    ".tree_transform": ("TreeTransformIndex",),
    ".path_position": ("PathPositionScheme",),
    ".dewey": ("DeweyTree",),
    ".serialize": ("LabelCodec", "PackedLabelCodec"),
})

__all__ = [
    "uint_bits",
    "pointer_bits",
    "SkeletonScheme",
    "TCLSkeleton",
    "BFSSkeleton",
    "make_skeleton",
    "DRL",
    "DRLDerivationLabeler",
    "DRLExecutionLabeler",
    "Entry",
    "Label",
    "SkeletonRef",
    "CompactDRL",
    "PackedLabel",
    "PackedLabelFactory",
    "PackedLabels",
    "SkeletonBitsets",
    "pack_label",
    "unpack_label",
    "NaiveDynamicScheme",
    "NaiveLabel",
    "SKL",
    "SKLLabel",
    "ChainIndex",
    "GrailIndex",
    "TwoHopIndex",
    "TreeTransformIndex",
    "PathPositionScheme",
    "DeweyTree",
    "LabelCodec",
    "PackedLabelCodec",
]
