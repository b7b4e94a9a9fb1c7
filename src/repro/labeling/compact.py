"""Packed DRL labels: the query hot path lowered to machine integers.

The reference representation in :mod:`repro.labeling.drl` stores a
label as a tuple of frozen :class:`~repro.labeling.drl.Entry`
dataclasses.  That is faithful to Algorithm 1 but every probe of
Algorithm 4 then pays Python object overhead: the reflexive check
deep-compares dataclasses field by field, the LCA scan does an
attribute lookup per position, and the skeleton comparison chases a
:class:`~repro.labeling.drl.SkeletonRef` through a scheme object and a
closure table.  This module keeps the *information* of a label
bit-for-bit identical while storing it as plain integers:

``PackedLabel = (indexes, meta_prefix, last_meta)``

* ``indexes`` -- the prefix-scheme child indexes along the
  root-to-context path, one machine int per entry, *including* the
  final (vertex) entry.  All vertices labeled at the same parse-tree
  node share this tuple **by object identity**, so the Algorithm 4
  index scan compares interned int tuples (a C-level loop with
  per-element identity shortcuts) instead of dataclass fields.
* ``meta_prefix`` -- one packed *meta word* per non-final entry (see
  the bit layout below).  Shared by identity across all vertices at
  the same node, exactly like ``indexes``.
* ``last_meta`` -- the meta word of the final entry, the only part of
  a label that differs between two vertices at the same node.

Meta word layout (low bits first)::

    bits 0-1   node kind        (N=0, L=1, F=2, R=3)
    bit  2     has_rec          (recursion-chain flags present)
    bit  3     rec1             (origin reaches the recursive vertex)
    bit  4     rec2             (the recursive vertex reaches the origin)
    bit  5     has_skl          (skeleton pointer present; N entries)
    bits 6+    skeleton id      (interned (graph, vertex) ref)

Skeleton ids are assigned *deterministically* -- graphs in
specification order, vertices in ascending order -- by
:class:`SkeletonBitsets`, which also lowers per-graph skeleton
reachability to precomputed descendant bitsets: ``reaches`` is a shift
and a mask, no closure object, no method dispatch.  The deterministic
numbering is what lets the serialized form
(:class:`repro.labeling.serialize.PackedLabelCodec`) store the id
directly and decode it in a fresh process.

A session holds its packed labels as columns, not as one tuple per
vertex.  :class:`PackedLabelFactory` appends each parse-tree node to a
per-session *node table* once -- its index vector and its meta prefix,
the prefix interned by value -- and :class:`PackedLabels` keeps, per
vertex, two 32-bit words indexed by vid: the vertex's node row and its
final meta word.  ``labels[vid]`` still returns the
:data:`PackedLabel` triple, built on demand from the columns.

:class:`CompactDRL` is a drop-in :class:`~repro.labeling.drl.DRL`
whose labelers produce packed labels and whose :meth:`CompactDRL.query`
/ :meth:`CompactDRL.query_many_from` run the tight integer kernels;
the batch kernel reads the columns directly.
``pack_label`` / ``unpack_label`` convert between the two
representations losslessly; the property suite in
``tests/test_packed_equivalence.py`` holds the representations to
answer-for-answer equality.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import LabelingError
from repro.labeling.bits import uint_bits
from repro.labeling.drl import DRL, Entry, Label, SkeletonRef
from repro.parsetree.explicit import NodeKind, ParseNode
from repro.workflow.specification import GraphKey, Specification

# A packed label: (index vector, meta words above the final entry, the
# final entry's meta word).  len(indexes) == len(meta_prefix) + 1.
PackedLabel = Tuple[Tuple[int, ...], Tuple[int, ...], int]

# ---------------------------------------------------------------------------
# meta word layout
# ---------------------------------------------------------------------------

KIND_N = 0
KIND_L = 1
KIND_F = 2
KIND_R = 3

META_KIND_MASK = 0x3
META_HAS_REC = 1 << 2
META_REC1 = 1 << 3
META_REC2 = 1 << 4
META_HAS_SKL = 1 << 5
META_SID_SHIFT = 6

_KIND_CODE = {
    NodeKind.N: KIND_N,
    NodeKind.L: KIND_L,
    NodeKind.F: KIND_F,
    NodeKind.R: KIND_R,
}
_KIND_FROM_CODE = {code: kind for kind, code in _KIND_CODE.items()}


def is_packed(label: object) -> bool:
    """True when ``label`` is a :data:`PackedLabel` (vs an entry tuple)."""
    return (
        isinstance(label, tuple)
        and len(label) == 3
        and isinstance(label[0], tuple)
        and isinstance(label[1], tuple)
        and isinstance(label[2], int)
    )


def packed_meta_at(label: PackedLabel, position: int) -> int:
    """The meta word of entry ``position`` of a packed label."""
    prefix = label[1]
    return prefix[position] if position < len(prefix) else label[2]


class SkeletonBitsets:
    """Interned skeleton refs + descendant bitsets for one specification.

    Every ``(graph key, vertex)`` pair of ``G(S)`` gets a small integer
    id, assigned deterministically (graphs in ``spec.graph_keys()``
    order, vertices ascending) so ids agree across processes and can be
    serialized directly.  Per id the table stores the graph ordinal,
    the vertex, and the *reflexive descendant bitset* of the vertex
    inside its graph, so skeleton reachability between two interned
    refs is ``desc[a] >> vertex[b] & 1`` -- the Section 3.2 closure
    lowered to one shift and one mask.
    """

    __slots__ = ("spec", "keys", "num_ids", "key_ord", "vertex", "desc", "_sid")

    def __init__(self, spec: Specification) -> None:
        self.spec = spec
        self.keys: List[GraphKey] = list(spec.graph_keys())
        self._sid: Dict[Tuple[GraphKey, int], int] = {}
        key_ord: List[int] = []
        vertex: List[int] = []
        desc: List[int] = []
        for ordinal, key in enumerate(self.keys):
            dag = spec.graph(key).dag
            reach: Dict[int, int] = {}
            for v in reversed(dag.topological_order()):
                bits = 1 << v
                for successor in dag.successors(v):
                    bits |= reach[successor]
                reach[v] = bits
            for v in sorted(dag.vertices()):
                self._sid[(key, v)] = len(desc)
                key_ord.append(ordinal)
                vertex.append(v)
                desc.append(reach[v])
        self.key_ord = key_ord
        self.vertex = vertex
        self.desc = desc
        self.num_ids = len(desc)

    # ------------------------------------------------------------------
    def sid(self, key: GraphKey, vertex: int) -> int:
        """The interned id of skeleton vertex ``vertex`` of graph ``key``."""
        try:
            return self._sid[(key, vertex)]
        except KeyError:
            raise LabelingError(
                f"unknown skeleton vertex {vertex} of graph {key!r}"
            ) from None

    def ref_of(self, sid: int) -> SkeletonRef:
        """The :class:`SkeletonRef` an interned id stands for."""
        try:
            return SkeletonRef(self.keys[self.key_ord[sid]], self.vertex[sid])
        except IndexError:
            raise LabelingError(f"unknown skeleton id {sid}") from None

    def reaches(self, key: GraphKey, u: int, v: int) -> bool:
        """Reflexive skeleton reachability ``u ~> v`` inside ``key``."""
        return bool(self.desc[self.sid(key, u)] >> v & 1)


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------


def pack_entry_meta(bitsets: SkeletonBitsets, entry: Entry) -> int:
    """The meta word of one reference :class:`Entry`."""
    meta = _KIND_CODE[entry.kind]
    if entry.skl is not None:
        meta |= META_HAS_SKL
        meta |= bitsets.sid(entry.skl.key, entry.skl.vertex) << META_SID_SHIFT
    if entry.rec1 is not None:
        meta |= META_HAS_REC
        if entry.rec1:
            meta |= META_REC1
        if entry.rec2:
            meta |= META_REC2
    return meta


def pack_label(bitsets: SkeletonBitsets, label: Label) -> PackedLabel:
    """Convert a reference entry-tuple label into its packed form."""
    if not label:
        raise LabelingError("cannot pack an empty label")
    indexes = tuple(entry.index for entry in label)
    metas = [pack_entry_meta(bitsets, entry) for entry in label]
    return (indexes, tuple(metas[:-1]), metas[-1])


def unpack_meta(bitsets: SkeletonBitsets, index: int, meta: int) -> Entry:
    """Reconstruct the reference :class:`Entry` of one packed entry."""
    kind = _KIND_FROM_CODE[meta & META_KIND_MASK]
    skl = None
    if meta & META_HAS_SKL:
        skl = bitsets.ref_of(meta >> META_SID_SHIFT)
    rec1 = rec2 = None
    if meta & META_HAS_REC:
        rec1 = bool(meta & META_REC1)
        rec2 = bool(meta & META_REC2)
    return Entry(index=index, kind=kind, skl=skl, rec1=rec1, rec2=rec2)


def unpack_label(bitsets: SkeletonBitsets, packed: PackedLabel) -> Label:
    """Convert a packed label back into the reference entry tuple."""
    indexes, prefix, last = packed
    metas = prefix + (last,)
    if len(indexes) != len(metas):
        raise LabelingError("malformed packed label: index/meta lengths differ")
    return tuple(
        unpack_meta(bitsets, index, meta)
        for index, meta in zip(indexes, metas)
    )


# ---------------------------------------------------------------------------
# the label columns
# ---------------------------------------------------------------------------

#: The node row of a vid with no label.  It points past the end of any
#: node table, so reading it raises ``IndexError``; in the bind-order
#: column it marks a vid kept in the side dict.
HOLE = 0xFFFFFFFF

#: The columns hold a vid while ``0 <= vid < 4 * labeled + COLUMN_SLACK``.
COLUMN_SLACK = 8192

_HOLES = array("I", (HOLE,))
_ZEROS = array("I", (0,))


class PackedLabels(Mapping):
    """A session's packed labels, held as columns indexed by vid.

    Two 32-bit ``array('I')`` columns, indexed by vid, hold each
    vertex's row in its factory's node table and its final meta word;
    a vid with no label holds the row :data:`HOLE`.  A third column
    lists the vids in bind order.  A hosted vertex so costs three
    32-bit words, each written once, and no Python object.

    A vid lands in the columns while ``0 <= vid < 4 * labeled + 8192``,
    and the columns grow geometrically up to the largest such vid.  Any
    other int -- negative, far-sparse or huge -- goes to a side dict,
    so every Python int is still a valid vid, and stays there: columns
    that later grow over it keep a hole at its slot.  Dense vids from 0
    are the fast path: a batch pair that touches a side vid costs
    1.6-2.4 times one over column vids (docs/PERFORMANCE.md, "Vids that
    are not dense").

    The store is a read-only ``Mapping``: ``labels[vid]`` builds the
    :data:`PackedLabel` triple on demand, and ``in``, ``len``, equality
    and iteration in bind order work as on a dict of labels.  Its one
    writer is :meth:`PackedLabelFactory.bind`.
    """

    __slots__ = ("_rows", "_metas", "_order", "_side", "_indexes",
                 "_prefixes")

    def __init__(
        self,
        indexes: List[Tuple[int, ...]],
        prefixes: List[Tuple[int, ...]],
    ) -> None:
        self._rows = array("I")  # vid -> node row, HOLE when unlabeled
        self._metas = array("I")  # vid -> the final entry's meta word
        self._order = array("I")  # vids in bind order; HOLE: a side vid
        self._side: Dict[int, Tuple[int, int]] = {}  # vid -> (row, meta)
        # the node table, shared with the factory: row -> index vector,
        # row -> interned meta prefix
        self._indexes = indexes
        self._prefixes = prefixes

    # ------------------------------------------------------------------
    def __getitem__(self, vid: int) -> PackedLabel:
        rows = self._rows
        try:
            if 0 <= vid < len(rows):
                row = rows[vid]
                return (self._indexes[row], self._prefixes[row],
                        self._metas[vid])
        except (IndexError, TypeError):  # a hole, or a vid that is no int
            pass
        row, meta = self._side[vid]
        return (self._indexes[row], self._prefixes[row], meta)

    def __contains__(self, vid: object) -> bool:
        rows = self._rows
        try:
            if 0 <= vid < len(rows) and rows[vid] != HOLE:
                return True
        except TypeError:
            return False
        return vid in self._side

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[int]:
        # the vids bound when iteration starts; the length is read
        # before the side dict, which a side vid enters first
        order = self._order
        count = len(order)
        if not self._side:
            return islice(order, count)
        return self._iter_with_side(count)

    def _iter_with_side(self, count: int) -> Iterator[int]:
        side = iter(list(self._side))
        for vid in islice(self._order, count):
            yield next(side) if vid == HOLE else vid

    def labels_of(self, vids: Iterable[int]) -> List[PackedLabel]:
        """The labels of ``vids`` in order, from one loop over the columns."""
        rows = self._rows
        metas = self._metas
        indexes = self._indexes
        prefixes = self._prefixes
        size = len(rows)
        labels: List[PackedLabel] = []
        append = labels.append
        for vid in vids:
            if 0 <= vid < size:
                try:
                    row = rows[vid]
                    append((indexes[row], prefixes[row], metas[vid]))
                    continue
                except IndexError:  # a hole
                    pass
            append(self[vid])
        return labels

    # ------------------------------------------------------------------
    def _place(self, vid: int, row: int, meta: int) -> None:
        """:meth:`PackedLabelFactory.bind` for a vid past the columns:
        grow them to it, or keep it in the side dict."""
        if vid in self._side:
            raise LabelingError(f"vertex {vid} is already labeled")
        limit = min(4 * len(self._order) + COLUMN_SLACK, HOLE)
        if 0 <= vid < limit:
            # grown in place: a reader holds the columns as locals
            grow = min(limit, max(vid + 1, len(self._rows) * 5 // 4))
            grow -= len(self._rows)
            self._metas.extend(_ZEROS * grow)
            self._rows.extend(_HOLES * grow)
            self._metas[vid] = meta
            self._rows[vid] = row
            self._order.append(vid)
        else:
            self._side[vid] = (row, meta)
            self._order.append(HOLE)


# ---------------------------------------------------------------------------
# the packed label factory
# ---------------------------------------------------------------------------


class PackedLabelFactory:
    """Builds a session's node table and binds vertices into columns.

    Mirrors the reference :class:`~repro.labeling.drl.LabelFactory`
    surface (``register_node`` / ``new_labels`` / ``bind`` /
    ``node_key`` / ``forget``) so both DRL labelers run unchanged on
    either factory.  The shared structure:

    * per N node, one row of the *node table*: the full index vector
      (prefix indexes + the node's own child index) and the meta words
      of the path above, both built once at registration and shared by
      every vertex labeled at the node;
    * meta prefixes interned by value across nodes: a session has few
      distinct ones (6 in a 2,000-event ``running-example`` run);
    * per ``(graph key, template vertex)``, the final entry's meta word
      (skeleton id + recursion flags), computed once.

    After registration -- one tuple extension per parse-tree node --
    binding a vertex is O(1) and allocates nothing: a cached-meta dict
    hit and three column writes, however deep the parse tree is.
    """

    def __init__(
        self,
        spec: Specification,
        info,
        skeleton,
        r_mode: str,
        bitsets: Optional[SkeletonBitsets] = None,
    ) -> None:
        self.spec = spec
        self.info = info
        self.skeleton = skeleton
        self.r_mode = r_mode
        self.bitsets = bitsets if bitsets is not None else SkeletonBitsets(spec)
        # the node table, one row per N node: its full index vector and
        # the interned meta words of the path strictly above it
        self._table_indexes: List[Tuple[int, ...]] = []
        self._table_prefixes: List[Tuple[int, ...]] = []
        # (the parent's interned prefix, the parent's meta word) ->
        # interned prefix.  The parent is keyed by identity, so no
        # prefix is hashed whole; interned prefixes live as long as the
        # factory, so an identity is never reused.
        self._prefix_intern: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        # open N node -> (its row, its graph's meta words by template
        # vid); open special node -> (indexes, prefix)
        self._row: Dict[ParseNode, Tuple[int, Dict[int, int]]] = {}
        self._special: Dict[
            ParseNode, Tuple[Tuple[int, ...], Tuple[int, ...]]
        ] = {}
        # node -> annotated graph key (N nodes only)
        self._key: Dict[ParseNode, GraphKey] = {}
        # graph key -> template vid -> interned N-entry meta word
        self._n_meta: Dict[GraphKey, Dict[int, int]] = {}

    # ------------------------------------------------------------------
    def _meta_for(self, key: GraphKey, template_vid: int) -> int:
        """The interned meta word of an N entry at origin ``template_vid``."""
        metas = self._n_meta.get(key)
        if metas is None:
            metas = self._n_meta[key] = {}
        cached = metas.get(template_vid)
        if cached is not None:
            return cached
        bitsets = self.bitsets
        meta = KIND_N | META_HAS_SKL
        meta |= bitsets.sid(key, template_vid) << META_SID_SHIFT
        recursive = None
        if self.r_mode != "simplified":
            recursive = self.info.designated_recursive.get(key)
        if recursive is not None:
            meta |= META_HAS_REC
            if bitsets.reaches(key, template_vid, recursive):
                meta |= META_REC1
            if bitsets.reaches(key, recursive, template_vid):
                meta |= META_REC2
        if meta > HOLE:
            raise LabelingError(
                f"meta word {meta:#x} of {key!r} vertex {template_vid} "
                "does not fit the 32-bit label column"
            )
        metas[template_vid] = meta
        return meta

    # ------------------------------------------------------------------
    def register_node(
        self,
        node: ParseNode,
        graph_key: Optional[GraphKey],
        edge_template_vid: Optional[int],
    ) -> None:
        """Record a new tree node; compute its shared prefix structure."""
        if node.kind is NodeKind.N and graph_key is None:
            raise LabelingError("N nodes must carry a graph key")
        parent = node.parent
        if parent is None:
            indexes: Tuple[int, ...] = (node.index,)
            prefix: Tuple[int, ...] = ()
        else:
            entry = self._row.get(parent)
            if entry is not None:
                row, metas = entry
                if edge_template_vid is None:
                    raise LabelingError(
                        "children of non-special nodes need the edge composite"
                    )
                parent_indexes = self._table_indexes[row]
                parent_prefix = self._table_prefixes[row]
                parent_meta = metas.get(edge_template_vid)
                if parent_meta is None:
                    parent_meta = self._meta_for(
                        self._key[parent], edge_template_vid
                    )
            else:
                try:
                    parent_indexes, parent_prefix = self._special[parent]
                except KeyError:
                    raise LabelingError("node was never registered") from None
                parent_meta = _KIND_CODE[parent.kind]
            indexes = parent_indexes + (node.index,)
            intern_key = (id(parent_prefix), parent_meta)
            prefix = self._prefix_intern.get(intern_key)
            if prefix is None:
                prefix = parent_prefix + (parent_meta,)
                self._prefix_intern[intern_key] = prefix
        if node.kind is not NodeKind.N:
            self._special[node] = (indexes, prefix)
            return
        row = len(self._table_indexes)
        if row >= HOLE:
            raise LabelingError(
                f"the node table is full: {HOLE} rows fit a 32-bit column"
            )
        self._table_indexes.append(indexes)
        self._table_prefixes.append(prefix)
        metas = self._n_meta.get(graph_key)
        if metas is None:
            metas = self._n_meta[graph_key] = {}
        self._row[node] = (row, metas)
        self._key[node] = graph_key

    def new_labels(self) -> PackedLabels:
        """An empty label store over this factory's node table."""
        return PackedLabels(self._table_indexes, self._table_prefixes)

    def bind(
        self,
        labels: PackedLabels,
        node: ParseNode,
        template_vid: int,
        vid: int,
    ) -> None:
        """Label vertex ``vid`` at ``node``, origin ``template_vid``: O(1).

        Writes the node's row and the final meta word into ``labels``'
        columns; builds no tuple.  Each vid is bound once -- the
        execution labeler refuses a vid already in ``labels`` before any
        state changes, and a derivation names each vertex once -- so the
        column path writes without looking.
        """
        try:
            row, metas = self._row[node]
        except KeyError:
            if node in self._special:
                raise LabelingError(
                    "vertices are labeled at N nodes only"
                ) from None
            raise LabelingError("node was never registered") from None
        meta = metas.get(template_vid)
        if meta is None:
            meta = self._meta_for(self._key[node], template_vid)
        rows = labels._rows
        if 0 <= vid < len(rows):
            # the meta word first: a lock-free reader that sees the row
            # reads a written meta word
            labels._metas[vid] = meta
            rows[vid] = row
            labels._order.append(vid)
        else:
            labels._place(vid, row, meta)

    def node_key(self, node: ParseNode) -> GraphKey:
        """Annotated graph key of a registered N node."""
        return self._key[node]

    def forget(self, node: ParseNode) -> None:
        """Drop an open node when nothing more is labeled under it.

        Its node-table row stays: labels read it.
        """
        self._row.pop(node, None)
        self._special.pop(node, None)
        self._key.pop(node, None)


# ---------------------------------------------------------------------------
# the compact scheme
# ---------------------------------------------------------------------------


class CompactDRL(DRL):
    """DRL over packed labels: Algorithm 4 as a shift-and-mask kernel.

    A drop-in :class:`~repro.labeling.drl.DRL`: same construction
    parameters, same labeler classes (they ask the scheme for its
    factory), same bit accounting -- but labels are
    :data:`PackedLabel` triples, :meth:`query` runs on interned int
    tuples, and skeleton reachability at the LCA is one bitset probe
    through :class:`SkeletonBitsets` instead of a closure lookup.
    """

    packed = True

    def __init__(
        self,
        spec: Specification,
        skeleton: "str | object" = "tcl",
        info=None,
        r_mode: Optional[str] = None,
    ) -> None:
        super().__init__(spec, skeleton=skeleton, info=info, r_mode=r_mode)
        self.bitsets = SkeletonBitsets(spec)

    # ------------------------------------------------------------------
    def make_factory(self) -> PackedLabelFactory:
        return PackedLabelFactory(
            self.spec, self.info, self.skeleton, self.r_mode, self.bitsets
        )

    # ------------------------------------------------------------------
    def pack(self, label: Label) -> PackedLabel:
        """Pack a reference entry-tuple label produced by plain DRL."""
        return pack_label(self.bitsets, label)

    def unpack(self, packed: PackedLabel) -> Label:
        """The reference entry tuple a packed label stands for."""
        return unpack_label(self.bitsets, packed)

    # ------------------------------------------------------------------
    def query(self, label_v: PackedLabel, label_w: PackedLabel) -> bool:
        """Algorithm 4 over packed labels; answers equal the reference."""
        if label_v is label_w:
            return True
        iv, pv, lv = label_v
        iw, pw, lw = label_w
        nv = len(iv)
        nw = len(iw)
        if iv is iw:
            # same parse-tree node: the index scan is vacuous, the LCA
            # is the shared final position, and the answer is the
            # skeleton comparison of the two origins.
            if lv == lw:
                return True
            i = nv
        else:
            limit = nv if nv < nw else nw
            i = 0
            while i < limit and iv[i] == iw[i]:
                i += 1
            if i == 0:
                raise LabelingError(
                    "labels do not share a root; different runs?"
                )
            if i == limit and nv == nw and lv == lw and pv == pw:
                return True
        j = i - 1
        meta_lca = pv[j] if j < nv - 1 else lv
        kind = meta_lca & META_KIND_MASK
        if kind == KIND_N:
            mv = meta_lca
            mw = pw[j] if j < nw - 1 else lw
            if not (mv & META_HAS_SKL) or not (mw & META_HAS_SKL):
                raise LabelingError("missing skeleton pointer on N entry")
            sid_v = mv >> META_SID_SHIFT
            sid_w = mw >> META_SID_SHIFT
            bitsets = self.bitsets
            if bitsets.key_ord[sid_v] != bitsets.key_ord[sid_w]:
                raise LabelingError(
                    "origin skeleton pointers disagree on graph"
                )
            return bool(
                bitsets.desc[sid_v] >> bitsets.vertex[sid_w] & 1
            )
        if kind == KIND_L:
            return iv[i] < iw[i]
        if kind == KIND_F:
            return False
        # R: recursion chain
        if iv[i] < iw[i]:
            m = pv[i] if i < nv - 1 else lv
            if not m & META_HAS_REC:
                raise LabelingError("missing rec1 flag on R-chain entry")
            return bool(m & META_REC1)
        m = pw[i] if i < nw - 1 else lw
        if not m & META_HAS_REC:
            raise LabelingError("missing rec2 flag on R-chain entry")
        return bool(m & META_REC2)

    # ------------------------------------------------------------------
    def query_many_from(
        self,
        labels: PackedLabels,
        pairs: Sequence[Tuple[int, int]],
    ) -> List[bool]:
        """Batch Algorithm 4: one tight loop over the label columns.

        Semantically ``[self.query(labels[u], labels[v]) for u, v in
        pairs]`` with the per-call dispatch hoisted out of the loop:
        the columns and bitset tables are bound to locals once, no
        label tuple is built, and the common cases (shared node, N-kind
        LCA) run without re-entering :meth:`query`.  A pair whose vid is
        negative, a hole or past the columns takes the slow path through
        ``labels[vid]``, where a side vid resolves and an unlabeled one
        raises ``KeyError``.
        """
        bitsets = self.bitsets
        key_ord = bitsets.key_ord
        vertex = bitsets.vertex
        desc = bitsets.desc
        rows = labels._rows
        metas = labels._metas
        indexes = labels._indexes
        prefixes = labels._prefixes
        slow = self.query
        answers: List[bool] = []
        append = answers.append
        for v, w in pairs:
            try:
                if v < 0 or w < 0:
                    append(slow(labels[v], labels[w]))
                    continue
                rv = rows[v]
                rw = rows[w]
                iv = indexes[rv]
                iw = indexes[rw]
            except (IndexError, TypeError):
                append(slow(labels[v], labels[w]))
                continue
            if iv is iw:
                # same node: equal final metas mean equal labels,
                # otherwise compare the two origins' skeletons.
                lv = metas[v]
                lw = metas[w]
                if lv == lw:
                    append(True)
                    continue
                if lv & lw & META_HAS_SKL:
                    sid_v = lv >> META_SID_SHIFT
                    sid_w = lw >> META_SID_SHIFT
                    if key_ord[sid_v] == key_ord[sid_w]:
                        append(bool(desc[sid_v] >> vertex[sid_w] & 1))
                        continue
                append(slow((iv, prefixes[rv], lv), (iw, prefixes[rw], lw)))
                continue
            nv = len(iv)
            nw = len(iw)
            limit = nv if nv < nw else nw
            i = 0
            while i < limit and iv[i] == iw[i]:
                i += 1
            if i == 0:
                raise LabelingError(
                    "labels do not share a root; different runs?"
                )
            if (
                i == limit
                and nv == nw
                and metas[v] == metas[w]
                and prefixes[rv] == prefixes[rw]
            ):
                append(True)
                continue
            j = i - 1
            meta_lca = prefixes[rv][j] if j < nv - 1 else metas[v]
            kind = meta_lca & META_KIND_MASK
            if kind == KIND_N:
                mw = prefixes[rw][j] if j < nw - 1 else metas[w]
                if meta_lca & mw & META_HAS_SKL:
                    sid_v = meta_lca >> META_SID_SHIFT
                    sid_w = mw >> META_SID_SHIFT
                    if key_ord[sid_v] == key_ord[sid_w]:
                        append(bool(desc[sid_v] >> vertex[sid_w] & 1))
                        continue
                append(slow(labels[v], labels[w]))
            elif kind == KIND_L:
                append(iv[i] < iw[i])
            elif kind == KIND_F:
                append(False)
            elif iv[i] < iw[i]:
                m = prefixes[rv][i] if i < nv - 1 else metas[v]
                if not m & META_HAS_REC:
                    raise LabelingError("missing rec1 flag on R-chain entry")
                append(bool(m & META_REC1))
            else:
                m = prefixes[rw][i] if i < nw - 1 else metas[w]
                if not m & META_HAS_REC:
                    raise LabelingError("missing rec2 flag on R-chain entry")
                append(bool(m & META_REC2))
        return answers

    # ------------------------------------------------------------------
    # bit accounting: identical numbers to the reference representation
    # ------------------------------------------------------------------
    def label_bits(self, label: PackedLabel) -> int:
        """Accounted size in bits; equals the reference accounting."""
        indexes, prefix, last = label
        pointer = self._skl_pointer_bits
        bits = 0
        final = len(indexes) - 1
        for position, index in enumerate(indexes):
            meta = prefix[position] if position < final else last
            bits += uint_bits(index) + 2
            if meta & META_HAS_SKL:
                bits += pointer
            if meta & META_HAS_REC:
                bits += 2
        return bits


def label_entries(label: PackedLabel) -> Iterable[Tuple[int, int]]:
    """Iterate ``(index, meta word)`` pairs of a packed label."""
    indexes, prefix, last = label
    final = len(indexes) - 1
    for position, index in enumerate(indexes):
        yield index, (prefix[position] if position < final else last)
