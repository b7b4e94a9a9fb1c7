"""Execution-based DRL: labeling vertices one by one (Section 5.3).

The derivation-based labeler receives whole derivation steps; the
execution-based labeler receives single vertex insertions ``g + (v, C)``
in some topological order and must infer the derivation structure on the
fly.  Two inference modes are supported, matching the paper:

* ``mode='name'`` -- pure name inference.  Requires the Section 5.3
  naming conditions: (1) vertices of each specification graph have
  distinct names, (2) source/sink names are globally unique atomic
  "dummy modules".  A vertex whose name is the source name of some
  implementation graph announces a new derivation step; every other
  vertex is matched to an already-announced instance by its name and its
  predecessor set.
* ``mode='logged'`` -- each insertion carries the run-to-specification
  mapping ``(graph key, copy token, template vertex)`` that scientific
  workflow systems record in execution logs; no naming conditions needed.

Both modes grow the same explicit parse tree as Algorithm 2 (children of
loop/fork nodes are appended copy by copy instead of all at once) and use
the same :class:`~repro.labeling.drl.LabelFactory`, so they assign exactly
the same labels as the derivation-based scheme.

The labeler keeps only the open frontier of that tree.  Insertions
arrive in topological order, and every vertex of a copy -- and of every
expansion inside it -- reaches the copy's sink, so once the sink is
labeled nothing can land in the copy any more.  The copy is then
*closed*: its state, its tree node and the special nodes under it are
dropped, and the label factory forgets them.  Labels are tuples that
point at no parse-tree state, so closing changes no answer (labels are
final, Theorem 3), and an insertion that names a closed copy is refused
as malformed.  Hosted memory and the cost of name inference therefore
follow the number of open copies, not the number of insertions seen.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.errors import ExecutionError
from repro.graphs.two_terminal import TwoTerminalGraph
from repro.labeling.drl import DRL, Label
from repro.parsetree.explicit import NodeKind, ParseNode
from repro.workflow.execution import Execution, Insertion, LogOrigin
from repro.workflow.specification import GraphKey, START_KEY
from repro.workflow.validation import check_naming_conditions

_MODES = ("name", "logged")


class _InstanceState:
    """One announced copy of a specification graph, filling up vertex by
    vertex as its module executions arrive, until its sink closes it."""

    __slots__ = ("node", "key", "template", "bound", "slots", "token", "outer")

    def __init__(
        self,
        node: ParseNode,
        key: GraphKey,
        template: TwoTerminalGraph,
        token: Optional[int],
        outer: Optional["_Slot"],
    ) -> None:
        self.node = node
        self.key = key
        self.template = template
        self.bound: Dict[int, int] = {}  # atomic template vid -> run vid
        self.slots: Dict[int, "_Slot"] = {}  # composite template vid -> slot
        self.token = token  # logged-mode copy token
        self.outer = outer  # name mode: the slot this copy expands


# a copy as its name-mode slot keeps it: the state while the copy is
# open, its sink's run vertex once it is closed (all ``_anchor`` reads)
_Copy = Union[_InstanceState, int]


class _Slot:
    """A composite occurrence awaiting (or undergoing) expansion."""

    __slots__ = ("owner", "tv", "head", "key", "special_node", "copies")

    def __init__(self, owner: _InstanceState, tv: int, head: str) -> None:
        self.owner = owner
        self.tv = tv
        self.head = head
        self.key: Optional[GraphKey] = None  # expanding graph; None: pending
        self.special_node: Optional[ParseNode] = None  # L or F node
        # name mode only: the copies the slot's anchor reads -- every
        # copy of a fork, the newest copy of a loop or plain expansion
        self.copies: Optional[List[_Copy]] = None


class DRLExecutionLabeler:
    """On-the-fly labeler for graph executions (Definition 8).

    Call :meth:`insert` for every vertex insertion, in topological order;
    it returns the vertex's final reachability label.  Labels agree with
    the derivation-based labeler's and are queried with the same
    :meth:`DRL.query` predicate.
    """

    def __init__(self, scheme: DRL, mode: str = "name") -> None:
        if mode not in _MODES:
            raise ExecutionError(f"unknown mode {mode!r}; expected {_MODES}")
        self.scheme = scheme
        self.spec = scheme.spec
        self.info = scheme.info
        self.mode = mode
        if mode == "name":
            check_naming_conditions(self.spec)
        self.factory = scheme.make_factory()
        self.labels: Dict[int, Label] = {}
        self.root: Optional[ParseNode] = None
        # name mode lookups --------------------------------------------
        # source name -> graph key (condition 2 makes this unique)
        self._source_names: Dict[str, GraphKey] = {}
        for key in self.spec.graph_keys():
            template = self.spec.graph(key)
            self._source_names[template.name(template.source)] = key
        # open instances expecting an internal vertex with a given name;
        # this and the three slot indexes below are filled in name mode
        # only: the log names every copy outright in logged mode
        self._expecting: Dict[str, List[Tuple[_InstanceState, int]]] = {}
        # logged mode lookup: copy token -> open instance state
        self._by_token: Dict[int, _InstanceState] = {}
        # the pending slots of open instances by head name, and their
        # open loop and fork slots, for source matching (ordered sets)
        self._slots_by_head: Dict[str, Dict[_Slot, None]] = {}
        self._open_loops: Dict[_Slot, None] = {}
        self._open_forks: Dict[_Slot, None] = {}

    # ------------------------------------------------------------------
    # anchors and frontiers
    # ------------------------------------------------------------------
    def _anchor(self, inst: _InstanceState, tv: int) -> Optional[FrozenSet[int]]:
        """Run vertices acting as the downstream face of template vertex
        ``tv``: the vertex itself when atomic, the sinks of its expansion
        when composite.  None while unresolved."""
        slot = inst.slots.get(tv)
        if slot is None:
            run_vid = inst.bound.get(tv)
            return None if run_vid is None else frozenset((run_vid,))
        if not slot.copies:
            return None
        if slot.special_node is None or slot.special_node.kind is NodeKind.L:
            return self._sink_anchor(slot.copies[-1])
        sinks: Set[int] = set()
        for copy in slot.copies:
            part = self._sink_anchor(copy)
            if part is None:
                return None
            sinks.update(part)
        return frozenset(sinks)

    def _sink_anchor(self, copy: _Copy) -> Optional[FrozenSet[int]]:
        """The downstream face of a whole copy: its sink's anchor."""
        if isinstance(copy, int):
            return frozenset((copy,))
        return self._anchor(copy, copy.template.sink)

    def _expected_preds(
        self, inst: _InstanceState, tv: int
    ) -> Optional[FrozenSet[int]]:
        """Run-level predecessor set a vertex derived at ``tv`` will carry."""
        preds: Set[int] = set()
        for p in inst.template.dag.predecessors(tv):
            part = self._anchor(inst, p)
            if part is None:
                return None
            preds.update(part)
        return frozenset(preds)

    # ------------------------------------------------------------------
    # instance bookkeeping
    # ------------------------------------------------------------------
    def _open_instance(
        self,
        node: ParseNode,
        key: GraphKey,
        token: Optional[int],
        outer: Optional[_Slot],
    ) -> _InstanceState:
        template = self.spec.graph(key)
        by_name = self.mode == "name"
        inst = _InstanceState(
            node, key, template, token, outer if by_name else None
        )
        for tv in template.vertices():
            name = template.name(tv)
            if self.spec.is_atomic(name):
                if by_name and tv != template.source:
                    self._expecting.setdefault(name, []).append((inst, tv))
            else:
                slot = _Slot(inst, tv, name)
                inst.slots[tv] = slot
                if by_name:
                    self._slots_by_head.setdefault(name, {})[slot] = None
        if token is not None:
            self._by_token[token] = inst
        if by_name and outer is not None:
            copies = outer.copies
            if copies is None:
                outer.copies = [inst]
            elif outer.special_node.kind is NodeKind.L:
                copies[-1] = inst  # a loop's anchor is its newest copy's
            else:
                copies.append(inst)
        return inst

    def _bind(self, inst: _InstanceState, tv: int, vid: int) -> Label:
        label = self.factory.label(inst.node, tv)
        inst.bound[tv] = vid
        self.labels[vid] = label
        if tv == inst.template.sink:
            self._close(inst, vid)
        return label

    def _close(self, inst: _InstanceState, sink: int) -> None:
        """Drop a copy whose sink ``sink`` was just labeled.

        Nothing can land in the copy or in an expansion inside it any
        more (see the module docstring), so its state goes, and the
        factory forgets its node and the special nodes under its slots.
        A still-open owner keeps only what it reads: a name-mode slot
        keeps the copy as its sink's run vertex.
        """
        forget = self.factory.forget
        node = inst.node
        forget(node)
        parent = node.parent
        if parent is not None and parent.kind is NodeKind.R and node.index == 1:
            # a recursion chain's first member encloses all later ones,
            # so it closes last: the R node goes with it
            forget(parent)
        by_name = self.mode == "name"
        for slot in inst.slots.values():
            if slot.special_node is not None:
                forget(slot.special_node)
            if by_name:
                self._slots_by_head[slot.head].pop(slot, None)
                self._open_loops.pop(slot, None)
                self._open_forks.pop(slot, None)
        # the slots point back at their owner; emptying the owner's map
        # frees both now rather than in a later cyclic collection
        inst.slots.clear()
        if inst.token is not None and self._by_token.get(inst.token) is inst:
            del self._by_token[inst.token]
        outer = inst.outer
        if outer is not None:
            copies = outer.copies
            copies[copies.index(inst)] = sink

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def insert(self, insertion: Insertion) -> Label:
        """Label one inserted vertex; the label is final immediately."""
        vid, name, preds = insertion.vid, insertion.name, insertion.preds
        if vid in self.labels:
            raise ExecutionError(f"vertex {vid} inserted twice")
        if self.root is None:
            return self._start_run(insertion)
        key, token = self._classify_source(insertion)
        if key is not None:
            if self.mode == "logged":
                return self._handle_source_logged(insertion, key, token)
            return self._handle_source(vid, name, preds, key, None)
        return self._handle_internal(insertion)

    def label(self, vid: int) -> Label:
        """The label of an already inserted vertex."""
        try:
            return self.labels[vid]
        except KeyError:
            raise ExecutionError(f"vertex {vid} was never inserted") from None

    def run(self, execution: Execution) -> Dict[int, Label]:
        """Label a whole recorded execution; returns vid -> label."""
        for insertion in execution:
            self.insert(insertion)
        return self.labels

    # ------------------------------------------------------------------
    def _classify_source(
        self, insertion: Insertion
    ) -> Tuple[Optional[GraphKey], Optional[int]]:
        """(graph key, copy token) when the insertion starts a new copy."""
        if self.mode == "logged":
            key, token, tv = self._require_origin(insertion)
            template = self.spec.graph(key)
            if tv == template.source:
                return key, token
            return None, None
        return self._source_names.get(insertion.name), None

    def _require_origin(self, insertion: Insertion) -> LogOrigin:
        if insertion.origin is None:
            raise ExecutionError(
                f"logged mode needs origin metadata on vertex {insertion.vid}"
            )
        return insertion.origin

    def _start_run(self, insertion: Insertion) -> Label:
        """First insertion: must be the source of the start graph."""
        start_template = self.spec.graph(START_KEY)
        expected = start_template.name(start_template.source)
        if insertion.name != expected:
            raise ExecutionError(
                f"first insertion {insertion.name!r} is not the start "
                f"graph's source {expected!r}"
            )
        if insertion.preds:
            raise ExecutionError("the start vertex cannot have predecessors")
        if self.mode == "logged":
            token = self._require_origin(insertion)[1]
        else:
            token = insertion.origin[1] if insertion.origin is not None else None
        self.root = ParseNode(NodeKind.N, None)
        self.factory.register_node(self.root, START_KEY, None)
        inst = self._open_instance(self.root, START_KEY, token, None)
        return self._bind(inst, start_template.source, insertion.vid)

    # ------------------------------------------------------------------
    # new instance copies
    # ------------------------------------------------------------------
    def _handle_source_logged(
        self, insertion: Insertion, key: GraphKey, token: Optional[int]
    ) -> Label:
        """Logged mode: the log names the composite occurrence directly."""
        if insertion.slot is None:
            raise ExecutionError(
                f"vertex {insertion.vid}: logged mode needs slot metadata "
                "on instance sources"
            )
        parent_token, tv = insertion.slot
        owner = self._by_token.get(parent_token)
        if owner is None:
            raise ExecutionError(
                f"vertex {insertion.vid}: unknown or closed parent copy "
                f"{parent_token}"
            )
        slot = owner.slots.get(tv)
        if slot is None:
            raise ExecutionError(
                f"vertex {insertion.vid}: template vertex {tv} of "
                f"{owner.key!r} is not composite"
            )
        if self.spec.head_of(key) != slot.head:
            raise ExecutionError(
                f"vertex {insertion.vid}: graph {key!r} does not implement "
                f"{slot.head!r}, the module at template vertex {tv} of "
                f"{owner.key!r}"
            )
        if slot.special_node is not None:
            return self._add_copy(slot, key, token, insertion.vid)
        if slot.key is not None:
            raise ExecutionError(
                f"vertex {insertion.vid}: slot already expanded"
            )
        return self._expand_fresh(slot, key, insertion.vid, token)

    def _handle_source(
        self,
        vid: int,
        name: str,
        preds: FrozenSet[int],
        key: GraphKey,
        token: Optional[int],
    ) -> Label:
        head = self.spec.head_of(key)
        if head is None:
            raise ExecutionError(
                f"vertex {vid}: start graph source {name!r} re-executed"
            )
        matches: List[Tuple[str, _Slot]] = []
        # (a) next copy of an open loop: predecessor is the previous
        # copy's sink.
        for slot in self._open_loops:
            if slot.key == key and self._sink_anchor(slot.copies[-1]) == preds:
                matches.append(("loop", slot))
        # (b) another copy of an open fork: same frontier as the first.
        for slot in self._open_forks:
            if (
                slot.key == key
                and self._expected_preds(slot.owner, slot.tv) == preds
            ):
                matches.append(("fork", slot))
        # (c) a pending composite occurrence with this frontier.
        for slot in self._slots_by_head.get(head, ()):
            if self._expected_preds(slot.owner, slot.tv) == preds:
                matches.append(("fresh", slot))
        if not matches:
            raise ExecutionError(
                f"vertex {vid} ({name!r}): no composite occurrence matches "
                f"predecessors {sorted(preds)}"
            )
        if len(matches) > 1:
            raise ExecutionError(
                f"vertex {vid} ({name!r}): ambiguous attribution "
                f"({[m[0] for m in matches]})"
            )
        kind_tag, slot = matches[0]
        if kind_tag == "fresh":
            return self._expand_fresh(slot, key, vid, token)
        return self._add_copy(slot, key, token, vid)

    def _add_copy(
        self, slot: _Slot, key: GraphKey, token: Optional[int], vid: int
    ) -> Label:
        """Open the next copy under a loop or fork slot's special node."""
        node = ParseNode(NodeKind.N, slot.special_node)
        self.factory.register_node(node, key, None)
        inst = self._open_instance(node, key, token, slot)
        return self._bind(inst, inst.template.source, vid)

    def _expand_fresh(
        self,
        slot: _Slot,
        key: GraphKey,
        vid: int,
        token: Optional[int],
    ) -> Label:
        """Open the parse-tree structure for a first expansion of ``slot``."""
        owner = slot.owner
        head = slot.head
        if self._is_designated(owner, slot.tv):
            # Recursion chain continuation: sibling under the R node.
            r_node = owner.node.parent
            if r_node is None or r_node.kind is not NodeKind.R:
                raise ExecutionError("recursive expansion outside an R chain")
            node = ParseNode(NodeKind.N, r_node)
            self.factory.register_node(node, key, None)
        elif self.spec.is_loop(head) or self.spec.is_fork(head):
            kind = NodeKind.L if self.spec.is_loop(head) else NodeKind.F
            special = ParseNode(kind, owner.node)
            self.factory.register_node(special, None, slot.tv)
            slot.special_node = special
            if self.mode == "name":
                if kind is NodeKind.L:
                    self._open_loops[slot] = None
                else:
                    self._open_forks[slot] = None
            node = ParseNode(NodeKind.N, special)
            self.factory.register_node(node, key, None)
        elif self._body_designated(key) is not None:
            r_node = ParseNode(NodeKind.R, owner.node)
            self.factory.register_node(r_node, None, slot.tv)
            node = ParseNode(NodeKind.N, r_node)
            self.factory.register_node(node, key, None)
        else:
            node = ParseNode(NodeKind.N, owner.node)
            self.factory.register_node(node, key, slot.tv)
        slot.key = key
        if self.mode == "name":
            del self._slots_by_head[head][slot]
        inst = self._open_instance(node, key, token, slot)
        return self._bind(inst, inst.template.source, vid)

    def _is_designated(self, inst: _InstanceState, tv: int) -> bool:
        if self.scheme.r_mode == "simplified":
            return False
        return self.info.is_designated(inst.key, tv)

    def _body_designated(self, key: GraphKey) -> Optional[int]:
        if self.scheme.r_mode == "simplified":
            return None
        return self.info.designated_recursive.get(key)

    # ------------------------------------------------------------------
    # internal vertices
    # ------------------------------------------------------------------
    def _handle_internal(self, insertion: Insertion) -> Label:
        vid, name, preds = insertion.vid, insertion.name, insertion.preds
        if self.mode == "logged":
            key, token, tv = self._require_origin(insertion)
            inst = self._by_token.get(token)
            if inst is None or inst.key != key:
                raise ExecutionError(
                    f"vertex {vid}: unknown, closed or mismatched copy "
                    f"token {token}"
                )
            if tv in inst.slots or tv not in inst.template:
                raise ExecutionError(
                    f"vertex {vid}: template vertex {tv} of {key!r} is "
                    "not an atomic module"
                )
            if tv in inst.bound:
                raise ExecutionError(
                    f"vertex {vid}: template vertex {tv} of copy {token} "
                    f"is already vertex {inst.bound[tv]}"
                )
            return self._bind(inst, tv, vid)
        candidates = self._expecting.get(name, [])
        hits = [
            (inst, tv)
            for inst, tv in candidates
            if tv not in inst.bound and self._expected_preds(inst, tv) == preds
        ]
        if not hits:
            raise ExecutionError(
                f"vertex {vid} ({name!r}): no open instance expects it with "
                f"predecessors {sorted(preds)}"
            )
        if len(hits) > 1:
            raise ExecutionError(
                f"vertex {vid} ({name!r}): ambiguous instance attribution"
            )
        inst, tv = hits[0]
        candidates.remove(hits[0])
        return self._bind(inst, tv, vid)
