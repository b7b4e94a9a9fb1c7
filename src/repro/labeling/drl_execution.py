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
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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
    vertex as its module executions arrive."""

    __slots__ = ("node", "key", "template", "bound", "slots", "token")

    def __init__(
        self,
        node: ParseNode,
        key: GraphKey,
        template: TwoTerminalGraph,
        token: Optional[int] = None,
    ) -> None:
        self.node = node
        self.key = key
        self.template = template
        self.bound: Dict[int, int] = {}  # atomic template vid -> run vid
        self.slots: Dict[int, "_Slot"] = {}  # composite template vid -> slot
        self.token = token  # logged-mode copy token


class _Slot:
    """A composite occurrence awaiting (or undergoing) expansion."""

    __slots__ = ("owner", "tv", "head", "special_node", "copies", "expansion")

    def __init__(self, owner: _InstanceState, tv: int, head: str) -> None:
        self.owner = owner
        self.tv = tv
        self.head = head
        self.special_node: Optional[ParseNode] = None  # L or F node
        self.copies: List[_InstanceState] = []  # loop/fork copies, in order
        self.expansion: Optional[_InstanceState] = None  # plain expansion

    @property
    def is_pending(self) -> bool:
        return self.special_node is None and self.expansion is None


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
        self._root_state: Optional[_InstanceState] = None
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
        # logged mode lookup: copy token -> instance state
        self._by_token: Dict[int, _InstanceState] = {}
        # open slots by head name, for source matching
        self._slots_by_head: Dict[str, List[_Slot]] = {}
        self._open_loops: List[_Slot] = []
        self._open_forks: List[_Slot] = []

    # ------------------------------------------------------------------
    # anchors and frontiers
    # ------------------------------------------------------------------
    def _anchor(self, inst: _InstanceState, tv: int) -> Optional[FrozenSet[int]]:
        """Run vertices acting as the downstream face of template vertex
        ``tv``: the vertex itself when atomic, the sinks of its expansion
        when composite.  None while unresolved."""
        name = inst.template.name(tv)
        if self.spec.is_atomic(name):
            run_vid = inst.bound.get(tv)
            return None if run_vid is None else frozenset((run_vid,))
        slot = inst.slots.get(tv)
        if slot is None or slot.is_pending:
            return None
        if slot.special_node is not None:
            if slot.special_node.kind is NodeKind.L:
                last = slot.copies[-1]
                return self._anchor(last, last.template.sink)
            sinks: Set[int] = set()
            for copy in slot.copies:
                part = self._anchor(copy, copy.template.sink)
                if part is None:
                    return None
                sinks.update(part)
            return frozenset(sinks)
        assert slot.expansion is not None
        return self._anchor(slot.expansion, slot.expansion.template.sink)

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
        self, node: ParseNode, key: GraphKey, token: Optional[int]
    ) -> _InstanceState:
        template = self.spec.graph(key)
        inst = _InstanceState(node, key, template, token)
        by_name = self.mode == "name"
        for tv in template.vertices():
            name = template.name(tv)
            if self.spec.is_atomic(name):
                if by_name and tv != template.source:
                    self._expecting.setdefault(name, []).append((inst, tv))
            else:
                slot = _Slot(inst, tv, name)
                inst.slots[tv] = slot
                if by_name:
                    self._slots_by_head.setdefault(name, []).append(slot)
        if token is not None:
            self._by_token[token] = inst
        return inst

    def _bind(self, inst: _InstanceState, tv: int, vid: int) -> Label:
        inst.bound[tv] = vid
        label = self.factory.label(inst.node, tv)
        self.labels[vid] = label
        return label

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
        self._root_state = self._open_instance(self.root, START_KEY, token)
        return self._bind(self._root_state, start_template.source, insertion.vid)

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
                f"vertex {insertion.vid}: unknown parent copy {parent_token}"
            )
        slot = owner.slots.get(tv)
        if slot is None:
            raise ExecutionError(
                f"vertex {insertion.vid}: template vertex {tv} of "
                f"{owner.key!r} is not composite"
            )
        template = self.spec.graph(key)
        if slot.special_node is not None:
            node = ParseNode(NodeKind.N, slot.special_node)
            self.factory.register_node(node, key, None)
            inst = self._open_instance(node, key, token)
            slot.copies.append(inst)
            return self._bind(inst, template.source, insertion.vid)
        if not slot.is_pending:
            raise ExecutionError(
                f"vertex {insertion.vid}: slot already expanded"
            )
        return self._expand_fresh(slot, key, template, insertion.vid, token)

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
        template = self.spec.graph(key)
        matches: List[Tuple[str, object]] = []
        # (a) next copy of an open loop: predecessor is the previous
        # copy's sink.
        for slot in self._open_loops:
            if slot.copies[0].key != key:
                continue
            last = slot.copies[-1]
            anchor = self._anchor(last, last.template.sink)
            if anchor == preds:
                matches.append(("loop", slot))
        # (b) another copy of an open fork: same frontier as the first.
        for slot in self._open_forks:
            if slot.copies[0].key != key:
                continue
            if self._expected_preds(slot.owner, slot.tv) == preds:
                matches.append(("fork", slot))
        # (c) a pending composite occurrence with this frontier.
        for slot in self._slots_by_head.get(head, ()):
            if not slot.is_pending:
                continue
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
        assert isinstance(slot, _Slot)
        if kind_tag == "loop" or kind_tag == "fork":
            node = ParseNode(NodeKind.N, slot.special_node)
            self.factory.register_node(node, key, None)
            inst = self._open_instance(node, key, token)
            slot.copies.append(inst)
            return self._bind(inst, template.source, vid)
        return self._expand_fresh(slot, key, template, vid, token)

    def _expand_fresh(
        self,
        slot: _Slot,
        key: GraphKey,
        template: TwoTerminalGraph,
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
                    self._open_loops.append(slot)
                else:
                    self._open_forks.append(slot)
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
        inst = self._open_instance(node, key, token)
        if slot.special_node is not None:
            slot.copies.append(inst)
        else:
            slot.expansion = inst
        return self._bind(inst, template.source, vid)

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
                    f"vertex {vid}: unknown or mismatched copy token {token}"
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
