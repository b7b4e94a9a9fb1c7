"""The explicit parse tree and its dynamic construction (Algorithm 2).

The explicit parse tree refines the canonical parse tree with three kinds
of special nodes:

* an ``L`` node whose children are the copies of one loop body, combined
  in series;
* an ``F`` node whose children are the copies of one fork body, combined
  in parallel;
* an ``R`` node whose children are the bodies of one linear recursion,
  flattened into a sibling chain linked by (conceptual) dashed edges.

Flattening recursion under ``R`` nodes is what bounds the depth: for a
linear recursive grammar the depth never exceeds ``2 * |Sigma \\ Delta|``
(Lemma 4.1), which makes the per-vertex label of the DRL scheme a
constant number of entries.

Nonlinear grammars are supported through two Section 6 modes:

* ``r_mode='linear'``   -- R nodes compress the unique recursive vertex
  (requires a linear recursive grammar);
* ``r_mode='one_r'``    -- compress one designated recursive vertex per
  production, treat the others non-recursively (depth may grow);
* ``r_mode='simplified'`` -- no R nodes at all; every recursion level adds
  tree depth.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.errors import DerivationError, LabelingError
from repro.workflow.derivation import DerivationStep, Instance
from repro.workflow.grammar import GrammarClass, GrammarInfo, analyze_grammar
from repro.workflow.specification import Specification

R_MODES = ("linear", "one_r", "simplified")


class NodeKind(Enum):
    """Node kinds of the explicit parse tree."""

    N = "N"  # non-special: annotated with one instantiated subgraph
    L = "L"  # loop: children are series-composed copies
    F = "F"  # fork: children are parallel copies
    R = "R"  # recursion: children chain a flattened linear recursion


class ParseNode:
    """One node of the explicit parse tree.

    ``index`` is the prefix-scheme index: 0 for the root, otherwise the
    1-based position among the parent's children, taken from the
    parent's ``arity`` (the number of children created under it so far).
    A node points only at its parent, so the execution-based labeler can
    drop a subtree once no insertion can land in it;
    :class:`ExplicitParseTree`, which builds whole trees, also lists each
    node's ``children`` (None otherwise).  Non-special nodes of an
    explicit tree carry their annotated
    :class:`~repro.workflow.derivation.Instance`; ``edge_composite`` is
    the run vertex id of the composite annotated on the edge from the
    parent (None when the parent is a special node or for the root).
    """

    __slots__ = (
        "kind",
        "index",
        "parent",
        "arity",
        "children",
        "depth",
        "instance",
        "edge_composite",
    )

    def __init__(
        self,
        kind: NodeKind,
        parent: Optional["ParseNode"],
        instance: Optional[Instance] = None,
        edge_composite: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.parent = parent
        self.arity = 0
        self.children: Optional[List["ParseNode"]] = None
        self.instance = instance
        self.edge_composite = edge_composite
        if parent is None:
            self.index = 0
            self.depth = 0
        else:
            parent.arity += 1
            self.index = parent.arity
            self.depth = parent.depth + 1

    @property
    def is_special(self) -> bool:
        """True for L, F and R nodes."""
        return self.kind is not NodeKind.N

    def path_from_root(self) -> List["ParseNode"]:
        """Nodes on the root-to-self path, root first."""
        path: List[ParseNode] = []
        node: Optional[ParseNode] = self
        while node is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ann = self.instance.key if self.instance is not None else None
        return f"ParseNode({self.kind.value}, index={self.index}, ann={ann})"


class ExplicitParseTree:
    """Dynamic explicit parse tree builder (Algorithm 2).

    Feed it the start instance via :meth:`begin` and every derivation step
    via :meth:`apply_step`; it maintains the context of every run vertex
    (Definition 11) and creates tree nodes exactly as Algorithm 2 does.
    ``apply_step`` returns the newly created nodes in creation order --
    special node first, then its children -- which is the order the DRL
    labeler processes them in (Algorithm 3).
    """

    def __init__(
        self,
        spec: Specification,
        info: Optional[GrammarInfo] = None,
        r_mode: str = "linear",
    ) -> None:
        if r_mode not in R_MODES:
            raise LabelingError(f"unknown r_mode {r_mode!r}; expected {R_MODES}")
        self.spec = spec
        self.info = info if info is not None else analyze_grammar(spec)
        if (
            r_mode == "linear"
            and self.info.grammar_class is GrammarClass.NONLINEAR_RECURSIVE
        ):
            raise LabelingError(
                "r_mode='linear' requires a linear recursive grammar; "
                "use 'one_r' or 'simplified' for nonlinear workflows"
            )
        self.r_mode = r_mode
        self.root: Optional[ParseNode] = None
        self.node_count = 0
        self.max_outdegree = 0
        # run vertex id -> (context node, template vertex id); Definition 11.
        self._locate: Dict[int, Tuple[ParseNode, int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_node(
        self,
        kind: NodeKind,
        parent: Optional[ParseNode],
        instance: Optional[Instance] = None,
        edge_composite: Optional[int] = None,
    ) -> ParseNode:
        node = ParseNode(kind, parent, instance, edge_composite)
        node.children = []
        if parent is not None:
            parent.children.append(node)
            self.max_outdegree = max(self.max_outdegree, parent.arity)
        self.node_count += 1
        if instance is not None:
            for tv, run_vid in instance.mapping.items():
                self._locate[run_vid] = (node, tv)
        return node

    def begin(self, start_instance: Instance) -> ParseNode:
        """Create the root, annotated with the start graph instance."""
        if self.root is not None:
            raise DerivationError("parse tree already started")
        self.root = self._new_node(NodeKind.N, None, instance=start_instance)
        return self.root

    def _designated(self, node: ParseNode, template_vid: int) -> bool:
        """Is ``template_vid`` the R-compressed recursive vertex here?"""
        if self.r_mode == "simplified" or node.instance is None:
            return False
        return self.info.is_designated(node.instance.key, template_vid)

    def _body_designated(self, impl_key: str) -> Optional[int]:
        """Designated recursive vertex of the body ``impl_key`` (if any)."""
        if self.r_mode == "simplified":
            return None
        return self.info.designated_recursive.get(impl_key)

    def apply_step(self, step: DerivationStep) -> List[ParseNode]:
        """Extend the tree for one derivation step; Algorithm 2's loop body."""
        if self.root is None:
            raise DerivationError("call begin() before apply_step()")
        try:
            context, template_vid = self._locate[step.target]
        except KeyError:
            raise DerivationError(
                f"composite vertex {step.target} has no context; "
                "steps must be applied in derivation order"
            ) from None

        new_nodes: List[ParseNode] = []
        if self._designated(context, template_vid):
            # Case (2b): u_i is the compressed recursive vertex.  Its
            # context sits under an R node; extend the sibling chain with a
            # dashed edge annotated u_i.
            r_node = context.parent
            if r_node is None or r_node.kind is not NodeKind.R:
                raise DerivationError(
                    "recursive expansion outside an R chain; tree corrupted"
                )
            node = self._new_node(
                NodeKind.N,
                r_node,
                instance=step.copies[0],
                edge_composite=step.target,
            )
            new_nodes.append(node)
            return new_nodes

        if self.spec.is_loop(step.head) or self.spec.is_fork(step.head):
            # Case (1a): series/parallel replication under an L/F node.
            kind = NodeKind.L if self.spec.is_loop(step.head) else NodeKind.F
            special = self._new_node(
                kind, context, edge_composite=step.target
            )
            new_nodes.append(special)
            for inst in step.copies:
                new_nodes.append(
                    self._new_node(NodeKind.N, special, instance=inst)
                )
            return new_nodes

        if len(step.copies) != 1:
            raise DerivationError("non-replicating step must have one copy")

        if self._body_designated(step.impl_key) is not None:
            # Case (1b): the body starts a (compressed) recursion chain.
            r_node = self._new_node(
                NodeKind.R, context, edge_composite=step.target
            )
            new_nodes.append(r_node)
            new_nodes.append(
                self._new_node(NodeKind.N, r_node, instance=step.copies[0])
            )
            return new_nodes

        # Case (1c): a plain expansion.
        new_nodes.append(
            self._new_node(
                NodeKind.N,
                context,
                instance=step.copies[0],
                edge_composite=step.target,
            )
        )
        return new_nodes

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def context_of(self, run_vid: int) -> Tuple[ParseNode, int]:
        """The context of a run vertex and its template vertex (Def. 11)."""
        try:
            return self._locate[run_vid]
        except KeyError:
            raise LabelingError(f"run vertex {run_vid} has no context") from None

    def depth(self) -> int:
        """Maximum node depth (root = 0)."""
        if self.root is None:
            return 0
        best = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            best = max(best, node.depth)
            stack.extend(node.children)
        return best

    def lca(self, a: ParseNode, b: ParseNode) -> ParseNode:
        """Least common ancestor of two nodes (by depth walking)."""
        while a.depth > b.depth:
            assert a.parent is not None
            a = a.parent
        while b.depth > a.depth:
            assert b.parent is not None
            b = b.parent
        while a is not b:
            assert a.parent is not None and b.parent is not None
            a, b = a.parent, b.parent
        return a

    def nodes(self) -> List[ParseNode]:
        """All nodes in preorder."""
        if self.root is None:
            return []
        out: List[ParseNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def depth_bound(self) -> int:
        """Lemma 4.1's bound ``2 * |Sigma \\ Delta|`` on the tree depth."""
        return 2 * len(self.spec.composite_names)


def build_explicit_tree(
    derivation, info: Optional[GrammarInfo] = None, r_mode: str = "linear"
) -> ExplicitParseTree:
    """Build the complete explicit parse tree of a recorded derivation."""
    tree = ExplicitParseTree(derivation.spec, info=info, r_mode=r_mode)
    tree.begin(derivation.start_instance)
    for step in derivation.steps:
        tree.apply_step(step)
    return tree
