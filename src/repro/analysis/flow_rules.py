"""The interprocedural rules built on :mod:`repro.analysis.flow`.

Four rules ride the call-graph + locks-held dataflow:

* ``deadlock-cycle`` -- cycles in the global lock-acquisition-order
  graph, annotated with the witness call path that establishes each
  edge.  A self-cycle means the same lock *token* (e.g. one stripe of
  a striped collection) is re-acquired while a sibling may be held --
  safe only under a frozen total order, which a suppression documents.
* ``blocking-under-lock`` -- fsync / socket / subprocess / ``sleep`` /
  ``join`` reachable while a *stripe or session* lock may be held.
  The WAL's deliberate fsync-before-ack is the canonical suppression.
* ``exception-escape`` -- every ``server.py`` / ``cluster.py``
  handler must provably convert non-``ServiceError`` exceptions into
  structured protocol errors (``error_response``) before the response
  is written: the ``decode_request`` call needs a ``ProtocolError``
  (or broader) conversion, and every dispatch call -- one that passes
  the decoded request onward or came out of an ``_ops`` table -- needs
  an enclosing ``except Exception`` conversion, unless every resolved
  callee is *total* (its own body is wrapped in one).
* ``resource-leak`` -- file handles / sockets opened on paths where
  no ``close`` / ``with`` postdominates and the handle never escapes
  the function (returned, stored, or passed on).

All four are over-approximations: an unresolved dynamic call is
assumed to reach every same-named project function, so a finding can
be spurious -- that is what per-site suppressions with reasons are
for.  The rules never crash on dispatch they cannot resolve.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Checker, Finding, Project, SourceFile
from repro.analysis.flow import (
    FlowAnalysis,
    FunctionInfo,
    flow_for,
    render_witness,
    _dotted,
)

__all__ = ["FLOW_RULES"]


def _is_stripe_or_session(token: str) -> bool:
    """Is this lock token a stripe lock or a session lock?

    Stripe locks guard the hot path (session-manager slots); a session
    lock is held across whole ingest batches.
    Matched: ``Session.lock`` (or any ``*session*.lock``), any
    ``*Shard*.lock``, and locks drawn from striped collections
    (``..._locks`` / ``..._slot[i]``).
    """
    if "_locks" in token or "_slot" in token:
        return True
    parts = token.split(".")
    if parts[-1].lower() != "lock":
        return False
    head = parts[0].lower()
    if "shard" in head:
        return True
    return head == "session" or head.endswith("session") or \
        head.startswith("session") and "manager" not in head


class DeadlockCycleRule(Checker):
    rule = "deadlock-cycle"
    summary = ("no cycles in the global lock-acquisition-order graph "
               "(two threads taking opposite orders deadlock)")
    hint = ("break the cycle by releasing the first lock before taking "
            "the second, or impose one frozen total order everywhere "
            "and suppress with the order as the reason")
    project = True

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = flow_for(project)
        for cycle in analysis.lock_cycles():
            anchor = cycle[0]
            func = analysis.functions.get(anchor.function)
            if func is None:  # pragma: no cover - defensive
                continue
            if len(cycle) == 1 and anchor.held == anchor.acquired:
                message = (
                    f"lock token {anchor.acquired!r} may be re-acquired "
                    f"while a sibling is already held "
                    f"(in {func.label}); two threads taking stripes in "
                    "opposite orders deadlock"
                )
            else:
                order = " -> ".join(
                    [cycle[0].held] + [edge.acquired for edge in cycle]
                )
                paths = "; ".join(
                    f"{edge.held} -> {edge.acquired} via "
                    f"{render_witness(edge.witness, analysis)}"
                    for edge in cycle
                )
                message = (
                    f"lock-acquisition cycle {order} "
                    f"(witness: {paths})"
                )
            yield self.finding(func.source, anchor.line, message)


class BlockingUnderLockRule(Checker):
    rule = "blocking-under-lock"
    summary = ("no fsync/socket/subprocess/sleep/join while a stripe "
               "or session lock may be held")
    hint = ("move the blocking call outside the lock, or -- if the "
            "blocking is the point, like the WAL's fsync-before-ack -- "
            "suppress at the call site with the reason")
    project = True

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = flow_for(project)
        results: List[Tuple[str, int, Finding]] = []
        for qual in sorted(analysis.blocking):
            func = analysis.functions[qual]
            for call in analysis.blocking[qual]:
                held = analysis.held_at(qual, call.held)
                watched = sorted(
                    token for token in held
                    if _is_stripe_or_session(token)
                )
                if not watched:
                    continue
                token = watched[0]
                witness = held[token]
                if witness:
                    path = render_witness(
                        witness + ((qual, call.line),), analysis)
                    via = f" (path: {path})"
                else:
                    via = " (held in this function)"
                message = (
                    f"blocking {call.reason} call {call.dotted}() may "
                    f"run while {token} is held{via}"
                )
                results.append((
                    func.source.display, call.line,
                    self.finding(func.source, call.line, message),
                ))
        for _, _, finding in sorted(results, key=lambda r: (r[0], r[1])):
            yield finding


#: except-clause type names that cover every exception
_BROAD_TYPES = frozenset({"Exception", "BaseException"})
#: except-clause type names that cover protocol decode failures
_PROTO_TYPES = frozenset({
    "ProtocolError", "ServiceError", "ReproError",
}) | _BROAD_TYPES


def _handler_types(handler: ast.ExceptHandler) -> Set[str]:
    node = handler.type
    if node is None:
        return {"BaseException"}
    names: Set[str] = set()
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    for elt in elts:
        dotted = _dotted(elt)
        if dotted:
            names.add(dotted.split(".")[-1])
    return names


def _converts_to_error(handler: ast.ExceptHandler) -> bool:
    """Does the handler body produce a structured error response?"""
    for node in ast.walk(handler):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted and dotted.split(".")[-1] == "error_response":
                return True
    return False


def _is_total(func: FunctionInfo) -> bool:
    """Is the function's body wrapped in an Exception->error_response
    conversion at the top level (so no exception can escape it)?"""
    for stmt in func.node.body:
        if isinstance(stmt, ast.Try):
            for handler in stmt.handlers:
                if _handler_types(handler) & _BROAD_TYPES and \
                        _converts_to_error(handler):
                    return True
    return False


def _is_ops_lookup(value: ast.AST) -> bool:
    """``self._ops.get(op)`` / ``self._ops[op]`` style table lookups."""
    if isinstance(value, ast.Call) and isinstance(
            value.func, ast.Attribute) and value.func.attr == "get":
        value = value.func.value
    if isinstance(value, ast.Subscript):
        value = value.value
    dotted = _dotted(value)
    return bool(dotted) and dotted.split(".")[-1].endswith("_ops")


class ExceptionEscapeRule(Checker):
    rule = "exception-escape"
    summary = ("server.py/cluster.py handlers must convert every "
               "exception into a structured protocol error before the "
               "response is written")
    hint = ("wrap the dispatch in try/except Exception producing "
            "error_response(...), or make the callee total (its own "
            "body wrapped in that conversion)")
    project = True

    _FILES = frozenset({"server.py", "cluster.py"})

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = flow_for(project)
        results: List[Tuple[str, int, Finding]] = []
        for qual in sorted(analysis.functions):
            func = analysis.functions[qual]
            if func.source.name not in self._FILES:
                continue
            results.extend(self._check_function(func, analysis))
        for _, _, finding in sorted(results, key=lambda r: (r[0], r[1])):
            yield finding

    def _check_function(self, func: FunctionInfo, analysis: FlowAnalysis
                        ) -> List[Tuple[str, int, Finding]]:
        node = func.node
        request_vars: Set[str] = set()
        ops_vars: Set[str] = set()
        has_decode = False
        for child in ast.walk(node):
            if isinstance(child, ast.Assign) and len(child.targets) == 1 \
                    and isinstance(child.targets[0], ast.Name):
                name = child.targets[0].id
                value = child.value
                if isinstance(value, ast.Call):
                    dotted = _dotted(value.func) or ""
                    if dotted.split(".")[-1] == "decode_request":
                        request_vars.add(name)
                        has_decode = True
                if _is_ops_lookup(value):
                    ops_vars.add(name)
        if not has_decode and not ops_vars:
            return []

        out: List[Tuple[str, int, Finding]] = []

        def passes_request(call: ast.Call) -> bool:
            for arg in list(call.args) + [kw.value
                                          for kw in call.keywords]:
                if isinstance(arg, ast.Name) and arg.id in request_vars:
                    return True
            return False

        def dispatch_targets(call: ast.Call) -> Optional[List[
                FunctionInfo]]:
            """Resolved callees for a dispatch call, [] if unresolved,
            None if this is not a dispatch call at all."""
            f = call.func
            if isinstance(f, ast.Name):
                if f.id in ops_vars:
                    return []  # table-driven: unknowable statically
                if not passes_request(call):
                    return None
                if f.id in ("error_response", "encode_response"):
                    return None
                target = func.module.functions.get(f.id)
                return [target] if target is not None else []
            if isinstance(f, ast.Attribute):
                if not passes_request(call):
                    return None
                dotted = _dotted(f) or ""
                if dotted.startswith("self.") and func.cls is not None:
                    method = func.cls.method(f.attr)
                    return [method] if method is not None else []
                return []
            return None

        def calls_in(stmt: ast.AST) -> Iterator[ast.Call]:
            for child in ast.walk(stmt):
                if isinstance(child, ast.Call):
                    yield child

        def check_stmts(stmts, exc_ok: bool, proto_ok: bool) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, ast.Try):
                    body_exc, body_proto = exc_ok, proto_ok
                    for handler in stmt.handlers:
                        types = _handler_types(handler)
                        converts = _converts_to_error(handler)
                        if types & _BROAD_TYPES and converts:
                            body_exc = True
                        if types & _PROTO_TYPES and converts:
                            body_proto = True
                    check_stmts(stmt.body, body_exc, body_proto)
                    for handler in stmt.handlers:
                        check_stmts(handler.body, exc_ok, proto_ok)
                    check_stmts(stmt.orelse, exc_ok, proto_ok)
                    check_stmts(stmt.finalbody, exc_ok, proto_ok)
                    continue
                nested = [s for s in ast.iter_child_nodes(stmt)
                          if isinstance(s, ast.stmt)]
                if isinstance(stmt, (ast.If, ast.For, ast.While,
                                     ast.With, ast.AsyncWith,
                                     ast.AsyncFor)):
                    header_calls = [
                        call for call in calls_in(stmt)
                        if not any(call in set(calls_in(s))
                                   for s in nested)
                    ]
                    self._check_calls(func, header_calls, exc_ok,
                                      proto_ok, dispatch_targets, out)
                    if isinstance(stmt, (ast.With, ast.AsyncWith)):
                        check_stmts(stmt.body, exc_ok, proto_ok)
                    else:
                        check_stmts(stmt.body, exc_ok, proto_ok)
                        check_stmts(getattr(stmt, "orelse", []),
                                    exc_ok, proto_ok)
                    continue
                self._check_calls(func, list(calls_in(stmt)), exc_ok,
                                  proto_ok, dispatch_targets, out)

        check_stmts(node.body, False, False)
        return out

    def _check_calls(self, func, calls, exc_ok, proto_ok,
                     dispatch_targets, out) -> None:
        for call in calls:
            dotted = _dotted(call.func) or ""
            tail = dotted.split(".")[-1]
            if tail == "decode_request" and not proto_ok:
                out.append((
                    func.source.display, call.lineno,
                    self.finding(
                        func.source, call.lineno,
                        f"{func.label} decodes a request without a "
                        "ProtocolError -> error_response conversion "
                        "around it",
                    ),
                ))
                continue
            targets = dispatch_targets(call)
            if targets is None or exc_ok:
                continue
            if targets and all(_is_total(t) for t in targets):
                continue
            out.append((
                func.source.display, call.lineno,
                self.finding(
                    func.source, call.lineno,
                    f"{func.label} dispatches {dotted or 'a handler'}"
                    "(...) outside any except-Exception -> "
                    "error_response conversion; a raising handler "
                    "would escape as a protocol-less failure",
                ),
            ))


#: calls that open an OS resource needing an explicit close
_OPENER_TAILS = frozenset({
    "open", "fdopen", "create_connection", "create_server",
})


def _is_opener(call: ast.Call) -> bool:
    dotted = _dotted(call.func)
    if dotted is None:
        return False
    parts = dotted.split(".")
    tail = parts[-1]
    if tail == "socket" and parts[0] == "socket":
        return True  # socket.socket(...)
    if tail not in _OPENER_TAILS:
        return False
    if tail == "open" and len(parts) > 1 and parts[0] not in (
            "io", "os", "gzip", "bz2", "lzma"):
        # path.open() returns a handle too -- keep it; but
        # webbrowser.open etc. do not.  Only obvious file-ish roots.
        return parts[-2] in ("path", "p", "file") or \
            parts[0] in ("io", "os")
    return True


class ResourceLeakRule(Checker):
    rule = "resource-leak"
    summary = ("file handles/sockets are closed on every path: use "
               "with, close in finally, or hand the handle off")
    hint = ("wrap the open in a with-block (or contextlib.closing), "
            "close it in a finally, or store/return it so an owner "
            "with a close path exists")
    project = False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for func in self._functions(source.tree):
            yield from self._check_function(source, func)

    @staticmethod
    def _functions(tree: ast.Module):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _check_function(self, source: SourceFile,
                        func: ast.AST) -> Iterator[Finding]:
        opened: Dict[str, Tuple[int, str]] = {}
        released: Set[str] = set()
        escaped: Set[str] = set()
        bare: List[Tuple[int, str]] = []

        own: List[ast.AST] = []
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            own.append(node)
            stack.extend(ast.iter_child_nodes(node))

        with_exprs: Set[int] = set()
        for node in own:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_exprs.add(id(item.context_expr))
                    if isinstance(item.context_expr, ast.Name):
                        released.add(item.context_expr.id)

        arg_of_call: Set[int] = set()
        for node in own:
            if isinstance(node, ast.Call):
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    arg_of_call.add(id(arg))
                    if isinstance(arg, ast.Name):
                        escaped.add(arg.id)
                if isinstance(node.func, ast.Attribute):
                    recv = node.func.value
                    if isinstance(recv, ast.Name):
                        if node.func.attr in ("close", "shutdown",
                                              "detach"):
                            released.add(recv.id)

        assigned_values: Set[int] = set()
        for node in own:
            if isinstance(node, ast.Assign):
                assigned_values.add(id(node.value))
                if len(node.targets) == 1 and isinstance(
                        node.targets[0], ast.Name) and isinstance(
                        node.value, ast.Call) and _is_opener(node.value):
                    name = node.targets[0].id
                    opened[name] = (node.value.lineno,
                                    _dotted(node.value.func) or "open")
                elif isinstance(node.value, ast.Name):
                    # aliased or stored somewhere: ownership moved
                    escaped.add(node.value.id)
                else:
                    for part in ast.walk(node.value):
                        if isinstance(part, ast.Name):
                            escaped.add(part.id)
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        # self.x = fh / container[k] = fh: stored
                        for part in ast.walk(node.value):
                            if isinstance(part, ast.Name):
                                escaped.add(part.id)
            elif isinstance(node, (ast.Return, ast.Yield,
                                   ast.YieldFrom)):
                value = node.value
                if value is not None:
                    for part in ast.walk(value):
                        if isinstance(part, ast.Name):
                            escaped.add(part.id)
            elif isinstance(node, ast.Expr) and isinstance(
                    node.value, ast.Call) and _is_opener(node.value):
                if id(node.value) not in with_exprs:
                    bare.append((node.value.lineno,
                                 _dotted(node.value.func) or "open"))

        for line, dotted in bare:
            yield self.finding(
                source, line,
                f"{dotted}(...) opens a handle that is never bound, "
                "closed or used -- it leaks immediately",
            )
        for name in sorted(opened):
            line, dotted = opened[name]
            if name in released or name in escaped:
                continue
            yield self.finding(
                source, line,
                f"{dotted}(...) result {name!r} has no close/with on "
                "any path out of this function and never escapes it",
            )


FLOW_RULES = (
    DeadlockCycleRule(),
    BlockingUnderLockRule(),
    ExceptionEscapeRule(),
    ResourceLeakRule(),
)
