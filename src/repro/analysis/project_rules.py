"""Cross-module checkers: op-surface drift and docs drift.

These rules compare artifacts that must agree but live in different
files: the ``protocol.OPS`` tuple, the server dispatch table, the
client wrappers and retry classification, the cluster routing tables,
and the operator-facing documentation.  They run once per lint
invocation and no-op when the tree under lint does not contain the
service (so per-file rules still work on arbitrary fixture trees).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Checker, Finding, Project, SourceFile

_PROTOCOL = "repro/service/protocol.py"
_SERVER = "repro/service/server.py"
_CLIENT = "repro/service/client.py"
_CLUSTER = "repro/service/cluster.py"


# ---------------------------------------------------------------------------
# tiny constant evaluators (just enough for this codebase's tables)
# ---------------------------------------------------------------------------


def _module_env(tree: ast.Module) -> Dict[str, ast.AST]:
    """Top-level ``NAME = <expr>`` assignments, by name."""
    env: Dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    env[target.id] = node.value
    return env


def _eval_str_tuple(node: Optional[ast.AST]) -> Optional[Tuple[str, ...]]:
    """A literal tuple/list of string constants, or None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out: List[str] = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            out.append(elt.value)
        else:
            return None
    return tuple(out)


def _eval_str_set(
    node: Optional[ast.AST], env: Dict[str, ast.AST]
) -> Optional[Set[str]]:
    """Evaluate ``frozenset({...})`` / ``{...}`` / unions / names."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return _eval_str_set(env.get(node.id), env)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        if name in {"frozenset", "set"}:
            if not node.args:
                return set()
            if len(node.args) == 1:
                return _eval_str_set(node.args[0], env)
        return None
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        out: Set[str] = set()
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.add(elt.value)
            else:
                return None
        return out
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _eval_str_set(node.left, env)
        right = _eval_str_set(node.right, env)
        if left is None or right is None:
            return None
        return left | right
    return None


def _assign_line(tree: ast.Module, name: str) -> int:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.lineno
    return 1


def _protocol_ops(project: Project) -> Optional[Tuple[SourceFile,
                                                      Tuple[str, ...]]]:
    protocol = project.module(_PROTOCOL)
    if protocol is None:
        return None
    ops = _eval_str_tuple(_module_env(protocol.tree).get("OPS"))
    if ops is None:
        return None
    return protocol, ops


def _server_dispatch(
    server: SourceFile,
) -> Optional[Tuple[int, Dict[str, str]]]:
    """``self._ops = { "op": self._op_handler, ... }`` -> (line, map)."""
    for node in ast.walk(server.tree):
        if not isinstance(node, ast.Assign):
            continue
        target = node.targets[0] if node.targets else None
        named = (
            isinstance(target, ast.Attribute) and target.attr == "_ops"
        )
        if not named and isinstance(node, ast.Assign):
            continue
        if named and isinstance(node.value, ast.Dict):
            table: Dict[str, str] = {}
            for key, value in zip(node.value.keys, node.value.values):
                if not (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                ):
                    return None
                handler = (
                    value.attr if isinstance(value, ast.Attribute) else ""
                )
                table[key.value] = handler
            return node.lineno, table
    # AnnAssign variant: self._ops: Dict[...] = {...}
    for node in ast.walk(server.tree):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Attribute)
            and node.target.attr == "_ops"
            and isinstance(node.value, ast.Dict)
        ):
            table = {}
            for key, value in zip(node.value.keys, node.value.values):
                if not (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                ):
                    return None
                table[key.value] = (
                    value.attr if isinstance(value, ast.Attribute) else ""
                )
            return node.lineno, table
    return None


def _client_call_ops(client: SourceFile) -> Dict[str, List[str]]:
    """op -> wrapper method names whose bodies issue ``self.call(op)``."""
    by_op: Dict[str, List[str]] = {}
    for node in ast.walk(client.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(method):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr == "call"
                ):
                    continue
                if call.args and isinstance(
                    call.args[0], ast.Constant
                ) and isinstance(call.args[0].value, str):
                    by_op.setdefault(
                        call.args[0].value, []
                    ).append(method.name)
    return by_op


def _sorted(values) -> str:
    return ", ".join(sorted(values))


# ---------------------------------------------------------------------------
# rule: ops-surface
# ---------------------------------------------------------------------------


class OpsSurfaceRule(Checker):
    """Every table describing the op surface must agree with
    ``protocol.OPS``: the server dispatch dict, the client wrapper
    coverage, the retry classification
    (``IDEMPOTENT_OPS``/``MUTATING_OPS`` partitioning the surface),
    and the cluster routing tables."""

    rule = "ops-surface"
    summary = "an op table drifted from protocol.OPS"
    hint = (
        "a new op must land in protocol.OPS, the server _ops dict, a "
        "ServiceClient wrapper, exactly one of IDEMPOTENT_OPS/"
        "MUTATING_OPS, and a cluster routing table, all in one change"
    )
    project = True

    def check_project(self, project: Project) -> Iterator[Finding]:
        anchored = _protocol_ops(project)
        if anchored is None:
            return
        protocol, ops_tuple = anchored
        ops = set(ops_tuple)
        if len(ops) != len(ops_tuple):
            yield self.finding(
                protocol, _assign_line(protocol.tree, "OPS"),
                "protocol.OPS contains duplicate entries",
            )

        server = project.module(_SERVER)
        if server is not None:
            dispatch = _server_dispatch(server)
            if dispatch is None:
                yield self.finding(
                    server, 1,
                    "could not locate the self._ops dispatch dict "
                    "(literal dict of op-name keys expected)",
                )
            else:
                line, table = dispatch
                missing = ops - set(table)
                extra = set(table) - ops
                if missing:
                    yield self.finding(
                        server, line,
                        f"server dispatch is missing op(s): "
                        f"{_sorted(missing)}",
                    )
                if extra:
                    yield self.finding(
                        server, line,
                        f"server dispatch handles op(s) absent from "
                        f"protocol.OPS: {_sorted(extra)}",
                    )

        client = project.module(_CLIENT)
        if client is not None:
            env = _module_env(client.tree)
            idempotent = _eval_str_set(env.get("IDEMPOTENT_OPS"), env)
            mutating = _eval_str_set(env.get("MUTATING_OPS"), env)
            if idempotent is None:
                yield self.finding(
                    client, 1,
                    "IDEMPOTENT_OPS is missing or not a literal "
                    "frozenset of op names",
                )
            if mutating is None:
                yield self.finding(
                    client, 1,
                    "MUTATING_OPS is missing or not a literal frozenset "
                    "of op names (every op must be classified for the "
                    "retry policy)",
                )
            if idempotent is not None and mutating is not None:
                overlap = idempotent & mutating
                if overlap:
                    yield self.finding(
                        client, _assign_line(client.tree, "MUTATING_OPS"),
                        f"op(s) classified both idempotent and mutating: "
                        f"{_sorted(overlap)}",
                    )
                unclassified = ops - (idempotent | mutating)
                if unclassified:
                    yield self.finding(
                        client, _assign_line(client.tree, "MUTATING_OPS"),
                        f"op(s) not classified for the retry policy: "
                        f"{_sorted(unclassified)}",
                    )
                phantom = (idempotent | mutating) - ops
                if phantom:
                    yield self.finding(
                        client,
                        _assign_line(client.tree, "IDEMPOTENT_OPS"),
                        f"retry classification names unknown op(s): "
                        f"{_sorted(phantom)}",
                    )
            wrapped = set(_client_call_ops(client))
            unwrapped = ops - wrapped
            if unwrapped:
                yield self.finding(
                    client, 1,
                    f"no ServiceClient wrapper issues op(s): "
                    f"{_sorted(unwrapped)}",
                )
            unknown = wrapped - ops
            if unknown:
                yield self.finding(
                    client, 1,
                    f"ServiceClient issues op(s) absent from "
                    f"protocol.OPS: {_sorted(unknown)}",
                )

        cluster = project.module(_CLUSTER)
        if cluster is not None:
            env = _module_env(cluster.tree)
            for name in ("_SESSION_OPS", "_BROADCAST_OPS", "_ROUTED_OPS"):
                table = _eval_str_set(env.get(name), env)
                if table is None:
                    yield self.finding(
                        cluster, 1,
                        f"{name} is missing or not statically evaluable",
                    )
                    continue
                phantom = table - ops
                if phantom:
                    yield self.finding(
                        cluster, _assign_line(cluster.tree, name),
                        f"{name} names unknown op(s): {_sorted(phantom)}",
                    )
                if name == "_ROUTED_OPS" and table != ops:
                    unrouted = ops - table
                    if unrouted:
                        yield self.finding(
                            cluster, _assign_line(cluster.tree, name),
                            f"the cluster router has no route for "
                            f"op(s): {_sorted(unrouted)}",
                        )


# ---------------------------------------------------------------------------
# rule: ops-idempotent
# ---------------------------------------------------------------------------

#: call names that mutate service state; an op advertised as
#: idempotent (and therefore auto-retried by the client) must never
#: reach one of these from its handler.  ``snapshot`` is deliberately
#: absent: ``metrics.snapshot()`` is a pure read of the registry.
_MUTATION_MARKERS = frozenset({
    "ingest", "ingest_many", "insert", "create", "create_session",
    "adopt", "close", "close_session", "checkpoint",
    "checkpoint_session", "restore_session",
    "finalize", "register", "sync", "set",
    "shutdown", "write", "append", "clear",
    "pop",
})


class OpsIdempotentRule(Checker):
    """Ops in ``IDEMPOTENT_OPS`` are silently retried after a socket
    failure, so their server handlers must be provably read-only: a
    retried mutation would double-apply."""

    rule = "ops-idempotent"
    summary = "an op advertised as idempotent reaches a mutating call"
    hint = (
        "move the op to MUTATING_OPS, or keep the handler read-only; "
        "the client reconnect-and-retry path assumes it can replay "
        "these ops blindly"
    )
    project = True

    def check_project(self, project: Project) -> Iterator[Finding]:
        anchored = _protocol_ops(project)
        if anchored is None:
            return
        server = project.module(_SERVER)
        client = project.module(_CLIENT)
        if server is None or client is None:
            return
        env = _module_env(client.tree)
        idempotent = _eval_str_set(env.get("IDEMPOTENT_OPS"), env)
        dispatch = _server_dispatch(server)
        if idempotent is None or dispatch is None:
            return  # ops-surface already reports the structural failure
        _, table = dispatch
        methods: Dict[str, ast.FunctionDef] = {
            node.name: node
            for node in ast.walk(server.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for op in sorted(idempotent):
            handler_name = table.get(op)
            handler = methods.get(handler_name or "")
            if handler is None:
                continue  # dispatch drift is ops-surface's to report
            for node in ast.walk(handler):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (
                    func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name)
                    else None
                )
                if name in _MUTATION_MARKERS:
                    yield self.finding(
                        server, node.lineno,
                        f"op {op!r} is advertised idempotent but its "
                        f"handler {handler_name}() calls {name}()",
                        col=node.col_offset,
                    )


# ---------------------------------------------------------------------------
# rule: docs-drift
# ---------------------------------------------------------------------------

_BACKTICK_WORD = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)`")
_API_BULLET = re.compile(r"^\s*[*-]\s+`([A-Za-z_][A-Za-z0-9_]*)")


def _docstring_ops(protocol: SourceFile) -> Optional[Set[str]]:
    """First tokens of the indented block after ``Operations::``."""
    doc = ast.get_docstring(protocol.tree)
    if doc is None:
        return None
    lines = doc.splitlines()
    ops: Set[str] = set()
    collecting = False
    for line in lines:
        if line.strip() == "Operations::":
            collecting = True
            continue
        if not collecting:
            continue
        if not line.strip():
            if ops:
                break
            continue
        if not line.startswith((" ", "\t")):
            break
        ops.add(line.split()[0])
    return ops or None


def _service_md_ops(text: str) -> Optional[Tuple[int, Set[str]]]:
    """The op column of the SERVICE.md wire-protocol table."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not cells or cells[0].strip("`").lower() != "op":
            continue
        ops: Set[str] = set()
        for row in lines[index + 1:]:
            row = row.strip()
            if not row.startswith("|"):
                break
            first = row.strip("|").split("|")[0].strip()
            if set(first) <= {"-", ":", " "}:
                continue  # the |---| separator row
            match = _BACKTICK_WORD.search(first)
            if match:
                ops.add(match.group(1))
        return index + 1, ops
    return None


def _api_md_client_methods(text: str) -> Optional[Tuple[int, Set[str]]]:
    """Method bullets inside the ``class ServiceClient`` section."""
    lines = text.splitlines()
    start: Optional[int] = None
    for index, line in enumerate(lines):
        if line.startswith("#") and "ServiceClient" in line and (
            "class" in line
        ):
            start = index
            break
    if start is None:
        return None
    methods: Set[str] = set()
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        match = _API_BULLET.match(line)
        if match:
            methods.add(match.group(1))
    return start + 1, methods


class DocsDriftRule(Checker):
    """The operator docs must describe the real op surface: the
    SERVICE.md wire-protocol table, the generated API.md ServiceClient
    section, and the protocol module's own docstring."""

    rule = "docs-drift"
    summary = "documentation drifted from protocol.OPS"
    hint = (
        "update docs/SERVICE.md's op table and the protocol docstring "
        "by hand; regenerate docs/API.md with tools/gen_api_docs.py"
    )
    project = True

    def check_project(self, project: Project) -> Iterator[Finding]:
        anchored = _protocol_ops(project)
        if anchored is None:
            return
        protocol, ops_tuple = anchored
        ops = set(ops_tuple)

        documented = _docstring_ops(protocol)
        if documented is None:
            yield self.finding(
                protocol, 1,
                "protocol docstring has no 'Operations::' block",
            )
        elif documented != ops:
            missing = ops - documented
            extra = documented - ops
            parts = []
            if missing:
                parts.append(f"missing {_sorted(missing)}")
            if extra:
                parts.append(f"stale {_sorted(extra)}")
            yield self.finding(
                protocol, 1,
                "protocol docstring Operations:: block drifted: "
                + "; ".join(parts),
            )

        service_md = project.doc("docs/SERVICE.md")
        if service_md is not None:
            parsed = _service_md_ops(
                service_md.read_text(encoding="utf-8")
            )
            if parsed is None:
                yield self.finding(
                    str(service_md), 1,
                    "no wire-protocol op table found (a markdown table "
                    "whose first column header is 'op')",
                )
            else:
                line, table_ops = parsed
                if table_ops != ops:
                    missing = ops - table_ops
                    extra = table_ops - ops
                    parts = []
                    if missing:
                        parts.append(f"missing {_sorted(missing)}")
                    if extra:
                        parts.append(f"stale {_sorted(extra)}")
                    yield self.finding(
                        str(service_md), line,
                        "SERVICE.md op table drifted from protocol.OPS: "
                        + "; ".join(parts),
                    )

        api_md = project.doc("docs/API.md")
        client = project.module(_CLIENT)
        if api_md is not None and client is not None:
            parsed = _api_md_client_methods(
                api_md.read_text(encoding="utf-8")
            )
            if parsed is None:
                yield self.finding(
                    str(api_md), 1,
                    "no 'class ServiceClient' section found",
                )
            else:
                line, documented_methods = parsed
                wrappers = _client_call_ops(client)
                for op in sorted(ops):
                    methods = wrappers.get(op, [])
                    if not methods:
                        continue  # ops-surface reports the missing wrapper
                    if not any(
                        method in documented_methods for method in methods
                    ):
                        yield self.finding(
                            str(api_md), line,
                            f"ServiceClient section documents no wrapper "
                            f"for op {op!r} (expected one of: "
                            f"{_sorted(methods)})",
                        )


PROJECT_RULES = (
    OpsSurfaceRule(),
    OpsIdempotentRule(),
    DocsDriftRule(),
)
