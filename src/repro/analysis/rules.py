"""Per-file checkers: concurrency, durability, nondeterminism, names.

Each checker encodes one invariant the service's correctness argument
leans on; the rule ids are frozen (tests pin them) so suppressions and
CI configuration never rot when messages are reworded.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set

from repro.analysis.core import Checker, Finding, SourceFile

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _call_name(node: ast.Call) -> Optional[str]:
    """The terminal identifier of a call: ``foo(...)`` / ``x.y.foo(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Every function/method in the module, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_str_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


# ---------------------------------------------------------------------------
# nondeterminism bans
# ---------------------------------------------------------------------------


class NondetHashRule(Checker):
    """The builtin ``hash()`` is salted per process (PYTHONHASHSEED):
    any routing or persistence decision keyed on it scatters across
    restarts.  The whole tree is in scope -- there is no legitimate
    use of ``hash()`` in this codebase outside ``__hash__`` protocol
    plumbing, which does not call the builtin."""

    rule = "nondet-hash"
    summary = "builtin hash() in a routing/persistence path"
    hint = (
        "use zlib.crc32(name.encode('utf-8')) for strings (see "
        "cluster.session_worker) or the int key directly (uid % n)"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield self.finding(
                    source, node.lineno,
                    "builtin hash() is salted per process; any placement "
                    "or key derived from it changes across restarts",
                    col=node.col_offset,
                )


class NondetTimeRule(Checker):
    """``time.time()`` is wall-clock: NTP steps and DST make latency
    intervals measured with it negative or wildly wrong."""

    rule = "nondet-time"
    summary = "time.time() used where an interval/latency is measured"
    hint = (
        "use time.perf_counter() for latencies and time.monotonic() "
        "for deadlines; wall-clock timestamps need an explicit "
        "suppression with a reason"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        bare_time_imported = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "time"
            and any(alias.name == "time" for alias in node.names)
            for node in source.tree.body
        )
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            hit = (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ) or (
                bare_time_imported
                and isinstance(func, ast.Name)
                and func.id == "time"
            )
            if hit:
                yield self.finding(
                    source, node.lineno,
                    "time.time() is wall-clock, not monotonic",
                    col=node.col_offset,
                )


class MutableDefaultRule(Checker):
    """A mutable default argument is shared across every call."""

    rule = "mutable-default"
    summary = "mutable default argument"
    hint = "default to None and build the container inside the function"

    _MUTABLE_CALLS = {
        "list", "dict", "set", "bytearray",
        "OrderedDict", "defaultdict", "Counter", "deque",
    }

    def _is_mutable(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node)
            return name in self._MUTABLE_CALLS
        return False

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for func in _functions(source.tree):
            defaults = list(func.args.defaults)
            defaults.extend(func.args.kw_defaults)
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        source, default.lineno,
                        f"function {func.name!r} has a mutable default "
                        "argument, shared across all calls",
                        col=default.col_offset,
                    )


class BroadExceptRule(Checker):
    """Bare ``except:`` (catches KeyboardInterrupt/SystemExit) and
    ``except Exception`` blocks that silently swallow (body is only
    ``pass``/``continue``/``...``) hide real failures."""

    rule = "broad-except"
    summary = "bare except, or a broad except that swallows silently"
    hint = (
        "catch the narrowest type that can actually occur; a deliberate "
        "broad catch must re-raise, record, or carry a "
        "'# repro: noqa[broad-except] -- reason'"
    )

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, node: Optional[ast.AST]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._BROAD
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(elt) for elt in node.elts)
        return False

    @staticmethod
    def _is_silent(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or ...
            return False
        return True

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    source, node.lineno,
                    "bare 'except:' catches KeyboardInterrupt and "
                    "SystemExit too",
                    col=node.col_offset,
                )
            elif self._is_broad(node.type) and self._is_silent(node.body):
                yield self.finding(
                    source, node.lineno,
                    "broad except silently swallows the failure "
                    "(body is only pass/continue)",
                    col=node.col_offset,
                )


# ---------------------------------------------------------------------------
# lock discipline over the session registry
# ---------------------------------------------------------------------------

#: files hosting lock-guarded shared state
_GUARDED_FILES = {"sessions.py"}

#: attributes of self that are lock-guarded shared state: the session
#: registry's name -> session dict
_SHARED_ROOTS = {"_sessions"}

#: container methods that mutate their receiver
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "discard", "remove",
    "pop", "popitem", "clear", "update", "setdefault", "move_to_end",
}


def _is_lock_expr(node: ast.AST) -> bool:
    """``with <this>:`` counts as acquiring a lock."""
    if isinstance(node, ast.Name):
        return "lock" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "lock" in node.attr.lower()
    if isinstance(node, ast.Call):
        return _is_lock_expr(node.func)
    return False


def _is_exitstack(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and _call_name(node) in {"ExitStack", "contextlib.ExitStack"}
    )


class _LockScan:
    """One function's scan state for :class:`LockDisciplineRule`."""

    def __init__(self, checker: "LockDisciplineRule",
                 source: SourceFile) -> None:
        self.checker = checker
        self.source = source
        self.tainted: Set[str] = set()
        self.findings: List[Finding] = []

    # -- shared-state recognition ---------------------------------------
    def is_shared(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in _SHARED_ROOTS
            ):
                return True
            return self.is_shared(node.value)
        if isinstance(node, ast.Subscript):
            return self.is_shared(node.value)
        return False

    def expr_taints(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return False
        return any(self.is_shared(sub) for sub in ast.walk(node))

    def taint_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.taint_target(elt)
        elif isinstance(target, ast.Starred):
            self.taint_target(target.value)

    # -- mutation detection ----------------------------------------------
    def flag(self, node: ast.AST, what: str) -> None:
        self.findings.append(
            self.checker.finding(
                self.source, node.lineno,
                f"{what} of lock-guarded shared state outside a lock",
                col=getattr(node, "col_offset", 0),
            )
        )

    def check_simple(self, stmt: ast.stmt, locked: bool) -> None:
        """Flag unlocked mutations inside one simple statement."""
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and self.is_shared(target):
                    if not locked:
                        self.flag(target, "write")
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if self.is_shared(target) and not locked:
                    self.flag(target, "deletion")
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and self.is_shared(node.func.value)
                and not locked
            ):
                self.flag(node, f"{node.func.attr}()")

    # -- statement walk ----------------------------------------------------
    def visit_block(self, body: Sequence[ast.stmt], locked: bool) -> None:
        for stmt in body:
            self.visit(stmt, locked)

    def visit(self, stmt: ast.stmt, locked: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are scanned as their own functions
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = locked
            stack_lock = False
            for item in stmt.items:
                if _is_lock_expr(item.context_expr):
                    inner = True
                if _is_exitstack(item.context_expr):
                    # ``stack.enter_context(x.lock)`` in the body holds
                    # the lock until the block ends
                    stack_lock = any(
                        isinstance(node, ast.Call)
                        and _call_name(node) == "enter_context"
                        and any(
                            _is_lock_expr(arg) for arg in node.args
                        )
                        for node in ast.walk(stmt)
                    )
                if self.expr_taints(item.context_expr) and (
                    item.optional_vars is not None
                ):
                    self.taint_target(item.optional_vars)
            self.visit_block(stmt.body, inner or stack_lock)
            return
        if isinstance(stmt, ast.For):
            if self.expr_taints(stmt.iter):
                self.taint_target(stmt.target)
            self.visit_block(stmt.body, locked)
            self.visit_block(stmt.orelse, locked)
            return
        if isinstance(stmt, (ast.While, ast.If)):
            self.visit_block(stmt.body, locked)
            self.visit_block(stmt.orelse, locked)
            return
        if isinstance(stmt, ast.Try):
            self.visit_block(stmt.body, locked)
            for handler in stmt.handlers:
                self.visit_block(handler.body, locked)
            self.visit_block(stmt.orelse, locked)
            self.visit_block(stmt.finalbody, locked)
            return
        # simple statement: taint first (so `x = self._sessions[n]` then
        # a later use of x is tracked), then look for unlocked mutations
        if isinstance(stmt, ast.Assign) and self.expr_taints(stmt.value):
            for target in stmt.targets:
                self.taint_target(target)
        if isinstance(stmt, ast.AnnAssign) and self.expr_taints(stmt.value):
            self.taint_target(stmt.target)
        self.check_simple(stmt, locked)


class LockDisciplineRule(Checker):
    """In ``sessions.py``, every mutation of the session registry's
    dict (``self._sessions``, and anything taken out of it) must happen
    under a ``with <lock>`` block.  ``__init__`` is exempt:
    construction happens-before publication."""

    rule = "lock-discipline"
    summary = "mutation of lock-guarded shared state outside its lock"
    hint = "wrap the mutation in 'with self._lock:'"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.name not in _GUARDED_FILES:
            return
        for func in _functions(source.tree):
            if func.name == "__init__":
                continue
            scan = _LockScan(self, source)
            scan.visit_block(func.body, locked=False)
            yield from scan.findings


# ---------------------------------------------------------------------------
# durability: fsync before ack
# ---------------------------------------------------------------------------

_DURABLE_FILES = {"wal.py"}

#: calls that put bytes into a file the durability story depends on
_WRITE_ATTRS = {"write", "writelines", "write_text"}

#: calls that make those bytes survive power loss
_SYNC_NAMES = {"fsync", "fsync_file", "fsync_dir"}


class DurabilityFsyncRule(Checker):
    """In the durability modules, a function that writes to a handle
    must also fsync (directly or via the ``fsync_file``/``fsync_dir``
    helpers) before it can possibly acknowledge -- a flush alone only
    survives process death, not power loss."""

    rule = "durability-fsync"
    summary = "durable write without an fsync in the same function"
    hint = (
        "fsync the handle (os.fsync) or the staged file/directory "
        "(fsync_file/fsync_dir) before returning; if a caller owns "
        "the fsync, say so in a noqa reason"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.name not in _DURABLE_FILES:
            return
        for func in _functions(source.tree):
            first_write: Optional[ast.Call] = None
            synced = False
            for node in _own_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                if name in _SYNC_NAMES:
                    synced = True
                is_write = (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _WRITE_ATTRS
                ) or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dump"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"
                )
                if is_write and first_write is None:
                    first_write = node
            if first_write is not None and not synced:
                yield self.finding(
                    source, first_write.lineno,
                    f"{func.name}() writes to a durable file but never "
                    "fsyncs it",
                    col=first_write.col_offset,
                )


# ---------------------------------------------------------------------------
# metric & span name registry
# ---------------------------------------------------------------------------


class MetricNamesRule(Checker):
    """Series names, span names, and the ``stage`` label (which doubles
    as a span name) must be constants imported from
    :mod:`repro.obs.names`, never inline string literals -- a typo'd
    literal mints a bogus series that dashboards watch forever."""

    rule = "metric-names"
    summary = "inline metric/span name literal (use repro.obs.names)"
    hint = (
        "import the constant from repro.obs.names (add it there if the "
        "series is genuinely new)"
    )

    _INSTRUMENT_ATTRS = {"histogram", "counter"}
    _SPAN_ATTRS = {"add_span"}

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.path.as_posix().endswith("repro/obs/names.py"):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in self._INSTRUMENT_ATTRS:
                if node.args and _is_str_constant(node.args[0]):
                    yield self.finding(
                        source, node.lineno,
                        f"series name {node.args[0].value!r} is an inline "
                        f"literal at a {func.attr}() call site",
                        col=node.col_offset,
                    )
                for keyword in node.keywords:
                    if keyword.arg == "stage" and _is_str_constant(
                        keyword.value
                    ):
                        yield self.finding(
                            source, node.lineno,
                            f"stage label {keyword.value.value!r} is an "
                            "inline literal (stage values double as span "
                            "names)",
                            col=node.col_offset,
                        )
            elif func.attr in self._SPAN_ATTRS:
                if node.args and _is_str_constant(node.args[0]):
                    yield self.finding(
                        source, node.lineno,
                        f"span name {node.args[0].value!r} is an inline "
                        "literal at an add_span() call site",
                        col=node.col_offset,
                    )


# ---------------------------------------------------------------------------
# failpoint name registry
# ---------------------------------------------------------------------------


class FailpointNamesRule(Checker):
    """Every ``FAILPOINTS.hit(...)`` site must pass a string literal
    from the frozen :data:`repro.faults.FAILPOINT_NAMES` catalog -- a
    computed or unregistered name is a crash point the failpoint test
    matrix can never arm, so it silently escapes the crash sweep."""

    rule = "failpoint-names"
    summary = "FAILPOINTS.hit name not in the frozen catalog"
    hint = (
        "pass a string literal registered in "
        "repro.faults.FAILPOINT_NAMES (add it there first; the "
        "failpoint matrix in tests/test_faults.py sweeps that table)"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        from repro.faults import FAILPOINT_NAMES

        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "hit"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "FAILPOINTS"
            ):
                continue
            if not node.args or not _is_str_constant(node.args[0]):
                yield self.finding(
                    source, node.lineno,
                    "FAILPOINTS.hit() with a non-literal name; the "
                    "crash matrix cannot enumerate it",
                    col=node.col_offset,
                )
                continue
            name = node.args[0].value
            if name not in FAILPOINT_NAMES:
                yield self.finding(
                    source, node.lineno,
                    f"failpoint {name!r} is not registered in "
                    "repro.faults.FAILPOINT_NAMES",
                    col=node.col_offset,
                )


FILE_RULES = (
    LockDisciplineRule(),
    DurabilityFsyncRule(),
    NondetHashRule(),
    NondetTimeRule(),
    MutableDefaultRule(),
    BroadExceptRule(),
    MetricNamesRule(),
    FailpointNamesRule(),
)
