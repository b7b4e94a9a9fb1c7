"""Interprocedural flow analysis: call graph + locks-held dataflow.

The per-file rules in :mod:`repro.analysis.rules` see one function at
a time, but the service's scariest failure modes are interprocedural:
a session lock held in ``sessions.py`` while a callee in ``wal.py``
blocks on ``os.fsync``, or a lock-acquisition cycle spanning modules.
This module builds, from a :class:`repro.analysis.core.Project` and
stdlib ``ast`` alone:

* a **call graph** -- ``self.method`` resolved through a light type
  inference (parameter/attribute/return annotations, constructor
  assignments, container element types), module-level functions,
  cross-module ``repro.*`` imports, callback registrations
  (``obj.hook = self._impl`` makes ``obj.hook(...)`` call ``_impl``),
  and an explicit **may-call over-approximation** for anything left:
  an unresolved ``recv.name(...)`` may call every project function
  named ``name`` (or ``_name``);
* a **locks-held-at-point dataflow** -- ``with <lock>:`` contexts
  (and ``ExitStack.enter_context(<lock>)``) are tracked lexically and
  propagated through the call graph to a fixpoint, so every function
  knows which lock *tokens* may be held on entry, with a witness call
  path for each;
* the **lock-acquisition-order graph** -- an edge ``A -> B`` whenever
  ``B`` is acquired while ``A`` may be held -- plus its cycles, and
  the set of **blocking calls** (fsync / socket / subprocess / sleep /
  join) annotated with the locks held around them.

Lock *tokens* name the lock by owning class and attribute
(``Session.lock``, ``SessionManager._lock``, ``WriteAheadLog.lock``);
a lock pulled out of a collection (``self._locks[i]``) keeps the
collection's identity.  Two acquisitions of the same token are assumed
to be *potentially* the same (or sibling) lock -- exactly the
over-approximation a deadlock check wants.

Everything here is an over-approximation by design: the rules built
on top (:mod:`repro.analysis.flow_rules`) must never crash on dynamic
dispatch they cannot resolve, and a missed edge is worse than a
spurious one that a suppression can document.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Project, SourceFile

__all__ = [
    "BlockingCall",
    "CallSite",
    "ClassInfo",
    "FlowAnalysis",
    "FunctionInfo",
    "LockAcquisition",
    "LockEdge",
    "flow_for",
]

#: sentinel: a receiver/type that is definitely *not* a project class
#: (builtin, stdlib, literal) -- calls through it get no edges at all
EXTERNAL = "<external>"

#: builtins and typing names that resolve straight to EXTERNAL
_EXTERNAL_NAMES = frozenset({
    "int", "float", "str", "bytes", "bytearray", "bool", "object",
    "dict", "list", "set", "frozenset", "tuple", "type", "bytes",
    "Exception", "BaseException", "ValueError", "TypeError",
    "KeyError", "OSError", "RuntimeError", "StopIteration",
    "Any", "Callable", "Optional", "Union", "None",
})

#: builtin callables whose results we either know or ignore
_EXTERNAL_CALLS = frozenset({
    "open", "print", "len", "sorted", "min", "max", "sum", "abs",
    "range", "enumerate", "zip", "map", "filter", "repr", "str",
    "int", "float", "bool", "bytes", "list", "dict", "set", "tuple",
    "frozenset", "isinstance", "issubclass", "getattr", "setattr",
    "hasattr", "iter", "next", "vars", "dir", "id", "hash", "divmod",
    "round", "format", "any", "all", "reversed", "super",
})

#: subscripted annotation heads treated as containers of their value type
_CONTAINER_HEADS = frozenset({
    "List", "Sequence", "Iterable", "Iterator", "MutableSequence",
    "Set", "FrozenSet", "MutableSet", "Deque", "deque",
    "OrderedDict", "defaultdict", "Counter",
    "Dict", "Mapping", "MutableMapping",
})

#: container methods that hand back an *element* of the container
_ELEM_METHODS = frozenset({"get", "pop", "setdefault"})

#: blocking-call terminal names that need no receiver heuristics
_BLOCKING_SIMPLE = {
    "fsync": "fsync",
    "fsync_file": "fsync",
    "fsync_dir": "fsync",
    "sleep": "sleep",
    "create_connection": "socket",
    "create_server": "socket",
    "accept": "socket",
    "recv": "socket",
    "recvfrom": "socket",
    "recv_into": "socket",
    "sendall": "socket",
    "connect": "socket",
    "select": "socket",
}

#: subprocess entry points (require the ``subprocess.`` root)
_BLOCKING_SUBPROCESS = frozenset({
    "run", "call", "check_call", "check_output", "Popen",
})

#: receiver name hints that make ``.join()`` / ``.wait()`` a thread op
_THREADISH = frozenset({
    "process", "thread", "proc", "worker", "child",
})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class _Container:
    """A container whose *elements* have the given type."""

    elem: object  # ClassInfo | EXTERNAL | None


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qual: str             # "module.Class.method" / "module.func"
    name: str
    module: "_ModuleIndex"
    source: SourceFile
    node: ast.AST         # FunctionDef | AsyncFunctionDef
    cls: Optional["ClassInfo"] = None
    return_type: object = None  # resolved lazily

    @property
    def label(self) -> str:
        """Short display name: last module component + qualname."""
        tail = self.qual.split(".")
        keep = 3 if self.cls is not None else 2
        return ".".join(tail[-keep:])


@dataclass
class ClassInfo:
    """One class: its methods, attribute types, and bases."""

    name: str
    qual: str
    module: "_ModuleIndex"
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_annotations: Dict[str, ast.AST] = field(default_factory=dict)
    attr_types: Dict[str, object] = field(default_factory=dict)
    bases: List["ClassInfo"] = field(default_factory=list)
    base_names: List[str] = field(default_factory=list)

    def method(self, name: str) -> Optional[FunctionInfo]:
        """Resolve ``name`` through this class then its project bases."""
        seen: Set[str] = set()
        stack: List[ClassInfo] = [self]
        while stack:
            cls = stack.pop(0)
            if cls.qual in seen:
                continue
            seen.add(cls.qual)
            if name in cls.methods:
                return cls.methods[name]
            stack.extend(cls.bases)
        return None

    def attr_type(self, name: str) -> object:
        seen: Set[str] = set()
        stack: List[ClassInfo] = [self]
        while stack:
            cls = stack.pop(0)
            if cls.qual in seen:
                continue
            seen.add(cls.qual)
            if name in cls.attr_types:
                return cls.attr_types[name]
            stack.extend(cls.bases)
        return None


class _ModuleIndex:
    """One parsed module: functions, classes, imports, module vars."""

    def __init__(self, name: str, source: SourceFile) -> None:
        self.name = name
        self.source = source
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: ``import x.y as z`` -> {"z": "x.y"}
        self.imports: Dict[str, str] = {}
        #: ``from x import y as w`` -> {"w": ("x", "y")}
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        #: module-level variable types (resolved lazily)
        self.var_types: Dict[str, object] = {}
        self.var_values: Dict[str, ast.AST] = {}


#: a call-path hop: (function qual, line of the call site)
Hop = Tuple[str, int]


@dataclass
class CallSite:
    """One call expression, with resolution and locks held around it."""

    caller: str
    line: int
    dotted: Optional[str]
    targets: Tuple[str, ...]   # callee quals (empty for external calls)
    kind: str                  # "direct" | "hook" | "may" | "external"
    held: Tuple[str, ...]      # lock tokens held lexically at the site


@dataclass
class LockAcquisition:
    """One ``with <lock>:`` (or ``enter_context(<lock>)``) site."""

    function: str
    token: str
    line: int
    held: Tuple[str, ...]      # tokens already held lexically


@dataclass
class BlockingCall:
    """One fsync/socket/subprocess/sleep/join call site."""

    function: str
    line: int
    dotted: str
    reason: str                # "fsync" | "socket" | "subprocess" | ...
    held: Tuple[str, ...]      # tokens held lexically at the site


@dataclass
class LockEdge:
    """``acquired`` taken while ``held`` may be held; one witness path."""

    held: str
    acquired: str
    function: str              # function containing the acquisition
    line: int
    witness: Tuple[Hop, ...]   # call path establishing ``held``


class FlowAnalysis:
    """The project-wide call graph plus the locks-held dataflow."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.modules: Dict[str, _ModuleIndex] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: every function sharing a bare name (for may-call matching)
        self._by_name: Dict[str, List[FunctionInfo]] = {}
        #: class qual -> direct project subclasses (for CHA dispatch)
        self._subclasses: Dict[str, List[ClassInfo]] = {}
        #: ``obj.attr = self._impl`` registrations: attr -> impl quals
        self.callbacks: Dict[str, List[str]] = {}
        self.call_sites: Dict[str, List[CallSite]] = {}
        self.acquisitions: Dict[str, List[LockAcquisition]] = {}
        self.blocking: Dict[str, List[BlockingCall]] = {}
        #: fixpoint result: function -> {token: witness path}
        self.entry_held: Dict[str, Dict[str, Tuple[Hop, ...]]] = {}
        self.lock_edges: List[LockEdge] = []
        self._build()

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    @staticmethod
    def _module_name(source: SourceFile) -> str:
        posix = source.path.as_posix()
        parts = posix.split("/")
        if "repro" in parts:
            parts = parts[parts.index("repro"):]
        else:
            parts = parts[-1:]
        parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
        if parts[-1] == "__init__":
            parts = parts[:-1] or ["__init__"]
        return ".".join(parts)

    def _index_module(self, source: SourceFile) -> None:
        name = self._module_name(source)
        module = _ModuleIndex(name, source)
        # last one wins on collisions (fixture trees with repeated stems)
        self.modules[name] = module
        for stmt in source.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    module.imports[alias.asname or
                                   alias.name.split(".")[0]] = alias.name
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                for alias in stmt.names:
                    module.from_imports[alias.asname or alias.name] = (
                        stmt.module, alias.name
                    )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, cls=None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(module, stmt)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    module.var_values[target.id] = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    module.var_values.setdefault(
                        stmt.target.id, stmt.annotation
                    )

    def _add_function(self, module: _ModuleIndex, node: ast.AST,
                      cls: Optional[ClassInfo]) -> FunctionInfo:
        if cls is not None:
            qual = f"{module.name}.{cls.name}.{node.name}"
        else:
            qual = f"{module.name}.{node.name}"
        info = FunctionInfo(qual=qual, name=node.name, module=module,
                            source=module.source, node=node, cls=cls)
        self.functions[qual] = info
        self._by_name.setdefault(node.name, []).append(info)
        if cls is not None:
            cls.methods[node.name] = info
        else:
            module.functions[node.name] = info
        # nested defs are indexed too (reachable via may-call by name),
        # but analysed with an empty entry context of their own
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested_qual = f"{qual}.{child.name}"
                if nested_qual not in self.functions:
                    nested = FunctionInfo(
                        qual=nested_qual, name=child.name, module=module,
                        source=module.source, node=child, cls=cls,
                    )
                    self.functions[nested_qual] = nested
                    self._by_name.setdefault(child.name, []).append(nested)
        return info

    def _index_class(self, module: _ModuleIndex, node: ast.ClassDef) -> None:
        cls = ClassInfo(name=node.name, qual=f"{module.name}.{node.name}",
                        module=module, node=node)
        cls.base_names = [b for b in
                          (_dotted(base) for base in node.bases) if b]
        module.classes[node.name] = cls
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, cls=cls)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                cls.attr_annotations[stmt.target.id] = stmt.annotation

    # ------------------------------------------------------------------
    # name / type resolution
    # ------------------------------------------------------------------
    def _lookup_module(self, dotted: str) -> Optional[_ModuleIndex]:
        if dotted in self.modules:
            return self.modules[dotted]
        # ``repro.service.wal`` indexed, import said ``service.wal`` --
        # or a fixture tree importing bare stems
        for name, module in self.modules.items():
            if name.endswith("." + dotted):
                return module
        tail = dotted.split(".")[-1]
        for name, module in self.modules.items():
            if name.split(".")[-1] == tail:
                return module
        return None

    def _lookup_class(self, name: str,
                      module: _ModuleIndex) -> Optional[ClassInfo]:
        if name in module.classes:
            return module.classes[name]
        entry = module.from_imports.get(name)
        if entry is not None:
            target = self._lookup_module(entry[0])
            if target is not None:
                return target.classes.get(entry[1])
        return None

    def _resolve_annotation(self, node: Optional[ast.AST],
                            module: _ModuleIndex) -> object:
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Name):
            if node.id in _EXTERNAL_NAMES:
                return EXTERNAL
            cls = self._lookup_class(node.id, module)
            if cls is not None:
                return cls
            return None
        if isinstance(node, ast.Attribute):
            # threading.Lock, socket.socket, pathlib.Path... -- if the
            # chain resolves to a project class keep it, else external
            dotted = _dotted(node)
            if dotted is not None:
                root = dotted.split(".")[0]
                target = module.imports.get(root)
                if target is not None:
                    owner = self._lookup_module(target)
                    if owner is not None:
                        return owner.classes.get(dotted.split(".")[-1])
            return EXTERNAL
        if isinstance(node, ast.Subscript):
            head = _dotted(node.value)
            if head is None:
                return None
            head = head.split(".")[-1]
            inner = node.slice
            if isinstance(inner, ast.Index):  # pragma: no cover - py38
                inner = inner.value
            if head == "Optional":
                return self._resolve_annotation(inner, module)
            if head == "Union":
                return None
            if head in _CONTAINER_HEADS:
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[-1]  # Dict[K, V] -> V
                return _Container(self._resolve_annotation(inner, module))
            if head == "Tuple":
                return EXTERNAL
            return None
        return None

    def _value_type(self, node: ast.AST, env: Dict[str, object],
                    func: FunctionInfo) -> object:
        """The (approximate) type of an expression, or None/EXTERNAL."""
        module = func.module
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in module.var_types:
                return module.var_types[node.id]
            value = module.var_values.get(node.id)
            if value is not None:
                # resolve module-level vars on demand (memoised; a
                # placeholder breaks self-referential cycles)
                module.var_types[node.id] = None
                module.var_types[node.id] = self._value_type(
                    value, {}, func)
                return module.var_types[node.id]
            return None
        if isinstance(node, ast.Attribute):
            base = self._value_type(node.value, env, func)
            if isinstance(base, ClassInfo):
                annotation = None
                seen: Set[str] = set()
                stack = [base]
                while stack:
                    cls = stack.pop(0)
                    if cls.qual in seen:
                        continue
                    seen.add(cls.qual)
                    if node.attr in cls.attr_types:
                        return cls.attr_types[node.attr]
                    if node.attr in cls.attr_annotations:
                        annotation = (cls.attr_annotations[node.attr],
                                      cls.module)
                        break
                    stack.extend(cls.bases)
                if annotation is not None:
                    resolved = self._resolve_annotation(*annotation)
                    base.attr_types[node.attr] = resolved
                    return resolved
                return self._infer_attr(base, node.attr)
            if base is EXTERNAL or isinstance(base, _Container):
                return EXTERNAL
            return None
        if isinstance(node, ast.Subscript):
            base = self._value_type(node.value, env, func)
            if isinstance(base, _Container):
                return base.elem
            return None
        if isinstance(node, (ast.List, ast.Set, ast.ListComp,
                             ast.SetComp, ast.GeneratorExp)):
            elem: ast.AST
            if isinstance(node, (ast.List, ast.Set)):
                elem = node.elts[0] if node.elts else None
            else:
                elem = node.elt
            if elem is None:
                return _Container(EXTERNAL)
            return _Container(self._value_type(elem, env, func))
        if isinstance(node, (ast.Dict, ast.DictComp)):
            if isinstance(node, ast.Dict):
                elem = node.values[0] if node.values else None
            else:
                elem = node.value
            if elem is None:
                return _Container(EXTERNAL)
            return _Container(self._value_type(elem, env, func))
        if isinstance(node, (ast.Constant, ast.JoinedStr, ast.Tuple,
                             ast.Compare, ast.BoolOp, ast.BinOp,
                             ast.UnaryOp)):
            return EXTERNAL
        if isinstance(node, ast.Call):
            return self._call_result_type(node, env, func)
        if isinstance(node, ast.IfExp):
            then = self._value_type(node.body, env, func)
            if then is not None:
                return then
            return self._value_type(node.orelse, env, func)
        if isinstance(node, ast.Await):
            return self._value_type(node.value, env, func)
        return None

    def _param_env(self, func: FunctionInfo) -> Dict[str, object]:
        """Just the parameter-annotation bindings (plus ``self``)."""
        env: Dict[str, object] = {}
        node = func.node
        if func.cls is not None:
            decorators = {_dotted(d) for d in node.decorator_list}
            if "staticmethod" not in decorators:
                env["self"] = func.cls
        args = list(getattr(node.args, "posonlyargs", [])) + \
            node.args.args + node.args.kwonlyargs
        for arg in args:
            if arg.annotation is not None:
                resolved = self._resolve_annotation(
                    arg.annotation, func.module)
                if resolved is not None:
                    env[arg.arg] = resolved
        return env

    def _infer_attr(self, cls: ClassInfo, attr: str) -> object:
        """Infer ``self.attr``'s type from assignments in method bodies.

        Scans ``__init__`` first, then the other methods, for
        ``self.attr = value`` / ``self.attr: T = ...`` and types the
        right-hand side under a parameters-only environment.  A project
        class or container wins outright; any resolvable non-project
        value degrades to EXTERNAL (which *suppresses* the may-call
        fan-out -- ``self._sock.close()`` must not edge to every
        project ``close``).  Memoised on the class, with a placeholder
        to break self-referential constructors; project base classes
        are consulted when the class itself never assigns the attr.
        """
        if attr in cls.attr_types:
            return cls.attr_types[attr]
        cls.attr_types[attr] = None
        wanted = f"self.{attr}"
        best: object = None
        methods = sorted(cls.methods.values(),
                         key=lambda m: m.name != "__init__")
        for method in methods:
            env = self._param_env(method)
            for child in self._own_nodes(method.node):
                candidate: object = None
                if isinstance(child, ast.AnnAssign) and isinstance(
                        child.target, ast.Attribute):
                    if _dotted(child.target) == wanted:
                        candidate = self._resolve_annotation(
                            child.annotation, method.module)
                elif isinstance(child, ast.Assign) and \
                        len(child.targets) == 1 and isinstance(
                            child.targets[0], ast.Attribute):
                    if _dotted(child.targets[0]) == wanted:
                        candidate = self._value_type(
                            child.value, env, method)
                if isinstance(candidate, (ClassInfo, _Container)):
                    cls.attr_types[attr] = candidate
                    return candidate
                if candidate is EXTERNAL:
                    best = EXTERNAL
        if best is None:
            for base in cls.bases:
                inherited = self._infer_attr(base, attr)
                if inherited is not None:
                    best = inherited
                    break
        cls.attr_types[attr] = best
        return best

    def _call_result_type(self, node: ast.Call, env: Dict[str, object],
                          func: FunctionInfo) -> object:
        f = node.func
        if isinstance(f, ast.Name):
            if f.id == "super" and func.cls is not None and func.cls.bases:
                return func.cls.bases[0]
            cls = self._lookup_class(f.id, func.module)
            if cls is not None:
                return cls
            target = self._function_named(f.id, func.module)
            if target is not None:
                return self._return_type(target)
            if f.id in _EXTERNAL_CALLS:
                return EXTERNAL
            return None
        if isinstance(f, ast.Attribute):
            base = self._value_type(f.value, env, func)
            if isinstance(base, _Container) and f.attr in _ELEM_METHODS:
                return base.elem
            if isinstance(base, ClassInfo):
                method = base.method(f.attr)
                if method is not None:
                    return self._return_type(method)
                return None
            if base is EXTERNAL:
                return EXTERNAL
            dotted = _dotted(f)
            if dotted is not None:
                owner = self._module_for_root(dotted, func.module)
                if owner is EXTERNAL:
                    return EXTERNAL
                if isinstance(owner, _ModuleIndex):
                    target = owner.functions.get(dotted.split(".")[-1])
                    if target is not None:
                        return self._return_type(target)
                    cls = owner.classes.get(dotted.split(".")[-1])
                    if cls is not None:
                        return cls
            return None
        return None

    def _return_type(self, target: FunctionInfo) -> object:
        if target.return_type is None:
            returns = getattr(target.node, "returns", None)
            if returns is None:
                return None
            resolved = self._resolve_annotation(returns, target.module)
            target.return_type = resolved if resolved is not None \
                else EXTERNAL
        return target.return_type

    def _function_named(self, name: str,
                        module: _ModuleIndex) -> Optional[FunctionInfo]:
        if name in module.functions:
            return module.functions[name]
        entry = module.from_imports.get(name)
        if entry is not None:
            owner = self._lookup_module(entry[0])
            if owner is not None:
                return owner.functions.get(entry[1])
        return None

    def _module_for_root(self, dotted: str, module: _ModuleIndex):
        """The module a dotted call roots in: project, EXTERNAL or None."""
        root = dotted.split(".")[0]
        target = module.imports.get(root)
        if target is None:
            return None
        owner = self._lookup_module(target)
        if owner is not None:
            return owner
        return EXTERNAL

    def _transitive_subclasses(self, cls: ClassInfo
                               ) -> Iterable[ClassInfo]:
        seen: Set[str] = set()
        stack = list(self._subclasses.get(cls.qual, ()))
        while stack:
            sub = stack.pop()
            if sub.qual in seen:
                continue
            seen.add(sub.qual)
            yield sub
            stack.extend(self._subclasses.get(sub.qual, ()))

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def _resolve_call(self, node: ast.Call, env: Dict[str, object],
                      func: FunctionInfo) -> Tuple[Tuple[str, ...], str]:
        f = node.func
        if isinstance(f, ast.Name):
            if f.id in env and env[f.id] is EXTERNAL:
                return (), "external"
            cls = self._lookup_class(f.id, func.module)
            if cls is not None:
                init = cls.method("__init__")
                return ((init.qual,) if init is not None else (),
                        "direct")
            target = self._function_named(f.id, func.module)
            if target is not None:
                return (target.qual,), "direct"
            if f.id in _EXTERNAL_CALLS or f.id in _EXTERNAL_NAMES:
                return (), "external"
            # unresolved bare name: over-approximate to every
            # module-level project function with the same name
            may = tuple(info.qual for info in self._by_name.get(f.id, ())
                        if info.cls is None)
            return may, ("may" if may else "external")
        if isinstance(f, ast.Attribute):
            hooks = tuple(self.callbacks.get(f.attr, ()))
            base = self._value_type(f.value, env, func)
            if isinstance(base, ClassInfo):
                method = base.method(f.attr)
                if method is not None:
                    # CHA: the resolved method plus every override in
                    # the receiver type's project subclasses -- sound
                    # for polymorphic calls through an abstract base,
                    # far tighter than a name-wide may-call
                    targets = [method.qual]
                    for sub in self._transitive_subclasses(base):
                        override = sub.methods.get(f.attr)
                        if override is not None and \
                                override.qual not in targets:
                            targets.append(override.qual)
                    return tuple(targets), "direct"
                if hooks:
                    return hooks, "hook"
            if isinstance(base, _Container) or base is EXTERNAL:
                return (), "external"
            dotted = _dotted(f)
            if dotted is not None and "." in dotted:
                owner = self._module_for_root(dotted, func.module)
                if owner is EXTERNAL:
                    return (), "external"
                if isinstance(owner, _ModuleIndex):
                    tail = dotted.split(".")[-1]
                    target = owner.functions.get(tail)
                    if target is not None:
                        return (target.qual,), "direct"
                    cls = owner.classes.get(tail)
                    if cls is not None:
                        init = cls.method("__init__")
                        return ((init.qual,) if init is not None else (),
                                "direct")
                    return (), "external"
            if hooks:
                return hooks, "hook"
            # the explicit may-call over-approximation: any project
            # function (or ``_``-prefixed implementation) of that name
            may = tuple(info.qual
                        for name in (f.attr, "_" + f.attr)
                        for info in self._by_name.get(name, ()))
            return may, ("may" if may else "external")
        # calls of calls / subscripts: nothing to resolve
        return (), "external"

    # ------------------------------------------------------------------
    # lock tokens
    # ------------------------------------------------------------------
    @staticmethod
    def _is_lock_expr(node: ast.AST) -> bool:
        dotted = _dotted(node)
        if dotted is None:
            return False
        last = dotted.split(".")[-1]
        return "lock" in last.lower() and "handle" not in last.lower()

    def _lock_token(self, node: ast.AST, env: Dict[str, object],
                    origins: Dict[str, str],
                    func: FunctionInfo) -> Optional[str]:
        if isinstance(node, ast.Subscript):
            # self._locks[i]: the collection is the identity
            inner = self._lock_token(node.value, env, origins, func)
            return inner
        dotted = _dotted(node)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and func.cls is not None:
            return ".".join([func.cls.name] + parts[1:])
        if parts[0] in origins and len(parts) == 1:
            return origins[parts[0]]
        base = env.get(parts[0])
        if isinstance(base, ClassInfo) and len(parts) > 1:
            return ".".join([base.name] + parts[1:])
        return dotted

    # ------------------------------------------------------------------
    # per-function walk
    # ------------------------------------------------------------------
    def _build_env(self, func: FunctionInfo
                   ) -> Tuple[Dict[str, object], Dict[str, str]]:
        env = self._param_env(func)
        origins: Dict[str, str] = {}
        node = func.node
        for child in self._own_nodes(node):
            if isinstance(child, ast.AnnAssign) and isinstance(
                    child.target, ast.Name):
                resolved = self._resolve_annotation(
                    child.annotation, func.module)
                if resolved is not None:
                    env[child.target.id] = resolved
            elif isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                if isinstance(target, ast.Name):
                    resolved = self._value_type(child.value, env, func)
                    if resolved is not None and target.id not in env:
                        env[target.id] = resolved
                    origin = self._collection_origin(child.value, func)
                    if origin is not None:
                        origins[target.id] = origin
            elif isinstance(child, ast.For):
                self._for_target_env(child, env, origins, func)
        return env, origins

    def _collection_origin(self, value: ast.AST,
                           func: FunctionInfo) -> Optional[str]:
        """``x = self._locks[i]`` -> ``Class._locks`` (identity)."""
        if isinstance(value, ast.Subscript):
            dotted = _dotted(value.value)
            if dotted and dotted.startswith("self.") and \
                    func.cls is not None:
                return f"{func.cls.name}.{dotted[5:]}"
        return None

    def _for_target_env(self, node: ast.For, env: Dict[str, object],
                        origins: Dict[str, str],
                        func: FunctionInfo) -> None:
        """Infer loop-target types/origins from the iterated value."""
        def origin_of(value: ast.AST) -> Optional[str]:
            if isinstance(value, ast.Call):
                return None
            dotted = _dotted(value)
            if dotted and dotted.startswith("self.") and \
                    func.cls is not None:
                return f"{func.cls.name}.{dotted[5:]}"
            return None

        iters: List[ast.AST]
        targets: List[ast.AST]
        if isinstance(node.iter, ast.Call) and \
                isinstance(node.iter.func, ast.Name) and \
                node.iter.func.id == "zip" and \
                isinstance(node.target, ast.Tuple):
            iters = list(node.iter.args)
            targets = list(node.target.elts)
        else:
            iters = [node.iter]
            targets = [node.target]
        for target, source in zip(targets, iters):
            if not isinstance(target, ast.Name):
                continue
            value = self._value_type(source, env, func)
            if isinstance(value, _Container) and value.elem is not None \
                    and target.id not in env:
                env[target.id] = value.elem
            origin = origin_of(source)
            if origin is not None:
                origins.setdefault(target.id, origin)

    @staticmethod
    def _own_nodes(func_node: ast.AST) -> Iterable[ast.AST]:
        """Walk a function without descending into nested defs."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _collect_callbacks(self) -> None:
        for func in list(self.functions.values()):
            for node in self._own_nodes(func.node):
                if not isinstance(node, ast.Assign) or \
                        len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Attribute):
                    continue
                value = _dotted(node.value)
                if value is None:
                    continue
                impl: Optional[FunctionInfo] = None
                if value.startswith("self.") and func.cls is not None:
                    impl = func.cls.method(value[5:])
                elif "." not in value:
                    impl = self._function_named(value, func.module)
                if impl is not None:
                    bucket = self.callbacks.setdefault(target.attr, [])
                    if impl.qual not in bucket:
                        bucket.append(impl.qual)

    def _walk_function(self, func: FunctionInfo) -> None:
        env, origins = self._build_env(func)
        sites: List[CallSite] = []
        acquisitions: List[LockAcquisition] = []
        blocking: List[BlockingCall] = []
        sticky: List[str] = []  # enter_context acquisitions never release

        def held_now(held: Tuple[str, ...]) -> Tuple[str, ...]:
            merged = list(held)
            for token in sticky:
                if token not in merged:
                    merged.append(token)
            return tuple(merged)

        def visit_calls(node: ast.AST, held: Tuple[str, ...]) -> None:
            for child in self._expr_nodes(node):
                if isinstance(child, ast.Call):
                    self._record_call(child, func, env, origins,
                                      held_now(held), sites,
                                      acquisitions, blocking, sticky)

        def walk(stmts: Sequence[ast.stmt], held: Tuple[str, ...]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    tokens: List[str] = []
                    for item in stmt.items:
                        expr = item.context_expr
                        visit_calls(expr, held + tuple(tokens))
                        if self._is_lock_expr(expr):
                            token = self._lock_token(
                                expr, env, origins, func)
                            if token is not None:
                                acquisitions.append(LockAcquisition(
                                    function=func.qual, token=token,
                                    line=expr.lineno,
                                    held=held_now(held + tuple(tokens)),
                                ))
                                tokens.append(token)
                    walk(stmt.body, held + tuple(tokens))
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    visit_calls(stmt.iter, held)
                    walk(stmt.body, held)
                    walk(stmt.orelse, held)
                elif isinstance(stmt, ast.While):
                    visit_calls(stmt.test, held)
                    walk(stmt.body, held)
                    walk(stmt.orelse, held)
                elif isinstance(stmt, ast.If):
                    visit_calls(stmt.test, held)
                    walk(stmt.body, held)
                    walk(stmt.orelse, held)
                elif isinstance(stmt, ast.Try):
                    walk(stmt.body, held)
                    for handler in stmt.handlers:
                        walk(handler.body, held)
                    walk(stmt.orelse, held)
                    walk(stmt.finalbody, held)
                else:
                    visit_calls(stmt, held)

        walk(func.node.body, ())
        self.call_sites[func.qual] = sites
        self.acquisitions[func.qual] = acquisitions
        self.blocking[func.qual] = blocking

    @staticmethod
    def _expr_nodes(node: ast.AST) -> Iterable[ast.AST]:
        """All expression nodes, skipping nested function bodies."""
        stack = [node]
        while stack:
            item = stack.pop()
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            yield item
            stack.extend(ast.iter_child_nodes(item))

    def _record_call(self, node: ast.Call, func: FunctionInfo,
                     env: Dict[str, object], origins: Dict[str, str],
                     held: Tuple[str, ...],
                     sites: List[CallSite],
                     acquisitions: List[LockAcquisition],
                     blocking: List[BlockingCall],
                     sticky: List[str]) -> None:
        dotted = _dotted(node.func)
        # ExitStack.enter_context(<lock>): an acquisition that is held
        # for the rest of the function (conservatively)
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr == "enter_context" and node.args:
            arg = node.args[0]
            if self._is_lock_expr(arg):
                token = self._lock_token(arg, env, origins, func)
                if token is not None:
                    acquisitions.append(LockAcquisition(
                        function=func.qual, token=token,
                        line=node.lineno, held=held,
                    ))
                    if token not in sticky:
                        sticky.append(token)
                return
        reason = self._blocking_reason(node, dotted, env, func)
        if reason is not None:
            blocking.append(BlockingCall(
                function=func.qual, line=node.lineno,
                dotted=dotted or "<call>", reason=reason, held=held,
            ))
        targets, kind = self._resolve_call(node, env, func)
        sites.append(CallSite(
            caller=func.qual, line=node.lineno, dotted=dotted,
            targets=targets, kind=kind, held=held,
        ))

    def _blocking_reason(self, node: ast.Call, dotted: Optional[str],
                         env: Dict[str, object],
                         func: FunctionInfo) -> Optional[str]:
        if dotted is None:
            return None
        parts = dotted.split(".")
        last = parts[-1]
        root = parts[0]
        if last in ("fsync", "fsync_file", "fsync_dir"):
            return "fsync"
        if dotted in ("time.sleep", "sleep"):
            return "sleep"
        if root == "subprocess" and last in _BLOCKING_SUBPROCESS:
            return "subprocess"
        if last in _BLOCKING_SIMPLE and last not in ("fsync",):
            if last == "sleep":
                return "sleep"
            # ``x.connect`` style socket ops: skip receivers we can
            # prove are project classes (e.g. a Graph.connect method)
            if isinstance(node.func, ast.Attribute):
                base = self._value_type(node.func.value, env, func)
                if isinstance(base, ClassInfo):
                    return None
            return _BLOCKING_SIMPLE[last]
        if last in ("join", "wait"):
            if not isinstance(node.func, ast.Attribute):
                return None
            recv = node.func.value
            if isinstance(recv, ast.Constant):
                return None  # ", ".join(...)
            recv_dotted = _dotted(recv) or ""
            recv_last = recv_dotted.split(".")[-1].lower()
            has_timeout = any(kw.arg == "timeout" for kw in node.keywords)
            threadish = any(hint in recv_last for hint in _THREADISH)
            if threadish or has_timeout:
                return "join" if last == "join" else "wait"
            base = self._value_type(recv, env, func)
            if base is EXTERNAL or isinstance(base, ClassInfo):
                return None
            if recv_dotted == "self" and func.cls is not None and any(
                    "Thread" in name for name in func.cls.base_names):
                return "join"
            return None
        return None

    # ------------------------------------------------------------------
    # build + fixpoint
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for source in self.project.files:
            self._index_module(source)
        # resolve base classes once every module is indexed
        for module in self.modules.values():
            for cls in module.classes.values():
                cls.bases = [
                    resolved for resolved in (
                        self._lookup_class(name.split(".")[-1], module)
                        for name in cls.base_names
                    ) if resolved is not None and resolved is not cls
                ]
        for module in self.modules.values():
            for cls in module.classes.values():
                for base in cls.bases:
                    self._subclasses.setdefault(base.qual, []).append(cls)
        self._collect_callbacks()
        for func in list(self.functions.values()):
            self._walk_function(func)
        self._propagate()
        self._collect_lock_edges()

    def _propagate(self) -> None:
        """Fixpoint: push held-lock sets through the call graph."""
        self.entry_held = {qual: {} for qual in self.functions}
        worklist: List[str] = list(self.functions)
        max_hops = 12
        while worklist:
            caller = worklist.pop()
            inherited = self.entry_held.get(caller, {})
            for site in self.call_sites.get(caller, ()):
                if not site.targets:
                    continue
                carried: Dict[str, Tuple[Hop, ...]] = {}
                hop: Hop = (caller, site.line)
                for token in site.held:
                    carried[token] = (hop,)
                for token, witness in inherited.items():
                    if token not in carried and len(witness) < max_hops:
                        carried[token] = witness + (hop,)
                if not carried:
                    continue
                for target in site.targets:
                    bucket = self.entry_held.get(target)
                    if bucket is None:
                        continue
                    changed = False
                    for token, witness in carried.items():
                        if token not in bucket:
                            bucket[token] = witness
                            changed = True
                    if changed:
                        worklist.append(target)

    def _collect_lock_edges(self) -> None:
        edges: Dict[Tuple[str, str], LockEdge] = {}

        def add(held: str, acquired: str, function: str, line: int,
                witness: Tuple[Hop, ...]) -> None:
            key = (held, acquired)
            if key not in edges:
                edges[key] = LockEdge(held=held, acquired=acquired,
                                      function=function, line=line,
                                      witness=witness)

        for qual in sorted(self.acquisitions):
            for acq in self.acquisitions[qual]:
                for token in acq.held:
                    add(token, acq.token, qual, acq.line,
                        ((qual, acq.line),))
                for token, witness in sorted(
                        self.entry_held.get(qual, {}).items()):
                    add(token, acq.token, qual, acq.line,
                        witness + ((qual, acq.line),))
        self.lock_edges = list(edges.values())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def held_at(self, qual: str,
                lexical: Tuple[str, ...]) -> Dict[str, Tuple[Hop, ...]]:
        """Lexically held tokens plus the function's entry set."""
        merged: Dict[str, Tuple[Hop, ...]] = {
            token: () for token in lexical
        }
        for token, witness in self.entry_held.get(qual, {}).items():
            merged.setdefault(token, witness)
        return merged

    def lock_cycles(self) -> List[List[LockEdge]]:
        """Cycles in the lock-order graph, one witness cycle per SCC."""
        graph: Dict[str, List[LockEdge]] = {}
        nodes: Set[str] = set()
        for edge in self.lock_edges:
            graph.setdefault(edge.held, []).append(edge)
            nodes.add(edge.held)
            nodes.add(edge.acquired)
        for bucket in graph.values():
            bucket.sort(key=lambda e: (e.acquired, e.function, e.line))

        # iterative Tarjan SCC
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work = [(root, iter(graph.get(root, ())))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, edges_iter = work[-1]
                advanced = False
                for edge in edges_iter:
                    succ = edge.acquired
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(graph.get(succ, ()))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(component)

        for node in sorted(nodes):
            if node not in index:
                strongconnect(node)

        cycles: List[List[LockEdge]] = []
        for component in sccs:
            members = set(component)
            internal = [
                edge for edge in self.lock_edges
                if edge.held in members and edge.acquired in members
            ]
            if len(component) == 1:
                token = component[0]
                self_edges = [e for e in internal
                              if e.held == e.acquired == token]
                if self_edges:
                    cycles.append([min(
                        self_edges,
                        key=lambda e: (e.function, e.line))])
                continue
            # walk a concrete cycle inside the SCC, starting from the
            # smallest token for determinism
            start = min(component)
            path: List[LockEdge] = []
            seen_tokens: Set[str] = set()
            current = start
            by_source: Dict[str, List[LockEdge]] = {}
            for edge in internal:
                by_source.setdefault(edge.held, []).append(edge)
            for bucket in by_source.values():
                bucket.sort(key=lambda e: (e.acquired, e.function,
                                           e.line))
            while current not in seen_tokens:
                seen_tokens.add(current)
                options = by_source.get(current, [])
                if not options:
                    break
                # prefer closing the loop, else the smallest successor
                closing = [e for e in options if e.acquired == start]
                edge = closing[0] if closing and len(path) > 0 \
                    else options[0]
                path.append(edge)
                current = edge.acquired
                if current == start:
                    break
            if path and path[-1].acquired == start:
                cycles.append(path)
            elif path:
                # trim to the back-edge cycle that was actually closed
                for position, edge in enumerate(path):
                    if edge.held == current:
                        cycles.append(path[position:])
                        break
        cycles.sort(key=lambda c: (c[0].function, c[0].line))
        return cycles


def render_witness(witness: Tuple[Hop, ...],
                   analysis: FlowAnalysis) -> str:
    """``a.f:12 -> b.g:34`` using short labels."""
    hops = []
    for qual, line in witness:
        func = analysis.functions.get(qual)
        hops.append(f"{func.label if func else qual}:{line}")
    return " -> ".join(hops)


def flow_for(project: Project) -> FlowAnalysis:
    """The (memoised) flow analysis for a project."""
    cached = getattr(project, "_flow_analysis", None)
    if cached is None:
        cached = FlowAnalysis(project)
        project._flow_analysis = cached  # type: ignore[attr-defined]
    return cached
