"""The checker framework: files, findings, suppressions, the runner.

Dependency-free by construction (stdlib ``ast`` only): the lint suite
is the safety rail for refactoring the service, so it must never be
the thing a missing dependency breaks.

Pieces:

* :class:`Finding` -- one violation: rule id, ``file:line:col``, a
  message, and a fix hint.
* :class:`SourceFile` -- a parsed module plus its inline suppressions
  (``# repro: noqa[rule]`` or ``# repro: noqa[rule-a,rule-b]``,
  optionally ``-- reason``, on the flagged line).
* :class:`Checker` -- base class; per-file checkers implement
  :meth:`Checker.check`, cross-module ones set ``project = True`` and
  implement :meth:`Checker.check_project` against a :class:`Project`.
* :func:`lint_paths` -- walk the given paths, run the selected
  checkers, apply suppressions, and return a :class:`LintReport`.

A file that does not parse yields one finding under the reserved
``parse`` rule (not suppressible -- the rest of the suite is blind to
that file, so the failure must be loud).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: the suppression comment: ``# repro: noqa[rule]`` or
#: ``# repro: noqa[rule-a, rule-b] -- why this is deliberate``
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\["
    r"(?P<rules>[a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)"
    r"\]"
    r"(?:\s*--\s*(?P<reason>\S.*?)\s*)?$"
)

#: rule id reserved for unparseable files; never suppressible
PARSE_RULE = "parse"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    file: str
    line: int
    col: int
    message: str
    hint: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        text = f"{self.file}:{self.line}:{self.col}: [{self.rule}] "
        text += self.message
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class Suppression:
    """One parsed ``# repro: noqa[...]`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: Optional[str]
    used: bool = False

    def covers(self, rule: str) -> bool:
        return rule in self.rules


class SourceFile:
    """One parsed Python file plus its suppression table."""

    def __init__(self, path: Path, display: str, text: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.display = display  # the path as reported in findings
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self.suppressions: Dict[int, Suppression] = {}
        for number, line in enumerate(self.lines, start=1):
            match = _NOQA_RE.search(line)
            if match is None:
                continue
            rules = tuple(
                part.strip() for part in match.group("rules").split(",")
            )
            self.suppressions[number] = Suppression(
                line=number, rules=rules, reason=match.group("reason")
            )

    @property
    def name(self) -> str:
        return self.path.name

    def suppression_for(self, rule: str, line: int) -> Optional[Suppression]:
        """The suppression covering ``rule`` on ``line``, if any."""
        candidate = self.suppressions.get(line)
        if candidate is not None and candidate.covers(rule):
            return candidate
        return None


class ParseCache:
    """Parse each file exactly once per run, keyed by resolved path."""

    def __init__(self) -> None:
        self._entries: Dict[str, Tuple[Optional["SourceFile"],
                                       Optional[Finding]]] = {}

    def parse(self, path: Path) -> Tuple[Optional["SourceFile"],
                                         Optional[Finding]]:
        try:
            key = str(path.resolve())
        except OSError:  # pragma: no cover - exotic filesystems
            key = str(path)
        if key not in self._entries:
            self._entries[key] = parse_file(path)
        return self._entries[key]

    def __len__(self) -> int:
        return len(self._entries)


class Project:
    """Everything the walker found, for cross-module checkers.

    The *source root* is the directory that contains the ``repro``
    package (located by finding ``repro/service/protocol.py`` among the
    parsed files); the *repo root* is its parent, where ``docs/``
    lives.  When no source root is present -- the paths under lint are
    fixture snippets, not the service -- project checkers no-op, so the
    per-file rules still work on arbitrary trees.

    A project carries the run's :class:`ParseCache`, so any checker
    needing an extra file parsed (or the runner expanding a single
    file to its anchored tree) parses each path at most once.
    """

    def __init__(self, files: Sequence[SourceFile],
                 cache: Optional[ParseCache] = None) -> None:
        self.files = list(files)
        self.cache = cache if cache is not None else ParseCache()
        self._by_suffix: Dict[str, SourceFile] = {}
        for source in self.files:
            self._by_suffix[source.path.as_posix()] = source

    def parse(self, path: Path) -> Tuple[Optional["SourceFile"],
                                         Optional[Finding]]:
        """Parse through the run's cache (once per path per run)."""
        return self.cache.parse(Path(path))

    def module(self, suffix: str) -> Optional[SourceFile]:
        """The parsed file whose path ends with ``suffix`` (posix)."""
        suffix = "/" + suffix.lstrip("/")
        for posix, source in self._by_suffix.items():
            if ("/" + posix).endswith(suffix):
                return source
        return None

    @property
    def source_root(self) -> Optional[Path]:
        anchor = self.module("repro/service/protocol.py")
        if anchor is None:
            return None
        return anchor.path.parents[2]

    @property
    def repo_root(self) -> Optional[Path]:
        root = self.source_root
        return root.parent if root is not None else None

    def doc(self, relative: str) -> Optional[Path]:
        """A documentation file under the repo root, if it exists."""
        root = self.repo_root
        if root is None:
            return None
        candidate = root / relative
        return candidate if candidate.is_file() else None


class Checker:
    """Base class: one frozen rule id, one invariant."""

    rule: str = ""
    summary: str = ""
    hint: str = ""
    #: True for cross-module checkers (run once per project, not per file)
    project: bool = False

    def finding(self, source_or_file, line: int, message: str,
                col: int = 0, hint: Optional[str] = None) -> Finding:
        display = (
            source_or_file.display
            if isinstance(source_or_file, SourceFile)
            else str(source_or_file)
        )
        return Finding(
            rule=self.rule,
            file=display,
            line=line,
            col=col,
            message=message,
            hint=self.hint if hint is None else hint,
        )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Per-file entry point (per-file checkers override this)."""
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Whole-project entry point (project checkers override this)."""
        return iter(())


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    files: int
    rules: List[str]
    suppressed: List[Dict[str, object]] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "files": self.files,
            "rules": self.rules,
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": list(self.suppressed),
            "ok": not self.findings,
        }


def iter_python_files(paths: Iterable) -> List[Path]:
    """Every ``.py`` file under the given files/directories, sorted.

    Hidden directories and ``__pycache__`` are skipped; a path that is
    itself a ``.py`` file is taken as-is.
    """
    collected: List[Path] = []
    seen: set = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                collected.append(path)
            continue
        for candidate in path.rglob("*.py"):
            parts = candidate.relative_to(path).parts
            if any(
                part == "__pycache__" or part.startswith(".")
                for part in parts
            ):
                continue
            collected.append(candidate)
    unique: List[Path] = []
    for candidate in sorted(collected, key=lambda p: p.as_posix()):
        try:
            key = str(candidate.resolve())
        except OSError:  # pragma: no cover - exotic filesystems
            key = str(candidate)
        if key in seen:
            continue
        seen.add(key)
        unique.append(candidate)
    return unique


def _display(path: Path) -> str:
    """Report paths relative to the working directory when possible."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_file(path: Path) -> Tuple[Optional[SourceFile], Optional[Finding]]:
    """Parse one file; returns ``(source, None)`` or ``(None, finding)``."""
    display = _display(path)
    try:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        return None, Finding(
            rule=PARSE_RULE,
            file=display,
            line=getattr(exc, "lineno", 0) or 0,
            col=getattr(exc, "offset", 0) or 0,
            message=f"file does not parse: {exc}",
            hint="the rest of the suite is blind to this file; fix it first",
        )
    return SourceFile(path, display, text, tree), None


#: anchored-tree marker: a file path ending in this activates project
#: rules; a lone file *inside* such a tree pulls the tree in as context
_ANCHOR_SUFFIX = ("repro", "service", "protocol.py")


def _find_anchor_root(path: Path) -> Optional[Path]:
    """The directory above ``path`` containing the anchored tree."""
    try:
        resolved = path.resolve()
    except OSError:  # pragma: no cover - exotic filesystems
        return None
    for parent in resolved.parents:
        candidate = parent.joinpath(*_ANCHOR_SUFFIX)
        if candidate.is_file():
            return parent
    return None


def lint_paths(
    paths: Iterable,
    checkers: Sequence[Checker],
    rules: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run ``checkers`` (optionally narrowed to ``rules``) over ``paths``.

    Files are linted in sorted order, each parsed once per run.  A
    *file* argument that lives inside an anchored service tree pulls
    the rest of the tree in as context, so project rules still apply;
    findings are then scoped to the requested files.
    """
    if rules is not None:
        wanted = set(rules)
        known = {checker.rule for checker in checkers}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"unknown rule(s) {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        checkers = [c for c in checkers if c.rule in wanted]
    cache = ParseCache()
    target_paths = iter_python_files(paths)
    # single-file anchoring: explicit .py arguments inside an anchored
    # tree activate project rules with the whole tree as context
    context_paths: List[Path] = []
    has_anchor = any(
        path.as_posix().endswith("/".join(_ANCHOR_SUFFIX))
        for path in target_paths
    )
    explicit_files = [
        Path(raw) for raw in paths
        if Path(raw).is_file() and Path(raw).suffix == ".py"
    ]
    if explicit_files and not has_anchor:
        roots: List[Path] = []
        for path in explicit_files:
            root = _find_anchor_root(path)
            if root is not None and root not in roots:
                roots.append(root)
        if roots:
            target_keys = {str(p.resolve()) for p in target_paths}
            for candidate in iter_python_files(sorted(roots)):
                if str(candidate.resolve()) not in target_keys:
                    context_paths.append(candidate)
    scoped = bool(context_paths)

    sources: List[SourceFile] = []
    findings: List[Finding] = []
    for path in target_paths:
        source, failure = cache.parse(path)
        if failure is not None:
            findings.append(failure)
        else:
            sources.append(source)
    context_sources: List[SourceFile] = []
    for path in context_paths:
        source, _ = cache.parse(path)  # context parse errors stay quiet
        if source is not None:
            context_sources.append(source)
    project = Project(sources + context_sources, cache=cache)
    raw: List[Finding] = []
    for checker in checkers:
        if not checker.project:
            for source in sources:
                raw.extend(checker.check(source))
    for checker in checkers:
        if checker.project:
            for finding in checker.check_project(project):
                if scoped and not any(
                        finding.file == source.display
                        for source in sources):
                    continue
                raw.extend([finding])
    suppressed: List[Dict[str, object]] = []
    by_display = {source.display: source for source in sources}
    for finding in raw:
        source = by_display.get(finding.file)
        suppression = (
            source.suppression_for(finding.rule, finding.line)
            if source is not None
            else None
        )
        if suppression is not None:
            suppression.used = True
            suppressed.append(
                {
                    "rule": finding.rule,
                    "file": finding.file,
                    "line": finding.line,
                    "reason": suppression.reason,
                }
            )
        else:
            findings.append(finding)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return LintReport(
        findings=findings,
        files=len(sources),
        rules=[checker.rule for checker in checkers],
        suppressed=suppressed,
    )
