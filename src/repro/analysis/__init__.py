"""``repro.analysis``: the dependency-free AST lint suite.

The service's correctness rests on invariants no type checker sees:
the session registry is only mutated under its lock, WAL bytes are
fsynced before an ack, placement never keys on the salted builtin
``hash()``, metric/span names come from one registry, and the
op tables in the protocol, server, client, cluster and docs all agree.
This package turns each of those into a checker over stdlib ``ast``
(no third-party dependency), wired to ``repro lint`` and CI.

Suppress a deliberate violation inline with a reason::

    handle.write(data)  # repro: noqa[durability-fsync] -- caller fsyncs

See ``docs/ANALYSIS.md`` for the rule catalog and how to add a rule.
"""

from repro.analysis.core import (
    PARSE_RULE,
    Checker,
    Finding,
    LintReport,
    ParseCache,
    Project,
    SourceFile,
    iter_python_files,
    lint_paths,
)
from repro.analysis.flow_rules import FLOW_RULES
from repro.analysis.project_rules import PROJECT_RULES
from repro.analysis.rules import FILE_RULES

#: every checker: per-file rules, project rules, then the
#: interprocedural flow rules -- frozen registration order
ALL_CHECKERS = tuple(FILE_RULES) + tuple(PROJECT_RULES) + \
    tuple(FLOW_RULES)

#: frozen rule ids, in registration order (tests pin this set)
RULE_IDS = tuple(checker.rule for checker in ALL_CHECKERS)


def lint(paths, rules=None) -> LintReport:
    """Run the full suite (or ``rules``) over ``paths``."""
    return lint_paths(paths, ALL_CHECKERS, rules=rules)


__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "FILE_RULES",
    "FLOW_RULES",
    "Finding",
    "LintReport",
    "PARSE_RULE",
    "PROJECT_RULES",
    "ParseCache",
    "Project",
    "RULE_IDS",
    "SourceFile",
    "iter_python_files",
    "lint",
    "lint_paths",
]
