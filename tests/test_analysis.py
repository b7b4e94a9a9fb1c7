"""Tests for the AST invariant lint suite (repro.analysis).

Three layers:

* per-rule fixtures -- one snippet each rule must flag and one it must
  leave alone, so every rule is demonstrably alive;
* project-rule fixtures -- miniature ``src/repro/service`` trees with
  deliberately drifted op tables and docs;
* the real tree -- ``repro lint`` over this repository's ``src`` and
  ``tools`` must report zero findings (suppressions included), which is
  exactly the gate CI enforces.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_CHECKERS,
    PARSE_RULE,
    RULE_IDS,
    lint,
    lint_paths,
)
from repro.analysis.rules import FILE_RULES

REPO = Path(__file__).resolve().parents[1]

#: rule ids are frozen: suppression comments and CI configuration refer
#: to them by name, so renaming one is a breaking change
FROZEN_RULE_IDS = {
    "lock-discipline",
    "lock-order",
    "durability-fsync",
    "durability-order",
    "nondet-hash",
    "nondet-time",
    "mutable-default",
    "broad-except",
    "metric-names",
    "failpoint-names",
    "ops-surface",
    "ops-idempotent",
    "docs-drift",
    "deadlock-cycle",
    "blocking-under-lock",
    "exception-escape",
    "resource-leak",
}


def run_rule(tmp_path: Path, rule: str, code: str, name: str = "mod.py"):
    """Lint one snippet with one rule; returns the findings list."""
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code), encoding="utf-8")
    report = lint([target], rules=[rule])
    return report.findings


# ---------------------------------------------------------------------------
# registry invariants
# ---------------------------------------------------------------------------


def test_rule_ids_are_frozen():
    assert set(RULE_IDS) == FROZEN_RULE_IDS
    assert len(RULE_IDS) == len(set(RULE_IDS)), "duplicate rule id"
    assert PARSE_RULE not in FROZEN_RULE_IDS  # reserved, not a checker


def test_every_checker_documents_itself():
    for checker in ALL_CHECKERS:
        assert checker.rule, checker
        assert checker.summary, checker.rule
        assert checker.hint, checker.rule


def test_unknown_rule_is_an_error(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no-such-rule"):
        lint([tmp_path], rules=["no-such-rule"])


def test_unparseable_file_is_a_parse_finding(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    report = lint([bad])
    assert [f.rule for f in report.findings] == [PARSE_RULE]


# ---------------------------------------------------------------------------
# nondeterminism rules
# ---------------------------------------------------------------------------


def test_nondet_hash_flags_builtin_hash(tmp_path):
    findings = run_rule(tmp_path, "nondet-hash", """
        def shard_for(self, name):
            return self.shards[hash(name) % len(self.shards)]
    """)
    assert len(findings) == 1
    assert findings[0].rule == "nondet-hash"
    assert "salted" in findings[0].message


def test_nondet_hash_clean_on_crc32(tmp_path):
    findings = run_rule(tmp_path, "nondet-hash", """
        import zlib

        def shard_for(self, name):
            index = zlib.crc32(name.encode("utf-8")) % len(self.shards)
            return self.shards[index]
    """)
    assert findings == []


def test_nondet_time_flags_wall_clock(tmp_path):
    findings = run_rule(tmp_path, "nondet-time", """
        import time

        def measure(fn):
            started = time.time()
            fn()
            return time.time() - started
    """)
    assert len(findings) == 2


def test_nondet_time_flags_bare_import(tmp_path):
    findings = run_rule(tmp_path, "nondet-time", """
        from time import time

        def stamp():
            return time()
    """)
    assert len(findings) == 1


def test_nondet_time_clean_on_perf_counter(tmp_path):
    findings = run_rule(tmp_path, "nondet-time", """
        import time

        def measure(fn):
            started = time.perf_counter()
            fn()
            return time.perf_counter() - started
    """)
    assert findings == []


def test_mutable_default_flags_literal_and_constructor(tmp_path):
    findings = run_rule(tmp_path, "mutable-default", """
        def collect(item, into=[]):
            into.append(item)
            return into

        def index(pairs, table=dict()):
            table.update(pairs)
            return table
    """)
    assert len(findings) == 2


def test_mutable_default_clean_on_none(tmp_path):
    findings = run_rule(tmp_path, "mutable-default", """
        def collect(item, into=None, limit=10, tag=("a",)):
            if into is None:
                into = []
            into.append(item)
            return into
    """)
    assert findings == []


def test_broad_except_flags_bare_and_silent(tmp_path):
    findings = run_rule(tmp_path, "broad-except", """
        def risky(fn):
            try:
                fn()
            except:
                pass

        def quiet(fn):
            try:
                fn()
            except Exception:
                pass
    """)
    assert len(findings) == 2


def test_broad_except_clean_when_handled_or_narrow(tmp_path):
    findings = run_rule(tmp_path, "broad-except", """
        def handled(fn, errors):
            try:
                fn()
            except Exception as exc:
                errors.append(str(exc))

        def narrow(fn):
            try:
                fn()
            except OSError:
                pass
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# lock discipline
# ---------------------------------------------------------------------------

# these rules only watch the striped modules, so fixtures must be named
# engine.py / sessions.py / cluster.py

def test_lock_discipline_flags_unlocked_stripe_write(tmp_path):
    findings = run_rule(tmp_path, "lock-discipline", """
        class Engine:
            def put(self, uid, value):
                shard = self._shard_for(uid)
                shard.entries[uid] = value
    """, name="engine.py")
    assert len(findings) == 1
    assert "outside a lock" in findings[0].message


def test_lock_discipline_flags_mutator_method_on_shared(tmp_path):
    findings = run_rule(tmp_path, "lock-discipline", """
        class Registry:
            def drop(self, name):
                self._tables[0].pop(name, None)
    """, name="sessions.py")
    assert len(findings) == 1


def test_lock_discipline_clean_under_with_lock(tmp_path):
    findings = run_rule(tmp_path, "lock-discipline", """
        class Engine:
            def put(self, uid, value):
                shard = self._shard_for(uid)
                with shard.lock:
                    shard.entries[uid] = value
    """, name="engine.py")
    assert findings == []


def test_lock_discipline_clean_under_exitstack(tmp_path):
    findings = run_rule(tmp_path, "lock-discipline", """
        from contextlib import ExitStack

        class Engine:
            def clear(self):
                with ExitStack() as stack:
                    for shard in self._shards:
                        stack.enter_context(shard.lock)
                    for shard in self._shards:
                        shard.entries.clear()
    """, name="engine.py")
    assert findings == []


def test_lock_discipline_exempts_init_and_other_files(tmp_path):
    code = """
        class Engine:
            def __init__(self, shards):
                self._shards = list(shards)
                self._shards.append(None)
    """
    assert run_rule(tmp_path, "lock-discipline", code,
                    name="engine.py") == []
    unlocked = """
        class Engine:
            def put(self, uid, value):
                self._shards[0].entries[uid] = value
    """
    # same mutation, but not in a striped module -> out of scope
    assert run_rule(tmp_path, "lock-discipline", unlocked,
                    name="helpers.py") == []


def test_lock_order_flags_nested_stripes(tmp_path):
    findings = run_rule(tmp_path, "lock-order", """
        class Engine:
            def move(self, a, b):
                with self._shards[a].lock:
                    with self._shards[b].lock:
                        pass
    """, name="engine.py")
    assert len(findings) == 1
    assert "second stripe lock" in findings[0].message


def test_lock_order_clean_on_sequential_stripes(tmp_path):
    findings = run_rule(tmp_path, "lock-order", """
        class Engine:
            def move(self, a, b):
                with self._shards[a].lock:
                    value = self.read(a)
                with self._shards[b].lock:
                    self.write(b, value)
    """, name="engine.py")
    assert findings == []


# ---------------------------------------------------------------------------
# durability rules
# ---------------------------------------------------------------------------

def test_durability_fsync_flags_unsynced_write(tmp_path):
    findings = run_rule(tmp_path, "durability-fsync", """
        def append(handle, record):
            handle.write(record)
            handle.flush()
    """, name="wal.py")
    assert len(findings) == 1
    assert "fsync" in findings[0].message


def test_durability_fsync_clean_with_fsync(tmp_path):
    code = """
        import os

        def append(handle, record):
            handle.write(record)
            handle.flush()
            os.fsync(handle.fileno())
    """
    assert run_rule(tmp_path, "durability-fsync", code,
                    name="wal.py") == []
    helper = """
        def stage(path, payload):
            path.write_text(payload)
            fsync_file(path)
    """
    assert run_rule(tmp_path, "durability-fsync", helper,
                    name="checkpoint.py") == []
    # writes outside the durability modules are out of scope
    assert run_rule(tmp_path, "durability-fsync", """
        def note(handle, line):
            handle.write(line)
    """, name="report.py") == []


def test_durability_order_flags_truncate_before_flip(tmp_path):
    findings = run_rule(tmp_path, "durability-order", """
        import os

        def roll(wal, directory, staged):
            wal.truncate_to_base()
            os.replace(staged, directory / _CURRENT)
    """, name="wal.py")
    assert len(findings) == 1
    assert "crash" in findings[0].message


def test_durability_order_clean_in_canonical_order(tmp_path):
    findings = run_rule(tmp_path, "durability-order", """
        import os

        def roll(session, wal, directory, staged):
            checkpoint_session(session, staged)
            os.replace(staged, directory / _CURRENT)
            wal.truncate_to_base()
    """, name="wal.py")
    assert findings == []


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_names_flags_inline_literals(tmp_path):
    findings = run_rule(tmp_path, "metric-names", """
        def wire(registry, trace, start, end):
            registry.histogram("repro_op_latency_seconds", op="query")
            registry.counter("repro_requests_total")
            registry.histogram(NAME, stage="kernel")
            trace.add_span("wal_fsync", start, end)
    """)
    assert len(findings) == 4


def test_metric_names_clean_on_constants(tmp_path):
    findings = run_rule(tmp_path, "metric-names", """
        from repro.obs.names import OP_LATENCY_SECONDS, SPAN_WAL_FSYNC

        def wire(registry, trace, start, end):
            registry.histogram(OP_LATENCY_SECONDS, op="query")
            trace.add_span(SPAN_WAL_FSYNC, start, end)
    """)
    assert findings == []


def test_failpoint_names_flags_unregistered_and_computed(tmp_path):
    findings = run_rule(tmp_path, "failpoint-names", """
        from repro.faults import FAILPOINTS

        def roll(name):
            FAILPOINTS.hit("wal.no_such_point")
            FAILPOINTS.hit(name)
            FAILPOINTS.hit("wal." + name)
    """)
    assert len(findings) == 3
    assert all(f.rule == "failpoint-names" for f in findings)
    assert "not registered" in findings[0].message


def test_failpoint_names_clean_on_catalog_literals(tmp_path):
    findings = run_rule(tmp_path, "failpoint-names", """
        from repro.faults import FAILPOINTS

        def roll():
            FAILPOINTS.hit("wal.pre_fsync")
            FAILPOINTS.hit("ckpt.pre_flip")
            other.hit("not-a-failpoint-registry")
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

def test_noqa_suppresses_and_is_reported(tmp_path):
    target = tmp_path / "wal.py"
    target.write_text(textwrap.dedent("""
        def append(handle, record):
            handle.write(record)  # repro: noqa[durability-fsync] -- caller fsyncs
    """), encoding="utf-8")
    report = lint([target], rules=["durability-fsync"])
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0]["reason"] == "caller fsyncs"
    assert report.exit_code == 0


def test_noqa_covers_only_named_rules(tmp_path):
    target = tmp_path / "wal.py"
    target.write_text(textwrap.dedent("""
        def append(handle, record):
            handle.write(record)  # repro: noqa[broad-except]
    """), encoding="utf-8")
    report = lint([target], rules=["durability-fsync"])
    assert [f.rule for f in report.findings] == ["durability-fsync"]


def test_noqa_multiple_rules_one_comment(tmp_path):
    target = tmp_path / "engine.py"
    target.write_text(textwrap.dedent("""
        import time

        class Engine:
            def put(self, uid, value):
                self._shards[0].entries[uid] = time.time()  # repro: noqa[lock-discipline, nondet-time] -- test fixture
    """), encoding="utf-8")
    report = lint([target], rules=["lock-discipline", "nondet-time"])
    assert report.findings == []
    assert len(report.suppressed) == 2


# ---------------------------------------------------------------------------
# project rules (miniature drifted service trees)
# ---------------------------------------------------------------------------

MINI_PROTOCOL = '''
"""Mini protocol.

Operations::

    ping
    ingest
"""

OPS = ("ping", "ingest")
'''

MINI_SERVER_OK = """
class Server:
    def __init__(self):
        self._ops = {
            "ping": self._op_ping,
            "ingest": self._op_ingest,
        }

    def _op_ping(self, request):
        return {"pong": True}

    def _op_ingest(self, request):
        return self.manager.ingest(request.params)
"""

MINI_CLIENT_OK = """
IDEMPOTENT_OPS = frozenset({"ping"})
MUTATING_OPS = frozenset({"ingest"})


class ServiceClient:
    def call(self, op, **params):
        return {}

    def ping(self):
        return self.call("ping")

    def ingest(self, events):
        return self.call("ingest", events=events)
"""


def build_tree(tmp_path: Path, protocol=MINI_PROTOCOL,
               server=MINI_SERVER_OK, client=MINI_CLIENT_OK,
               docs=None) -> Path:
    service = tmp_path / "src" / "repro" / "service"
    service.mkdir(parents=True)
    (service / "protocol.py").write_text(protocol, encoding="utf-8")
    (service / "server.py").write_text(server, encoding="utf-8")
    (service / "client.py").write_text(client, encoding="utf-8")
    for name, text in (docs or {}).items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path / "src"


def test_ops_surface_clean_on_consistent_tree(tmp_path):
    root = build_tree(tmp_path)
    report = lint([root], rules=["ops-surface"])
    assert report.findings == []


def test_ops_surface_flags_dispatch_and_classification_drift(tmp_path):
    server = """
class Server:
    def __init__(self):
        self._ops = {
            "ping": self._op_ping,
            "ingest": self._op_ingest,
            "legacy": self._op_legacy,
        }
"""
    client = """
IDEMPOTENT_OPS = frozenset({"ping", "ingest"})
MUTATING_OPS = frozenset({"ingest"})


class ServiceClient:
    def call(self, op, **params):
        return {}

    def ping(self):
        return self.call("ping")
"""
    root = build_tree(tmp_path, server=server, client=client)
    report = lint([root], rules=["ops-surface"])
    messages = " | ".join(f.message for f in report.findings)
    assert "absent from protocol.OPS: legacy" in messages
    assert "both idempotent and mutating: ingest" in messages
    assert "no ServiceClient wrapper issues op(s): ingest" in messages


def test_ops_surface_flags_unclassified_op(tmp_path):
    client = """
IDEMPOTENT_OPS = frozenset({"ping"})
MUTATING_OPS = frozenset()


class ServiceClient:
    def call(self, op, **params):
        return {}

    def ping(self):
        return self.call("ping")

    def ingest(self, events):
        return self.call("ingest", events=events)
"""
    root = build_tree(tmp_path, client=client)
    report = lint([root], rules=["ops-surface"])
    messages = " | ".join(f.message for f in report.findings)
    assert "not classified for the retry policy: ingest" in messages


def test_ops_idempotent_flags_mutating_handler(tmp_path):
    server = """
class Server:
    def __init__(self):
        self._ops = {
            "ping": self._op_ping,
            "ingest": self._op_ingest,
        }

    def _op_ping(self, request):
        self.manager.create_session(request.params)
        return {"pong": True}

    def _op_ingest(self, request):
        return self.manager.ingest(request.params)
"""
    root = build_tree(tmp_path, server=server)
    report = lint([root], rules=["ops-idempotent"])
    assert len(report.findings) == 1
    assert "'ping'" in report.findings[0].message
    assert "create_session" in report.findings[0].message


def test_ops_idempotent_clean_on_read_only_handlers(tmp_path):
    root = build_tree(tmp_path)
    report = lint([root], rules=["ops-idempotent"])
    assert report.findings == []


SERVICE_MD_OK = """
# Service

| op | params |
| --- | --- |
| `ping` | none |
| `ingest` | events |
"""

API_MD_OK = """
# API

### class `ServiceClient`

* `ping` — probe the server.
* `ingest` — append events.
"""


def test_docs_drift_clean_on_matching_docs(tmp_path):
    root = build_tree(tmp_path, docs={
        "docs/SERVICE.md": SERVICE_MD_OK,
        "docs/API.md": API_MD_OK,
    })
    report = lint([root], rules=["docs-drift"])
    assert report.findings == []


def test_docs_drift_flags_stale_table_and_docstring(tmp_path):
    stale_protocol = '''
"""Mini protocol.

Operations::

    ping
"""

OPS = ("ping", "ingest")
'''
    stale_service_md = """
# Service

| op | params |
| --- | --- |
| `ping` | none |
| `retired` | gone |
"""
    stale_api_md = """
# API

### class `ServiceClient`

* `ping` — probe the server.
"""
    root = build_tree(tmp_path, protocol=stale_protocol, docs={
        "docs/SERVICE.md": stale_service_md,
        "docs/API.md": stale_api_md,
    })
    report = lint([root], rules=["docs-drift"])
    messages = " | ".join(f.message for f in report.findings)
    assert "Operations:: block drifted: missing ingest" in messages
    assert "missing ingest" in messages and "stale retired" in messages
    assert "no wrapper for op 'ingest'" in messages


def test_project_rules_noop_without_service_tree(tmp_path):
    (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
    report = lint(
        [tmp_path],
        rules=["ops-surface", "ops-idempotent", "docs-drift"],
    )
    assert report.findings == []


# ---------------------------------------------------------------------------
# the real tree: the CI gate
# ---------------------------------------------------------------------------


def test_real_tree_is_clean():
    report = lint([REPO / "src", REPO / "tools"])
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"lint findings on the real tree:\n{rendered}"
    assert report.exit_code == 0
    # the deliberate suppressions carry reasons
    assert report.suppressed, "expected the documented noqa sites"
    assert all(s["reason"] for s in report.suppressed)


def test_real_tree_op_tables_partition_exactly():
    from repro.service.client import IDEMPOTENT_OPS, MUTATING_OPS
    from repro.service.cluster import (
        _BROADCAST_OPS,
        _ROUTED_OPS,
        _SESSION_OPS,
    )
    from repro.service.protocol import OPS

    ops = set(OPS)
    assert IDEMPOTENT_OPS | MUTATING_OPS == ops
    assert not (IDEMPOTENT_OPS & MUTATING_OPS)
    assert _SESSION_OPS <= ops
    assert _BROADCAST_OPS <= ops
    assert _ROUTED_OPS == ops


def test_cli_lint_json_and_exit_codes(tmp_path):
    dirty = tmp_path / "wal.py"
    dirty.write_text(
        "def append(handle, record):\n    handle.write(record)\n",
        encoding="utf-8",
    )
    env_src = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json", str(dirty)],
        capture_output=True, text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == "durability-fsync"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json",
         str(REPO / "src"), str(REPO / "tools")],
        capture_output=True, text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert set(payload["rules"]) == FROZEN_RULE_IDS


def test_cli_lint_rules_filter(tmp_path):
    dirty = tmp_path / "anything.py"
    dirty.write_text(
        "def f(x=[]):\n    return hash(x)\n", encoding="utf-8"
    )
    report = lint_paths(
        [dirty],
        checkers=list(FILE_RULES),
        rules=["nondet-hash"],
    )
    assert [f.rule for f in report.findings] == ["nondet-hash"]
