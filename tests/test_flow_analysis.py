"""Tests for the interprocedural flow analysis and its four rules.

Covers the call-graph builder on miniature fixture trees (diamond,
recursion, unresolved dynamic dispatch), the locks-held dataflow, the
seeded deadlock-cycle detection, the blocking-under-lock and
exception-escape and resource-leak rules, single-file anchoring, and
the real-tree regression pin for the documented suppression site.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import lint
from repro.analysis.core import ParseCache, Project, iter_python_files
from repro.analysis.flow import FlowAnalysis, flow_for

FLOW_RULE_IDS = [
    "deadlock-cycle",
    "blocking-under-lock",
    "exception-escape",
    "resource-leak",
]


def build_flow(tmp_path: Path, files) -> FlowAnalysis:
    """Write a fixture tree and build its FlowAnalysis directly."""
    for rel, code in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code), encoding="utf-8")
    cache = ParseCache()
    sources = []
    for path in iter_python_files([tmp_path]):
        source, failure = cache.parse(path)
        assert failure is None, failure
        sources.append(source)
    return FlowAnalysis(Project(sources, cache=cache))


def lint_tree(tmp_path: Path, files, rules=None):
    for rel, code in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code), encoding="utf-8")
    return lint([tmp_path], rules=rules or FLOW_RULE_IDS)


# ---------------------------------------------------------------------------
# call-graph builder: miniature trees
# ---------------------------------------------------------------------------


def test_call_graph_diamond(tmp_path):
    analysis = build_flow(tmp_path, {"diamond.py": """
        def bottom():
            return 1

        def left():
            return bottom()

        def right():
            return bottom()

        def top():
            return left() + right()
    """})
    top_targets = {
        target
        for site in analysis.call_sites["diamond.top"]
        for target in site.targets
    }
    assert top_targets == {"diamond.left", "diamond.right"}
    for side in ("left", "right"):
        targets = {
            target
            for site in analysis.call_sites[f"diamond.{side}"]
            for target in site.targets
        }
        assert targets == {"diamond.bottom"}


def test_locks_propagate_through_diamond(tmp_path):
    analysis = build_flow(tmp_path, {"diamond.py": """
        import threading

        GUARD_LOCK = threading.Lock()

        def bottom():
            return 1

        def left():
            return bottom()

        def top():
            with GUARD_LOCK:
                return left()
    """})
    held = analysis.entry_held["diamond.bottom"]
    assert "GUARD_LOCK" in held
    # the witness path runs top -> left -> bottom
    quals = [hop[0] for hop in held["GUARD_LOCK"]]
    assert quals == ["diamond.top", "diamond.left"]


def test_recursion_terminates_and_finds_self_deadlock(tmp_path):
    report = lint_tree(tmp_path, {"recur.py": """
        import threading

        PING_LOCK = threading.Lock()

        def ping(n):
            with PING_LOCK:
                pong(n)

        def pong(n):
            if n:
                ping(n - 1)
    """}, rules=["deadlock-cycle"])
    # re-entering ping under the non-reentrant lock is a genuine
    # self-deadlock; the fixpoint must terminate and report it
    assert len(report.findings) == 1
    assert "re-acquired" in report.findings[0].message


def test_unresolved_dynamic_dispatch_over_approximates(tmp_path):
    analysis = build_flow(tmp_path, {"dyn.py": """
        def helper(x):
            return x

        class Runner:
            def run(self, obj):
                obj.helper(1)
                obj.totally_unknown(2)
    """})
    sites = analysis.call_sites["dyn.Runner.run"]
    by_dotted = {site.dotted: site for site in sites}
    may = by_dotted["obj.helper"]
    assert may.kind == "may"
    assert may.targets == ("dyn.helper",)
    unknown = by_dotted["obj.totally_unknown"]
    assert unknown.kind == "external"
    assert unknown.targets == ()


def test_callback_registration_resolves_hook_calls(tmp_path):
    analysis = build_flow(tmp_path, {"hooked.py": """
        class Sink:
            def _on_event(self, batch):
                return batch

            def arm(self, session):
                session.on_event = self._on_event

        class Session:
            def fire(self):
                self.on_event([1])
    """})
    sites = analysis.call_sites["hooked.Session.fire"]
    hook = [s for s in sites if s.dotted == "self.on_event"]
    assert hook and hook[0].kind == "hook"
    assert hook[0].targets == ("hooked.Sink._on_event",)


def test_class_hierarchy_dispatch_stays_in_hierarchy(tmp_path):
    analysis = build_flow(tmp_path, {"cha.py": """
        class Base:
            def insert(self, item):
                raise NotImplementedError

        class Impl(Base):
            def insert(self, item):
                return item

        class Unrelated:
            def insert(self, item):
                return -item

        class Holder:
            def __init__(self, scheme: Base):
                self.scheme = scheme

            def add(self, item):
                self.scheme.insert(item)
    """})
    sites = analysis.call_sites["cha.Holder.add"]
    call = [s for s in sites if s.dotted == "self.scheme.insert"][0]
    assert call.kind == "direct"
    assert set(call.targets) == {"cha.Base.insert", "cha.Impl.insert"}


def test_attr_type_inferred_from_constructor_assignment(tmp_path):
    analysis = build_flow(tmp_path, {"attrs.py": """
        import socket

        class Conn:
            def __init__(self):
                self.sock = socket.create_connection(("h", 1))

            def close(self):
                self.sock.close()

        class Other:
            def close(self):
                pass
    """})
    # self.sock types as external, so .close() gets no may-call edges
    sites = analysis.call_sites["attrs.Conn.close"]
    call = [s for s in sites if s.dotted == "self.sock.close"][0]
    assert call.kind == "external"
    assert call.targets == ()


# ---------------------------------------------------------------------------
# deadlock-cycle
# ---------------------------------------------------------------------------

SEEDED_CYCLE = {"locks.py": """
    import threading

    ALPHA_LOCK = threading.Lock()
    BETA_LOCK = threading.Lock()

    def forward():
        with ALPHA_LOCK:
            take_beta()

    def take_beta():
        with BETA_LOCK:
            pass

    def backward():
        with BETA_LOCK:
            take_alpha()

    def take_alpha():
        with ALPHA_LOCK:
            pass
"""}


def test_seeded_lock_cycle_is_found(tmp_path):
    report = lint_tree(tmp_path, SEEDED_CYCLE, rules=["deadlock-cycle"])
    assert report.findings, "the seeded ALPHA/BETA cycle must be found"
    message = report.findings[0].message
    assert "lock-acquisition cycle" in message
    assert "ALPHA_LOCK" in message and "BETA_LOCK" in message
    assert "via" in message  # interprocedural witness paths rendered


def test_consistent_lock_order_is_clean(tmp_path):
    report = lint_tree(tmp_path, {"locks.py": """
        import threading

        ALPHA_LOCK = threading.Lock()
        BETA_LOCK = threading.Lock()

        def one():
            with ALPHA_LOCK:
                with BETA_LOCK:
                    pass

        def two():
            with ALPHA_LOCK:
                with BETA_LOCK:
                    pass
    """})
    assert report.findings == []


def test_clean_tree_passes_all_flow_rules(tmp_path):
    report = lint_tree(tmp_path, {"svc/server.py": """
        class ProtocolError(Exception):
            pass

        def decode_request(line):
            return line

        def error_response(rid, code, message):
            return (rid, code, message)

        def encode_response(response):
            return response

        class Server:
            def handle_line(self, line):
                try:
                    request = decode_request(line)
                except ProtocolError as exc:
                    return error_response("", 400, str(exc))
                try:
                    return encode_response(self.handle(request))
                except Exception:
                    return error_response("", 500, "internal error")

            def handle(self, request):
                return request
    """})
    assert report.findings == [], [
        f.render() for f in report.findings
    ]


# ---------------------------------------------------------------------------
# blocking-under-lock
# ---------------------------------------------------------------------------

BLOCKING_TREE = {"sess.py": """
    import os
    import threading

    class Session:
        def __init__(self):
            self.lock = threading.Lock()

        def flush(self, handle):
            with self.lock:
                os.fsync(handle.fileno())
"""}


def test_blocking_under_session_lock_is_flagged(tmp_path):
    report = lint_tree(tmp_path, BLOCKING_TREE,
                       rules=["blocking-under-lock"])
    assert len(report.findings) == 1
    message = report.findings[0].message
    assert "fsync" in message and "Session.lock" in message


def test_blocking_under_registry_lock_is_flagged(tmp_path):
    report = lint_tree(tmp_path, {"sessions.py": """
        import threading
        import time

        class SessionManager:
            def __init__(self):
                self._lock = threading.Lock()
                self._sessions = {}

            def get(self, name):
                with self._lock:
                    time.sleep(0.1)
                    return self._sessions[name]

        class Tally:
            def __init__(self):
                self._lock = threading.Lock()

            def bump(self):
                # another class's _lock is not the registry's
                with self._lock:
                    time.sleep(0.1)
    """}, rules=["blocking-under-lock"])
    assert len(report.findings) == 1
    message = report.findings[0].message
    assert "sleep" in message and "SessionManager._lock" in message


def test_blocking_under_lock_interprocedural_witness(tmp_path):
    report = lint_tree(tmp_path, {"sess.py": """
        import os
        import threading

        class Session:
            def __init__(self):
                self.lock = threading.Lock()

            def flush(self, wal):
                with self.lock:
                    wal.append_record(b"x")

        class Wal:
            def append_record(self, data):
                os.fsync(1)
    """}, rules=["blocking-under-lock"])
    assert len(report.findings) == 1
    message = report.findings[0].message
    assert "path:" in message and "flush" in message


def test_blocking_suppression_with_reason_is_honoured(tmp_path):
    files = {"sess.py": BLOCKING_TREE["sess.py"].replace(
        "os.fsync(handle.fileno())",
        "os.fsync(handle.fileno())  "
        "# repro: noqa[blocking-under-lock] -- fsync-before-ack",
    )}
    report = lint_tree(tmp_path, files, rules=["blocking-under-lock"])
    assert report.findings == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0]["reason"] == "fsync-before-ack"


def test_blocking_without_watched_lock_is_clean(tmp_path):
    report = lint_tree(tmp_path, {"plain.py": """
        import os
        import threading

        STATS_LOCK = threading.Lock()

        def flush(handle):
            # a plain module lock is neither the registry's nor a
            # session's
            with STATS_LOCK:
                os.fsync(handle.fileno())
    """}, rules=["blocking-under-lock"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# exception-escape
# ---------------------------------------------------------------------------


def test_unprotected_dispatch_in_server_is_flagged(tmp_path):
    report = lint_tree(tmp_path, {"svc/server.py": """
        def decode_request(line):
            return line

        def error_response(rid, code, message):
            return (rid, code, message)

        def encode_response(response):
            return response

        class Server:
            def handle_line(self, line):
                request = decode_request(line)
                return encode_response(self.handle(request))

            def handle(self, request):
                return request
    """}, rules=["exception-escape"])
    messages = [f.message for f in report.findings]
    assert any("decodes a request" in m for m in messages)
    assert any("dispatches" in m for m in messages)


def test_total_callee_satisfies_exception_escape(tmp_path):
    report = lint_tree(tmp_path, {"svc/server.py": """
        class ProtocolError(Exception):
            pass

        def decode_request(line):
            return line

        def error_response(rid, code, message):
            return (rid, code, message)

        class Server:
            def handle_line(self, line):
                try:
                    request = decode_request(line)
                except ProtocolError:
                    return error_response("", 400, "bad line")
                return self.handle(request)

            def handle(self, request):
                try:
                    return request
                except Exception as exc:
                    return error_response("", 500, str(exc))
    """}, rules=["exception-escape"])
    assert report.findings == [], [
        f.render() for f in report.findings
    ]


def test_exception_escape_ignores_other_files(tmp_path):
    report = lint_tree(tmp_path, {"svc/worker.py": """
        def decode_request(line):
            return line

        def run(line):
            request = decode_request(line)
            return request
    """}, rules=["exception-escape"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# resource-leak
# ---------------------------------------------------------------------------


def run_leak_rule(tmp_path, code):
    target = tmp_path / "leak.py"
    target.write_text(textwrap.dedent(code), encoding="utf-8")
    return lint([target], rules=["resource-leak"]).findings


def test_resource_leak_unclosed_socket(tmp_path):
    findings = run_leak_rule(tmp_path, """
        import socket

        def probe(host):
            sock = socket.create_connection((host, 80))
            sock.sendall(b"ping")
    """)
    assert len(findings) == 1
    assert "'sock'" in findings[0].message


def test_resource_leak_bare_open(tmp_path):
    findings = run_leak_rule(tmp_path, """
        def touch(path):
            open(path, "w")
    """)
    assert len(findings) == 1
    assert "leaks immediately" in findings[0].message


def test_resource_leak_clean_variants(tmp_path):
    findings = run_leak_rule(tmp_path, """
        import socket

        def with_block(path):
            with open(path) as handle:
                return handle.read()

        def closed(host):
            sock = socket.create_connection((host, 80))
            sock.close()

        def returned(host):
            sock = socket.create_connection((host, 80))
            return sock

        def handed_off(host, registry):
            sock = socket.create_connection((host, 80))
            registry.adopt(sock)

        def stored(self_like, host):
            sock = socket.create_connection((host, 80))
            self_like.sock = sock
    """)
    assert findings == []


# ---------------------------------------------------------------------------
# real-tree regression pins
# ---------------------------------------------------------------------------


def test_real_tree_pins_the_documented_suppression(real_tree_report):
    flow_rules = {"deadlock-cycle", "blocking-under-lock"}
    found = [f for f in real_tree_report.findings if f.rule in flow_rules]
    assert found == [], [f.render() for f in found]
    pinned = {(s["rule"], Path(s["file"]).name, bool(s["reason"]))
              for s in real_tree_report.suppressed
              if s["rule"] in flow_rules}
    # the rule still *detects* the site: it fires and is converted into
    # a documented suppression, never silently missed
    assert pinned == {("blocking-under-lock", "wal.py", True)}


# ---------------------------------------------------------------------------
# parse cache and single-file anchoring
# ---------------------------------------------------------------------------


def test_parse_cache_parses_each_file_once(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n", encoding="utf-8")
    cache = ParseCache()
    first, _ = cache.parse(target)
    second, _ = cache.parse(target)
    assert first is second
    assert len(cache) == 1


def test_iter_python_files_sorted_and_deduped(tmp_path):
    (tmp_path / "b.py").write_text("", encoding="utf-8")
    (tmp_path / "a.py").write_text("", encoding="utf-8")
    files = iter_python_files([tmp_path, tmp_path / "a.py"])
    names = [f.name for f in files]
    assert names == ["a.py", "b.py"]


#: a session lock held across a WAL append that fsyncs: the finding
#: lands in wal.py (suppressed there), but only a run that also sees
#: sessions.py can find it; the sleep in sessions.py is a second,
#: unsuppressed finding outside wal.py
ANCHORED_TREE = {
    "sessions.py": """
        import threading
        import time

        class Session:
            def __init__(self, wal):
                self.lock = threading.Lock()
                self.wal = wal

            def ingest(self, record):
                with self.lock:
                    self.wal.append_record(record)
                    time.sleep(0)
    """,
    "wal.py": """
        import os

        class WriteAheadLog:
            def append_record(self, record):
                os.fsync(record)  # repro: noqa[blocking-under-lock] -- fsync-before-ack
    """,
}


def test_single_file_inside_anchored_tree_activates_project_rules(
        tmp_path):
    def write_tree(root: Path, anchored: bool) -> Path:
        service = root / "repro" / "service"
        service.mkdir(parents=True)
        if anchored:
            (service / "protocol.py").write_text("OPS = ()\n",
                                                 encoding="utf-8")
        for name, code in ANCHORED_TREE.items():
            (service / name).write_text(textwrap.dedent(code),
                                        encoding="utf-8")
        return service / "wal.py"

    # a bare file path inside the anchored tree: the rest of the tree
    # is context, so the interprocedural finding in wal.py is found,
    # attributed and suppressed, and the finding in sessions.py is out
    # of scope
    wal = write_tree(tmp_path / "anchored", anchored=True)
    report = lint([wal], rules=["blocking-under-lock"])
    assert report.files == 1
    assert report.findings == []
    assert [(s["rule"], Path(s["file"]).name)
            for s in report.suppressed] == [("blocking-under-lock",
                                             "wal.py")]
    # the whole tree sees both findings
    report = lint([wal.parent], rules=["blocking-under-lock"])
    assert [Path(f.file).name for f in report.findings] == ["sessions.py"]
    assert len(report.suppressed) == 1
    # without the anchor a lone file has no context: nothing fires
    lone = write_tree(tmp_path / "lone", anchored=False)
    report = lint([lone], rules=["blocking-under-lock"])
    assert report.findings == [] and report.suppressed == []


def test_flow_for_memoises_on_the_project(tmp_path):
    (tmp_path / "m.py").write_text("def f():\n    pass\n",
                                   encoding="utf-8")
    cache = ParseCache()
    source, _ = cache.parse(tmp_path / "m.py")
    project = Project([source], cache=cache)
    assert flow_for(project) is flow_for(project)
