"""Tests for the interprocedural flow analysis and its four rules.

Covers the call-graph builder on miniature fixture trees (diamond,
recursion, unresolved dynamic dispatch), the locks-held dataflow, the
seeded deadlock-cycle detection, the blocking-under-lock and
exception-escape and resource-leak rules, SARIF emission, the
findings baseline, and the real-tree regression pins for the two
documented suppression sites.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import ALL_CHECKERS, lint
from repro.analysis.baseline import (
    apply_baseline,
    compute_fingerprints,
    load_baseline,
    write_baseline,
)
from repro.analysis.core import ParseCache, Project, iter_python_files
from repro.analysis.flow import FlowAnalysis, flow_for
from repro.analysis.sarif import report_to_sarif, validate_sarif

REPO = Path(__file__).resolve().parents[1]

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
            # a plain module lock is not a stripe/session lock
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


def test_real_tree_pins_the_documented_suppression():
    report = lint([REPO / "src"],
                  rules=["deadlock-cycle", "blocking-under-lock"])
    assert report.findings == [], [
        f.render() for f in report.findings
    ]
    pinned = {(s["rule"], Path(s["file"]).name, bool(s["reason"]))
              for s in report.suppressed}
    # the rule still *detects* the site: it fires and is converted into
    # a documented suppression, never silently missed
    assert pinned == {("blocking-under-lock", "wal.py", True)}


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def test_to_dot_renders_locks_and_edges(tmp_path):
    analysis = build_flow(tmp_path, SEEDED_CYCLE)
    dot = analysis.to_dot()
    assert dot.startswith("digraph")
    assert "ALPHA_LOCK" in dot and "BETA_LOCK" in dot
    full = analysis.to_dot(full=True)
    assert len(full) >= len(dot)


# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------


def test_sarif_round_trip_validates(tmp_path):
    report = lint_tree(tmp_path, SEEDED_CYCLE, rules=["deadlock-cycle"])
    assert report.findings
    document = report_to_sarif(report, ALL_CHECKERS)
    assert validate_sarif(document) == []
    # survives a JSON round trip untouched
    assert validate_sarif(json.loads(json.dumps(document))) == []
    result = document["runs"][0]["results"][0]
    assert result["ruleId"] == "deadlock-cycle"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1


def test_sarif_validator_rejects_broken_documents():
    assert validate_sarif([]) != []
    assert validate_sarif({"version": "9.9", "runs": []}) != []
    broken = {
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {"name": "x", "rules": []}},
            "results": [{"ruleId": "", "message": {},
                         "locations": []}],
        }],
    }
    errors = validate_sarif(broken)
    assert any("ruleId" in e for e in errors)
    assert any("message.text" in e for e in errors)
    assert any("locations" in e for e in errors)


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def test_baseline_round_trip_subtracts_known_findings(tmp_path):
    report = lint_tree(tmp_path, SEEDED_CYCLE, rules=["deadlock-cycle"])
    assert report.findings
    path = tmp_path / "baseline.json"
    count = write_baseline(report, path)
    assert count == len(report.findings)
    fresh = lint([tmp_path], rules=["deadlock-cycle"])
    applied, baselined = apply_baseline(fresh, load_baseline(path))
    assert applied.findings == []
    assert len(baselined) == count
    assert applied.exit_code == 0


def test_baseline_does_not_mask_new_findings(tmp_path):
    report = lint_tree(tmp_path, SEEDED_CYCLE, rules=["deadlock-cycle"])
    path = tmp_path / "baseline.json"
    write_baseline(report, path)
    # a new, unrelated cycle appears in another file: it must not be
    # absorbed by the recorded fingerprints
    (tmp_path / "other.py").write_text(textwrap.dedent("""
        import threading

        GAMMA_LOCK = threading.Lock()
        DELTA_LOCK = threading.Lock()

        def third():
            with GAMMA_LOCK:
                with DELTA_LOCK:
                    pass

        def fourth():
            with DELTA_LOCK:
                with GAMMA_LOCK:
                    pass
        """), encoding="utf-8")
    fresh = lint([tmp_path], rules=["deadlock-cycle"])
    applied, _ = apply_baseline(fresh, load_baseline(path))
    assert applied.findings, "the new cycle must survive the baseline"


def test_fingerprints_disambiguate_identical_lines(tmp_path):
    report = lint_tree(tmp_path, {"leaks.py": """
        import socket

        def one(host):
            sock = socket.create_connection((host, 80))

        def two(host):
            sock = socket.create_connection((host, 80))
    """}, rules=["resource-leak"])
    assert len(report.findings) == 2
    fingerprints = compute_fingerprints(report.findings)
    assert len(set(fingerprints)) == 2


def test_load_baseline_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nope": 1}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(path)
    assert load_baseline(tmp_path / "absent.json") is None


# ---------------------------------------------------------------------------
# satellites: parse cache, single-file anchoring, --jobs, CLI flags
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


def test_single_file_inside_anchored_tree_activates_project_rules():
    # regression: a bare file path must work, and because wal.py
    # lives inside the anchored service tree the project-wide rules
    # still run with the tree as context -- the documented
    # blocking-under-lock suppression site is found, attributed, and
    # suppressed
    wal = REPO / "src" / "repro" / "service" / "wal.py"
    report = lint([wal], rules=["blocking-under-lock"])
    assert report.files == 1
    assert report.findings == []
    assert any(
        s["rule"] == "blocking-under-lock" and
        Path(s["file"]).name == "wal.py"
        for s in report.suppressed
    )


def test_jobs_fanout_matches_serial(tmp_path):
    files = {
        f"pkg/m{i}.py": """
            import socket

            def probe(host):
                sock = socket.create_connection((host, 80))
        """
        for i in range(4)
    }
    for rel, code in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code), encoding="utf-8")
    serial = lint([tmp_path], rules=["resource-leak"], jobs=1)
    fanned = lint([tmp_path], rules=["resource-leak"], jobs=2)
    key = lambda f: (f.file, f.line, f.rule)  # noqa: E731
    assert sorted(map(key, serial.findings)) == \
        sorted(map(key, fanned.findings))
    assert len(serial.findings) == 4


def test_cli_graph_sarif_and_timing(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "locks.py").write_text(
        textwrap.dedent(SEEDED_CYCLE["locks.py"]), encoding="utf-8")
    graph = tmp_path / "out.dot"
    sarif = tmp_path / "out.sarif"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--no-baseline",
         "--rules", "deadlock-cycle", "--graph", str(graph),
         "--sarif", str(sarif), str(tree)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert " in " in proc.stdout.splitlines()[-1]  # timing line
    assert graph.read_text(encoding="utf-8").startswith("digraph")
    document = json.loads(sarif.read_text(encoding="utf-8"))
    assert validate_sarif(document) == []
    assert document["runs"][0]["results"]


def test_cli_update_baseline_then_clean(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "locks.py").write_text(
        textwrap.dedent(SEEDED_CYCLE["locks.py"]), encoding="utf-8")
    baseline = tmp_path / "base.json"
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--baseline",
         str(baseline), "--update-baseline", str(tree)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert baseline.is_file()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--baseline",
         str(baseline), "--json", str(tree)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["baselined"], "baselined findings must be reported"


def test_flow_for_memoises_on_the_project(tmp_path):
    (tmp_path / "m.py").write_text("def f():\n    pass\n",
                                   encoding="utf-8")
    cache = ParseCache()
    source, _ = cache.parse(tmp_path / "m.py")
    project = Project([source], cache=cache)
    assert flow_for(project) is flow_for(project)
