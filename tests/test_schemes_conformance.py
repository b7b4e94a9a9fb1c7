"""Cross-scheme conformance: every registered scheme vs BFS ground truth.

One parametrized suite replaces the per-scheme ground-truth loops: for
every scheme name in :mod:`repro.schemes.registry` and every shared
workload fixture (random two-terminal DAGs, the running example, the
non-recursive BioAID spec, the Figure 12 path grammar), the scheme is
built through the registry and its ``reaches`` answers are compared
against BFS on the materialized graph.  Schemes that declare a workload
unsupported are *skipped with their own reason* -- but the coverage
guard at the bottom fails the suite if a registered scheme is never
exercised at all, so registering a new scheme without a conformance
entry breaks CI by construction.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import (
    LabelingError,
    ServiceError,
    UnsupportedWorkflowError,
)
from repro.graphs.random_graphs import random_two_terminal_dag
from repro.schemes import (
    DynamicScheme,
    Scheme,
    StaticScheme,
    Workload,
    registry,
)
from repro.workflow.derivation import sample_run

from tests.conftest import assert_reaches_matches_bfs

# Every scheme the registry is expected to carry.  A newly registered
# scheme must be added here (and thereby to the conformance matrix);
# the guard tests fail otherwise.
EXPECTED_SCHEMES = {
    "chains",
    "drl",
    "grail",
    "naive",
    "path-position",
    "skl",
    "tree-transform",
    "twohop",
}

# (workload id, factory) -- shared across every scheme.  Factories are
# deferred so collection stays cheap; results are cached per session.
_WORKLOAD_CACHE = {}


def _random_dag_workload(seed):
    graph = random_two_terminal_dag(28, random.Random(seed)).dag
    return Workload.from_graph(graph)


def _run_workload(spec_factory, size, seed):
    spec = spec_factory()
    return Workload.from_run(spec, sample_run(spec, size, random.Random(seed)))


def _workload(name):
    if name not in _WORKLOAD_CACHE:
        from repro.datasets import bioaid, fig12_path_grammar, running_example

        factories = {
            "random-dag-0": lambda: _random_dag_workload(0),
            "random-dag-1": lambda: _random_dag_workload(1),
            "running-example": lambda: _run_workload(
                running_example, 150, 3
            ),
            "bioaid-norec": lambda: _run_workload(
                lambda: bioaid(recursive=False), 150, 5
            ),
            "fig12-path": lambda: _run_workload(fig12_path_grammar, 60, 7),
        }
        _WORKLOAD_CACHE[name] = factories[name]()
    return _WORKLOAD_CACHE[name]


WORKLOAD_IDS = [
    "random-dag-0",
    "random-dag-1",
    "running-example",
    "bioaid-norec",
    "fig12-path",
]

# exhaustive all-pairs on the small workloads, sampled on the runs
_SAMPLE = {
    "running-example": 4000,
    "bioaid-norec": 4000,
}


def _build_or_skip(scheme_name, workload_id):
    workload = _workload(workload_id)
    cls = registry.get(scheme_name)
    reason = cls.supports(workload)
    if reason is not None:
        pytest.skip(reason)
    try:
        return registry.build(scheme_name, workload), workload
    except UnsupportedWorkflowError as exc:
        # e.g. the tree transform's blow-up guard on wide fork runs
        pytest.skip(str(exc))


class TestConformance:
    @pytest.mark.parametrize("workload_id", WORKLOAD_IDS)
    @pytest.mark.parametrize("scheme_name", sorted(EXPECTED_SCHEMES))
    def test_matches_bfs(self, scheme_name, workload_id):
        scheme, workload = _build_or_skip(scheme_name, workload_id)
        assert_reaches_matches_bfs(
            workload.graph,
            scheme.reaches,
            sample=_SAMPLE.get(workload_id),
            rng=random.Random(99),
        )

    @pytest.mark.parametrize("scheme_name", sorted(EXPECTED_SCHEMES))
    def test_reflexive_and_accounted(self, scheme_name):
        """Every scheme is reflexive, bit-accounted, and label-complete."""
        workload_id = (
            "fig12-path" if scheme_name == "path-position" else "random-dag-0"
        )
        if scheme_name in ("drl", "skl"):
            workload_id = "running-example"
        if scheme_name == "skl":
            workload_id = "bioaid-norec"
        scheme, workload = _build_or_skip(scheme_name, workload_id)
        vertices = sorted(workload.graph.vertices())
        assert sorted(scheme.labeled_vertices()) == vertices
        for v in vertices[:10]:
            assert scheme.reaches(v, v)
            assert scheme.label_bits_of(v) >= 0
            scheme.label_of(v)  # must not raise
        assert scheme.total_bits() >= 0
        with pytest.raises(LabelingError):
            scheme.label_of(10**9)


class TestRegistryContract:
    def test_every_scheme_has_a_conformance_entry(self):
        """Registering a scheme without adding it here fails the suite."""
        assert set(registry.available()) == EXPECTED_SCHEMES

    def test_capability_typing(self):
        for name in registry.available():
            cls = registry.get(name)
            assert issubclass(cls, Scheme)
            if cls.capabilities.dynamic:
                assert issubclass(cls, DynamicScheme)
            else:
                assert issubclass(cls, StaticScheme)

    def test_dynamic_filter(self):
        dynamic = set(registry.available(dynamic=True))
        static = set(registry.available(dynamic=False))
        assert dynamic == {"drl", "naive", "path-position"}
        assert dynamic | static == EXPECTED_SCHEMES
        assert not dynamic & static

    def test_names_are_normalized(self):
        assert registry.get("DRL").name == "drl"
        assert registry.get("tree_transform").name == "tree-transform"

    def test_unknown_name_rejected(self):
        with pytest.raises(LabelingError):
            registry.get("no-such-scheme")

    def test_static_scheme_cannot_open_a_session(self):
        with pytest.raises(ServiceError):
            registry.open_dynamic("grail")

    def test_describe_is_wire_serializable(self):
        import json

        records = registry.describe()
        assert {r["name"] for r in records} == EXPECTED_SCHEMES
        json.dumps(records)  # must not raise
        for record in records:
            assert set(record) >= {"name", "dynamic", "exact", "needs_spec"}

    def test_grail_is_the_only_inexact_filter(self):
        inexact = {
            name
            for name in registry.available()
            if not registry.get(name).capabilities.exact
        }
        assert inexact == {"grail"}


class TestDynamicIncrementality:
    """Dynamic schemes answer correctly mid-stream; labels are final."""

    @pytest.mark.parametrize("scheme_name", ["drl", "naive", "path-position"])
    def test_labels_final_mid_stream(self, scheme_name):
        workload_id = (
            "fig12-path" if scheme_name == "path-position" else
            "running-example"
        )
        workload = _workload(workload_id)
        scheme = registry.open_dynamic(scheme_name, workload.spec)
        insertions = workload.insertions
        half = len(insertions) // 2
        for insertion in insertions[:half]:
            scheme.insert(insertion)
        frozen = {v: scheme.label_of(v) for v in scheme.labeled_vertices()}
        seen = sorted(frozen)
        rng = random.Random(13)
        pairs = [
            (rng.choice(seen), rng.choice(seen)) for _ in range(400)
        ]
        from repro.graphs.reachability import reaches as bfs

        for a, b in pairs:
            assert scheme.reaches(a, b) == bfs(workload.graph, a, b)
        for insertion in insertions[half:]:
            scheme.insert(insertion)
        for vid, label in frozen.items():
            assert scheme.label_of(vid) == label, "label changed after insert"
