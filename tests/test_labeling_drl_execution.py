"""Tests for the execution-based DRL labeler (Section 5.3)."""

from __future__ import annotations

import gc
import random

import pytest

from repro.datasets import synthetic_spec, theorem1_grammar
from repro.errors import ExecutionError, LabelingError
from repro.labeling.compact import CompactDRL, is_packed, pack_label
from repro.labeling.drl import DRL
from repro.labeling.drl_execution import (
    DRLExecutionLabeler,
    _InstanceState,
    _Slot,
)
from repro.parsetree.explicit import NodeKind, ParseNode
from repro.service.wal import label_crc
from repro.workflow.execution import Insertion, execution_from_derivation

from tests.conftest import assert_labels_correct, small_run


class TestModeSetup:
    def test_unknown_mode_rejected(self, running_spec):
        scheme = DRL(running_spec)
        with pytest.raises(ExecutionError):
            DRLExecutionLabeler(scheme, mode="psychic")

    def test_name_mode_requires_naming_conditions(self):
        from repro.errors import SpecificationError

        spec = theorem1_grammar()  # violates condition 1
        scheme = DRL(spec, r_mode="one_r")
        with pytest.raises(SpecificationError):
            DRLExecutionLabeler(scheme, mode="name")

    def test_logged_mode_skips_naming_conditions(self):
        spec = theorem1_grammar()
        scheme = DRL(spec, r_mode="one_r")
        DRLExecutionLabeler(scheme, mode="logged")


class TestEquivalenceWithDerivationScheme:
    """Section 5.3: the converted scheme creates *the same* labels."""

    @pytest.mark.parametrize("mode", ["name", "logged"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_running_example(self, running_spec, mode, seed):
        run = small_run(running_spec, 200, seed=seed)
        scheme = DRL(running_spec)
        derivation_labels = scheme.label_derivation(run)
        exe = execution_from_derivation(run)  # deterministic order
        labeler = DRLExecutionLabeler(scheme, mode=mode)
        execution_labels = labeler.run(exe)
        for vid, label in execution_labels.items():
            assert label == derivation_labels[vid]

    @pytest.mark.parametrize("mode", ["name", "logged"])
    def test_bioaid(self, bioaid_spec, mode):
        run = small_run(bioaid_spec, 300, seed=3)
        scheme = DRL(bioaid_spec)
        derivation_labels = scheme.label_derivation(run)
        labeler = DRLExecutionLabeler(scheme, mode=mode)
        execution_labels = labeler.run(execution_from_derivation(run))
        for vid, label in execution_labels.items():
            assert label == derivation_labels[vid]

    def test_logged_mode_on_nonlinear_grammar(self):
        spec = theorem1_grammar()
        run = small_run(spec, 150, seed=4)
        scheme = DRL(spec, r_mode="one_r")
        derivation_labels = scheme.label_derivation(run)
        labeler = DRLExecutionLabeler(scheme, mode="logged")
        execution_labels = labeler.run(execution_from_derivation(run))
        for vid, label in execution_labels.items():
            assert label == derivation_labels[vid]

    def test_logged_mode_fills_no_name_mode_index(self, running_spec):
        """The log names every copy, so a logged run leaves the four
        name-inference indexes empty -- and labels exactly as a
        name-mode run, which fills them mid-run and empties them as its
        copies close."""
        run = small_run(running_spec, 300, seed=2)
        exe = execution_from_derivation(run)
        labelers = {
            mode: DRLExecutionLabeler(DRL(running_spec), mode=mode)
            for mode in ("name", "logged")
        }
        middle = len(exe) // 2
        for labeler in labelers.values():
            for insertion in exe.insertions[:middle]:
                labeler.insert(insertion)
        assert index_length(labelers["logged"]) == 0
        assert index_length(labelers["name"]) > 0
        for labeler in labelers.values():
            for insertion in exe.insertions[middle:]:
                labeler.insert(insertion)
        assert index_length(labelers["logged"]) == 0
        assert index_length(labelers["name"]) == 0
        assert labelers["logged"].labels == labelers["name"].labels

    @pytest.mark.parametrize("scheme_cls", [DRL, CompactDRL])
    @pytest.mark.parametrize("mode", ["name", "logged"])
    def test_both_factories_in_both_modes(
        self, running_spec, bioaid_spec, scheme_cls, mode
    ):
        """Closing copies changes no label: the execution labeler still
        equals the derivation labeler on either label factory."""
        for spec, size, seed in ((running_spec, 1500, 1), (bioaid_spec, 1500, 2)):
            run = small_run(spec, size, seed=seed)
            scheme = scheme_cls(spec)
            derivation_labels = scheme.label_derivation(run)
            labels = DRLExecutionLabeler(scheme, mode=mode).run(
                execution_from_derivation(run)
            )
            assert len(labels) == run.run_size()
            for vid, label in labels.items():
                assert label == derivation_labels[vid]


def index_length(labeler):
    """Total entries of the four name-inference indexes."""
    return (
        sum(map(len, labeler._expecting.values()))
        + sum(map(len, labeler._slots_by_head.values()))
        + len(labeler._open_loops)
        + len(labeler._open_forks)
    )


def packed_crc(spec, labels):
    """label_crc of labels of either factory, in their packed form."""
    bitsets = CompactDRL(spec).bitsets
    return label_crc(
        [label if is_packed(label) else pack_label(bitsets, label)
         for label in labels]
    )


#: label_crc of the packed labels of random-order executions, in
#: insertion order, recorded before the labeler dropped closed copies:
#: (spec, run size, run seed, order seed) -> fingerprint.  Random
#: orders start fork copies out of derivation order, so these labels
#: differ from the derivation labeler's and are pinned here instead.
RANDOM_ORDER_FINGERPRINTS = {
    ("running-example", 200, 5, 5): 3850844827,
    ("running-example", 200, 6, 6): 561955928,
    ("running-example", 2000, 1, 2): 2338244418,
    ("bioaid", 250, 9, 10): 1805225629,
    ("bioaid", 2000, 1, 2): 809213028,
    ("synthetic-linear", 250, 7, 8): 3892589638,
}


@pytest.mark.parametrize(
    "case", sorted(RANDOM_ORDER_FINGERPRINTS),
    ids=["-".join(map(str, case)) for case in sorted(RANDOM_ORDER_FINGERPRINTS)],
)
def test_random_order_labels_are_unchanged(
    case, running_spec, bioaid_spec, synthetic_linear_spec
):
    spec_name, size, seed, order_seed = case
    spec = {
        "running-example": running_spec,
        "bioaid": bioaid_spec,
        "synthetic-linear": synthetic_linear_spec,
    }[spec_name]
    exe = execution_from_derivation(
        small_run(spec, size, seed=seed), random.Random(order_seed)
    )
    for scheme_cls in (DRL, CompactDRL):
        for mode in ("name", "logged"):
            labels = DRLExecutionLabeler(scheme_cls(spec), mode=mode).run(exe)
            assert packed_crc(spec, [labels[i.vid] for i in exe]) == (
                RANDOM_ORDER_FINGERPRINTS[case]
            ), (scheme_cls.__name__, mode)


class TestOpenFrontier:
    """The labeler keeps only what copies whose sink is still unlabeled
    read: retention follows the open copies, not the insertions seen."""

    def retained(self, labeler):
        """(ParseNode, _InstanceState, _Slot) objects the labeler
        reaches, labels aside (they are tuples of ints)."""
        counts = {ParseNode: 0, _InstanceState: 0, _Slot: 0}
        seen = {id(labeler.labels)}
        stack = [labeler]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if type(obj) in counts:
                counts[type(obj)] += 1
            stack.extend(gc.get_referents(obj))
        return counts[ParseNode], counts[_InstanceState], counts[_Slot]

    @pytest.mark.parametrize("mode", ["name", "logged"])
    @pytest.mark.parametrize(
        "spec_name,size", [("running-example", 8000), ("bioaid", 8000)]
    )
    def test_retention_follows_the_open_copies(
        self, running_spec, bioaid_spec, spec_name, size, mode
    ):
        spec = running_spec if spec_name == "running-example" else bioaid_spec
        exe = execution_from_derivation(small_run(spec, size, seed=0))
        assert len(exe) > size * 0.75
        # per copy: one state, a slot per composite vertex, its own node
        # and at most one L, F or R node under each slot
        slots_per_copy = max(
            sum(
                1 for v in spec.graph(key).vertices()
                if not spec.is_atomic(spec.graph(key).name(v))
            )
            for key in spec.graph_keys()
        )
        vertices_per_copy = max(
            len(spec.graph(key)) for key in spec.graph_keys()
        )
        labeler = DRLExecutionLabeler(CompactDRL(spec), mode=mode)
        opened, closed = set(), set()
        quarters = {len(exe) * q // 4 for q in (1, 2, 3)}
        checked = 0
        for position, insertion in enumerate(exe, start=1):
            labeler.insert(insertion)
            key, token, tv = insertion.origin
            if tv == spec.graph(key).source:
                opened.add(token)
            if tv == spec.graph(key).sink:
                closed.add(token)
            if position not in quarters:
                continue
            live = len(opened - closed)
            nodes, states, slots = self.retained(labeler)
            assert states <= live
            assert slots <= live * slots_per_copy
            assert nodes <= 1 + live * (1 + slots_per_copy)
            assert index_length(labeler) <= live * vertices_per_copy
            checked += 1
        assert checked == 3
        assert opened == closed
        # a complete run keeps its root node and nothing else
        assert self.retained(labeler) == (1, 0, 0)
        assert index_length(labeler) == 0
        assert labeler._by_token == {}

    def test_factories_forget_closed_nodes(self, running_spec):
        exe = execution_from_derivation(small_run(running_spec, 2000, seed=3))
        for scheme_cls in (DRL, CompactDRL):
            labeler = DRLExecutionLabeler(scheme_cls(running_spec), "logged")
            labeler.run(exe)
            factory = labeler.factory
            caches = [
                getattr(factory, name)
                for name in ("_prefix", "_indexes", "_metas", "_key")
                if hasattr(factory, name)
            ]
            assert caches and all(cache == {} for cache in caches)

    @pytest.mark.parametrize("scheme_cls", [DRL, CompactDRL])
    def test_a_forgotten_node_takes_no_child(self, running_spec, scheme_cls):
        """A malformed log can name a copy below a closed one; building
        under a forgotten node is refused and leaves no entry."""
        factory = scheme_cls(running_spec).make_factory()
        root = ParseNode(NodeKind.N, None)
        factory.register_node(root, "g0", None)
        loop = ParseNode(NodeKind.L, root)
        factory.register_node(loop, None, 1)
        factory.forget(loop)
        with pytest.raises(LabelingError, match="never registered"):
            factory.register_node(ParseNode(NodeKind.N, loop), "L#0", None)
        assert list(factory._key) == [root]


class TestRandomOrderCorrectness:
    """Arbitrary topological insertion orders still label correctly."""

    @pytest.mark.parametrize("mode", ["name", "logged"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_running_example(self, running_spec, mode, seed):
        run = small_run(running_spec, 200, seed=seed)
        scheme = DRL(running_spec)
        exe = execution_from_derivation(run, random.Random(seed))
        labeler = DRLExecutionLabeler(scheme, mode=mode)
        labels = labeler.run(exe)
        assert_labels_correct(
            run.graph, labels, scheme.query, sample=4000, rng=random.Random(seed)
        )

    def test_synthetic_linear(self, synthetic_linear_spec):
        run = small_run(synthetic_linear_spec, 250, seed=7)
        scheme = DRL(synthetic_linear_spec)
        exe = execution_from_derivation(run, random.Random(8))
        labels = DRLExecutionLabeler(scheme, mode="name").run(exe)
        assert_labels_correct(
            run.graph, labels, scheme.query, sample=4000, rng=random.Random(8)
        )

    def test_bioaid_logged(self, bioaid_spec):
        run = small_run(bioaid_spec, 250, seed=9)
        scheme = DRL(bioaid_spec)
        exe = execution_from_derivation(run, random.Random(10))
        labels = DRLExecutionLabeler(scheme, mode="logged").run(exe)
        assert_labels_correct(
            run.graph, labels, scheme.query, sample=4000, rng=random.Random(10)
        )


class TestOnTheFlyQueries:
    def test_queries_answered_during_execution(self, running_spec):
        """The headline capability: query as soon as data is produced."""
        from repro.graphs.digraph import NamedDAG
        from repro.graphs.reachability import reaches

        run = small_run(running_spec, 120, seed=11)
        scheme = DRL(running_spec)
        exe = execution_from_derivation(run, random.Random(12))
        labeler = DRLExecutionLabeler(scheme, mode="name")
        partial = NamedDAG()
        rng = random.Random(13)
        inserted = []
        for ins in exe:
            labeler.insert(ins)
            partial.add_vertex(ins.vid, ins.name)
            for p in ins.preds:
                partial.add_edge(p, ins.vid)
            inserted.append(ins.vid)
            for _ in range(5):
                a, b = rng.choice(inserted), rng.choice(inserted)
                assert scheme.query(
                    labeler.label(a), labeler.label(b)
                ) == reaches(partial, a, b)


class TestErrorHandling:
    def test_duplicate_insert_rejected(self, running_spec):
        run = small_run(running_spec, 60, seed=14)
        scheme = DRL(running_spec)
        exe = execution_from_derivation(run)
        labeler = DRLExecutionLabeler(scheme, mode="name")
        first = exe.insertions[0]
        labeler.insert(first)
        with pytest.raises(ExecutionError):
            labeler.insert(first)

    def test_wrong_first_vertex_rejected(self, running_spec):
        scheme = DRL(running_spec)
        labeler = DRLExecutionLabeler(scheme, mode="name")
        with pytest.raises(ExecutionError):
            labeler.insert(Insertion(vid=0, name="t0", preds=frozenset()))

    def test_first_vertex_with_preds_rejected(self, running_spec):
        scheme = DRL(running_spec)
        labeler = DRLExecutionLabeler(scheme, mode="name")
        with pytest.raises(ExecutionError):
            labeler.insert(Insertion(vid=5, name="s0", preds=frozenset((1,))))

    def test_unknown_internal_vertex_rejected(self, running_spec):
        run = small_run(running_spec, 60, seed=15)
        scheme = DRL(running_spec)
        exe = execution_from_derivation(run)
        labeler = DRLExecutionLabeler(scheme, mode="name")
        labeler.insert(exe.insertions[0])
        with pytest.raises(ExecutionError):
            labeler.insert(
                Insertion(vid=999, name="t5", preds=frozenset((exe.insertions[0].vid,)))
            )

    def test_logged_mode_requires_origin(self, running_spec):
        scheme = DRL(running_spec)
        labeler = DRLExecutionLabeler(scheme, mode="logged")
        with pytest.raises(ExecutionError):
            labeler.insert(Insertion(vid=0, name="s0", preds=frozenset()))

    def test_label_of_unknown_vertex(self, running_spec):
        scheme = DRL(running_spec)
        labeler = DRLExecutionLabeler(scheme, mode="name")
        with pytest.raises(ExecutionError):
            labeler.label(3)


class TestLoggedRefusals:
    """Logged mode refuses an origin that contradicts the copy it names
    and an insertion that names a closed copy.  A refusal leaves no
    trace: the rest of the run labels exactly as it would without it."""

    def check_refused(self, spec, size, after, bad, match):
        exe = execution_from_derivation(small_run(spec, size, seed=0))
        clean = DRLExecutionLabeler(CompactDRL(spec), mode="logged").run(exe)
        labeler = DRLExecutionLabeler(CompactDRL(spec), mode="logged")
        for insertion in exe.insertions[:after]:
            labeler.insert(insertion)
        with pytest.raises(ExecutionError, match=f"vertex {bad.vid}: .*{match}"):
            labeler.insert(bad)
        assert bad.vid not in labeler.labels
        for insertion in exe.insertions[after:]:
            labeler.insert(insertion)
        assert labeler.labels == clean

    # running-example, seed 0, opens with s0 (0), s1 (3, copy 1 of L#0
    # in slot (0, 1)) and s2 (12, copy 4 of F#0 in slot (1, 1)); then
    # copy 12 of A#1 (36, 37), t2 (14, closing copy 4) and t1 (5,
    # closing copy 1)

    def test_composite_origin_is_refused(self, running_spec):
        # template vertex 1 of L#0 is the fork module F
        bad = Insertion(900, "F", frozenset({3}), ("L#0", 1, 1), (0, 1))
        self.check_refused(running_spec, 120, 3, bad, "not an atomic module")

    def test_source_of_another_module_is_refused(self, running_spec):
        # B#0 implements B, not the F at slot (1, 1)
        bad = Insertion(902, "s5", frozenset({3}), ("B#0", 99, 0), (1, 1))
        self.check_refused(running_spec, 120, 3, bad, "does not implement 'F'")

    def test_second_vertex_on_a_bound_origin_is_refused(self, bioaid_spec):
        # BioAID's run opens with src_run (0) and load_query (1, ("g0",
        # 0, 1)) in the start copy, which stays open
        bad = Insertion(
            901, "load_query", frozenset({0}), ("g0", 0, 1), None
        )
        self.check_refused(bioaid_spec, 60, 2, bad, "already vertex 1")

    def test_vertex_of_a_closed_copy_is_refused(self, running_spec):
        # t2 of copy 4 again, after 14 closed it
        bad = Insertion(903, "t2", frozenset({37}), ("F#0", 4, 2), (1, 1))
        self.check_refused(running_spec, 120, 7, bad, "closed .*token 4")

    def test_copy_under_a_closed_owner_is_refused(self, running_spec):
        # a further fork copy in slot (1, 1) of copy 1, after 5 closed it
        bad = Insertion(904, "s2", frozenset({3}), ("F#0", 99, 0), (1, 1))
        self.check_refused(running_spec, 120, 7, bad, "closed parent copy 1")

    def test_vertex_of_a_closed_copy_is_refused_in_name_mode(
        self, running_spec
    ):
        exe = execution_from_derivation(small_run(running_spec, 120, seed=0))
        labeler = DRLExecutionLabeler(CompactDRL(running_spec), mode="name")
        for insertion in exe.insertions[:7]:
            labeler.insert(insertion)
        # a second s2 after copy 1 of L#0 closed: its fork slot is gone
        with pytest.raises(ExecutionError, match="vertex 904 .*no composite"):
            labeler.insert(Insertion(904, "s2", frozenset({3})))
