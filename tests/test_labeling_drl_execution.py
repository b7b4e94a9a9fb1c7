"""Tests for the execution-based DRL labeler (Section 5.3)."""

from __future__ import annotations

import random

import pytest

from repro.datasets import synthetic_spec, theorem1_grammar
from repro.errors import ExecutionError
from repro.labeling.drl import DRL
from repro.labeling.drl_execution import DRLExecutionLabeler
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
        name-mode run, which needs them."""
        run = small_run(running_spec, 300, seed=2)
        exe = execution_from_derivation(run)
        labelers = {
            mode: DRLExecutionLabeler(DRL(running_spec), mode=mode)
            for mode in ("name", "logged")
        }
        for labeler in labelers.values():
            labeler.run(exe)

        def indexes(labeler):
            return (
                labeler._expecting,
                labeler._slots_by_head,
                labeler._open_loops,
                labeler._open_forks,
            )

        assert indexes(labelers["logged"]) == ({}, {}, [], [])
        assert all(indexes(labelers["name"]))
        assert labelers["logged"].labels == labelers["name"].labels


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
