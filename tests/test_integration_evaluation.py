"""Section 7 claims that no experiment driver's rows hold.

``tests/test_paper_reproduction.py`` asserts the claims the drivers'
rows measure (Figures 14-22, Table 2); these re-run the rest at a scale
that runs in seconds.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets import synthetic_spec
from repro.labeling.drl import DRL
from repro.labeling.drl_execution import DRLExecutionLabeler
from repro.labeling.skl import SKL
from repro.workflow.execution import execution_from_derivation

from tests.conftest import small_run


def max_bits(scheme, run, labels):
    return max(scheme.label_bits(labels[v]) for v in run.graph.vertices())


class TestSection72BioAid:
    """Section 7.2 claims on the BioAID-like workflow."""

    def test_spec_overhead_negligible(self, bioaid_spec):
        # Section 7.2: skeleton labels take negligible storage
        scheme = DRL(bioaid_spec, skeleton="tcl")
        run = small_run(bioaid_spec, 1500, seed=8)
        labels = scheme.label_derivation(run)
        run_label_bits = sum(
            scheme.label_bits(labels[v]) for v in run.graph.vertices()
        )
        assert scheme.skeleton.total_bits() < run_label_bits / 20


class TestSection73Synthetic:
    """Figure 17/18 claims on the synthetic family."""

    def test_depth_dominates_size(self):
        # the paper's conclusion: nesting depth is the main factor
        run_target = 1500
        shallow_small = synthetic_spec(10, 5, seed=1)
        shallow_big = synthetic_spec(80, 5, seed=1)
        deep_small = synthetic_spec(10, 15, seed=1)

        def measure(spec):
            scheme = DRL(spec)
            run = small_run(spec, run_target, seed=2)
            labels = scheme.label_derivation(run)
            return max_bits(scheme, run, labels)

        base = measure(shallow_small)
        size_effect = measure(shallow_big) - base
        depth_effect = measure(deep_small) - base
        assert depth_effect > 2 * max(size_effect, 1)


class TestSection74DrlVsSkl:
    """Section 7.4 claims on the non-recursive BioAID variant."""

    @pytest.fixture(scope="class")
    def setting(self, bioaid_norec_spec):
        drl = DRL(bioaid_norec_spec)
        skl = SKL(bioaid_norec_spec, skeleton="tcl")
        return bioaid_norec_spec, drl, skl

    def test_both_schemes_agree_on_answers(self, setting):
        from repro.graphs.reachability import reaches

        spec, drl, skl = setting
        run = small_run(spec, 600, seed=22)
        drl_labels = drl.label_derivation(run)
        skl_labels = skl.label_run(run)
        vs = sorted(run.graph.vertices())
        rng = random.Random(23)
        for _ in range(3000):
            a, b = rng.choice(vs), rng.choice(vs)
            expected = reaches(run.graph, a, b)
            assert drl.query(drl_labels[a], drl_labels[b]) == expected
            assert skl.query(skl_labels[a], skl_labels[b]) == expected

    def test_drl_labels_available_before_completion(self, setting):
        """The qualitative advantage the paper leads with: SKL needs the
        whole run, DRL labels a prefix."""
        spec, drl, _ = setting
        run = small_run(spec, 400, seed=24)
        exe = execution_from_derivation(run)
        labeler = DRLExecutionLabeler(drl, mode="name")
        half = len(exe.insertions) // 2
        for ins in exe.insertions[:half]:
            labeler.insert(ins)
        # half the run is labeled and queryable right now
        assert len(labeler.labels) == half
        a = exe.insertions[0].vid
        b = exe.insertions[half - 1].vid
        assert isinstance(drl.query(labeler.label(a), labeler.label(b)), bool)


class TestNormalizationPreservesLanguage:
    def test_bounded_run_counts_match(self, theorem1_spec):
        from repro.workflow.enumerate_runs import count_runs
        from repro.workflow.normalize import normalize_specification

        normalized, _ = normalize_specification(theorem1_spec)
        original_count = count_runs(theorem1_spec, max_size=30, max_copies=1)
        normalized_count = count_runs(normalized, max_size=30, max_copies=1)
        assert original_count == normalized_count
