"""Property-based tests (hypothesis) on the core invariants.

Each property draws a random grammar shape from the generalized Figure 13
family, derives a random run and checks an end-to-end invariant:
label-based answers equal BFS ground truth, execution-based labels equal
derivation-based ones, the Lemma 4.1 depth bound holds, and label
serialization round-trips.  One more draws single events: any event
round-trips through the write-ahead log's row spelling.
"""

from __future__ import annotations

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import layered_spec
from repro.graphs.random_graphs import random_two_terminal_dag
from repro.graphs.reachability import reaches
from repro.io.jsonio import insertion_to_json
from repro.labeling.drl import DRL
from repro.labeling.drl_execution import DRLExecutionLabeler
from repro.labeling.naive_dynamic import NaiveDynamicScheme
from repro.labeling.serialize import LabelCodec
from repro.labeling.skl import SKL
from repro.parsetree.explicit import build_explicit_tree
from repro.service.sessions import insertion_from_row, insertion_to_row
from repro.workflow.derivation import DerivationPolicy, random_derivation
from repro.workflow.execution import Insertion, execution_from_derivation
from repro.workflow.grammar import analyze_grammar

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

level_kinds = st.lists(
    st.sampled_from(["plain", "loop", "fork"]), min_size=1, max_size=3
)

spec_params = st.fixed_dictionaries(
    {
        "kinds": level_kinds,
        "sub_size": st.integers(min_value=5, max_value=9),
        "recursion": st.sampled_from(["none", "linear", "parallel"]),
        "seed": st.integers(min_value=0, max_value=10_000),
        "alt_impls": st.integers(min_value=1, max_value=3),
    }
)

run_seeds = st.integers(min_value=0, max_value=10_000)

relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def make_spec_and_run(params, run_seed, target=120):
    spec = layered_spec(**params)
    policy = DerivationPolicy(rng=random.Random(run_seed), target_size=target)
    info = analyze_grammar(spec)
    return spec, info, random_derivation(spec, policy, info=info)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@relaxed
@given(params=spec_params, run_seed=run_seeds)
def test_drl_matches_ground_truth(params, run_seed):
    """Every DRL answer equals BFS reachability on the run graph."""
    spec, info, run = make_spec_and_run(params, run_seed)
    scheme = DRL(spec, info=info)
    labels = scheme.label_derivation(run)
    g = run.graph
    vs = sorted(g.vertices())
    rng = random.Random(run_seed)
    for _ in range(600):
        a, b = rng.choice(vs), rng.choice(vs)
        assert scheme.query(labels[a], labels[b]) == reaches(g, a, b)


@relaxed
@given(params=spec_params, run_seed=run_seeds)
def test_execution_equals_derivation_labels(params, run_seed):
    """Section 5.3: logged execution labeling reproduces derivation labels."""
    spec, info, run = make_spec_and_run(params, run_seed)
    scheme = DRL(spec, info=info)
    derivation_labels = scheme.label_derivation(run)
    labeler = DRLExecutionLabeler(scheme, mode="logged")
    execution_labels = labeler.run(execution_from_derivation(run))
    assert execution_labels == {
        v: derivation_labels[v] for v in execution_labels
    }


@relaxed
@given(params=spec_params, run_seed=run_seeds)
def test_random_order_execution_correct(params, run_seed):
    """Random topological insertion orders still answer correctly."""
    spec, info, run = make_spec_and_run(params, run_seed)
    scheme = DRL(spec, info=info)
    exe = execution_from_derivation(run, random.Random(run_seed + 1))
    labels = DRLExecutionLabeler(scheme, mode="logged").run(exe)
    g = run.graph
    vs = sorted(g.vertices())
    rng = random.Random(run_seed)
    for _ in range(400):
        a, b = rng.choice(vs), rng.choice(vs)
        assert scheme.query(labels[a], labels[b]) == reaches(g, a, b)


@relaxed
@given(params=spec_params, run_seed=run_seeds)
def test_depth_bound_for_linear_grammars(params, run_seed):
    """Lemma 4.1: explicit parse tree depth <= 2 |composites|."""
    spec, info, run = make_spec_and_run(params, run_seed)
    if not info.is_linear:
        return  # the bound is only claimed for linear recursive grammars
    tree = build_explicit_tree(run, info=info)
    assert tree.depth() <= tree.depth_bound()


@relaxed
@given(params=spec_params, run_seed=run_seeds)
def test_label_serialization_round_trips(params, run_seed):
    """decode(encode(label)) == label and size matches the bit count."""
    spec, info, run = make_spec_and_run(params, run_seed, target=60)
    scheme = DRL(spec, info=info)
    labels = scheme.label_derivation(run)
    codec = LabelCodec(spec)
    for label in labels.values():
        payload, bits = codec.encode(label)
        assert codec.decode(payload, bits) == label
        assert len(payload) * 8 >= bits


@relaxed
@given(
    size=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_naive_scheme_on_random_dags(size, seed):
    """The Section 3.2 scheme is correct on arbitrary DAG executions."""
    rng = random.Random(seed)
    g = random_two_terminal_dag(size, rng).dag
    scheme = NaiveDynamicScheme()
    for v in g.topological_order():
        scheme.insert(v, preds=g.predecessors(v))
    vs = sorted(g.vertices())
    for _ in range(300):
        a, b = rng.choice(vs), rng.choice(vs)
        assert scheme.query(scheme.label(a), scheme.label(b)) == reaches(g, a, b)


@relaxed
@given(
    kinds=st.lists(st.sampled_from(["plain", "loop", "fork"]), min_size=1, max_size=3),
    sub_size=st.integers(min_value=5, max_value=9),
    spec_seed=st.integers(min_value=0, max_value=10_000),
    run_seed=run_seeds,
)
def test_skl_matches_ground_truth(kinds, sub_size, spec_seed, run_seed):
    """The static SKL baseline is correct on non-recursive runs."""
    spec = layered_spec(
        kinds=kinds, sub_size=sub_size, recursion="none", seed=spec_seed
    )
    info = analyze_grammar(spec)
    policy = DerivationPolicy(rng=random.Random(run_seed), target_size=100)
    run = random_derivation(spec, policy, info=info)
    skl = SKL(spec, skeleton="tcl", info=info)
    labels = skl.label_run(run)
    g = run.graph
    vs = sorted(g.vertices())
    rng = random.Random(run_seed)
    for _ in range(500):
        a, b = rng.choice(vs), rng.choice(vs)
        assert skl.query(labels[a], labels[b]) == reaches(g, a, b)


@relaxed
@given(params=spec_params)
def test_normalization_always_repairs_conditions(params):
    """normalize() yields a spec satisfying the Section 5.3 conditions
    with the grammar class preserved."""
    from repro.workflow.normalize import normalize_specification
    from repro.workflow.validation import naming_condition_violations

    spec = layered_spec(**params)
    normalized, _ = normalize_specification(spec)
    assert naming_condition_violations(normalized) == []
    before = analyze_grammar(spec)
    after = analyze_grammar(normalized)
    assert before.grammar_class is after.grammar_class


@relaxed
@given(params=spec_params, run_seed=run_seeds)
def test_general_dag_indexes_agree_with_drl(params, run_seed):
    """Chain decomposition and GRAIL answer exactly like DRL on runs."""
    from repro.labeling.chains import ChainIndex
    from repro.labeling.grail import GrailIndex

    spec, info, run = make_spec_and_run(params, run_seed, target=80)
    scheme = DRL(spec, info=info)
    labels = scheme.label_derivation(run)
    graph = run.graph
    chains = ChainIndex(graph)
    grail = GrailIndex(graph, traversals=2, rng=random.Random(run_seed))
    vs = sorted(graph.vertices())
    rng = random.Random(run_seed)
    for _ in range(300):
        a, b = rng.choice(vs), rng.choice(vs)
        expected = scheme.query(labels[a], labels[b])
        assert chains.reaches(a, b) == expected
        assert grail.reaches(a, b) == expected


@relaxed
@given(params=spec_params, run_seed=run_seeds)
def test_io_round_trip_preserves_labels(params, run_seed):
    """Persisting the spec + execution + labels and reloading them
    reproduces identical query answers."""
    from repro.io import (
        execution_from_json,
        execution_to_json,
        specification_from_json,
        specification_to_json,
    )

    spec, info, run = make_spec_and_run(params, run_seed, target=60)
    reloaded_spec = specification_from_json(specification_to_json(spec))
    exe = execution_from_derivation(run)
    reloaded_events = execution_from_json(
        execution_to_json(exe.insertions, spec.name)
    )
    scheme = DRL(spec, info=info)
    original = DRLExecutionLabeler(scheme, mode="logged").run(exe)
    scheme2 = DRL(reloaded_spec)
    labeler2 = DRLExecutionLabeler(scheme2, mode="logged")
    for ins in reloaded_events:
        labeler2.insert(ins)
    vs = sorted(original)
    rng = random.Random(run_seed)
    for _ in range(200):
        a, b = rng.choice(vs), rng.choice(vs)
        assert scheme.query(original[a], original[b]) == scheme2.query(
            labeler2.label(a), labeler2.label(b)
        )


@relaxed
@given(params=spec_params, run_seed=run_seeds)
def test_labels_are_dynamic_never_rewritten(params, run_seed):
    """Labels assigned at any step survive all later steps unchanged."""
    spec, info, run = make_spec_and_run(params, run_seed, target=80)
    scheme = DRL(spec, info=info)
    labeler = scheme.labeler()
    labeler.begin(run.start_instance)
    snapshot = dict(labeler.labels)
    for step in run.steps:
        labeler.apply_step(step)
        for vid, label in snapshot.items():
            assert labeler.labels[vid] == label
        snapshot = dict(labeler.labels)


# any JSON integer, the large ones beyond 64 bits drawn on purpose
json_ints = st.integers() | st.integers(min_value=2**63, max_value=2**200)

insertions = st.builds(
    Insertion,
    vid=json_ints,
    name=st.text(),
    preds=st.frozensets(json_ints, max_size=6),
    origin=st.none() | st.tuples(st.text(), json_ints, json_ints),
    slot=st.none() | st.tuples(json_ints, json_ints),
)


@settings(max_examples=300, deadline=None)
@given(insertion=insertions)
def test_logged_event_round_trips(insertion):
    """Any event survives its log row through ``json.dumps`` and the
    decoder -- big ints, non-ASCII names, absent origin or slot -- and
    so does its version-2 execution-log object."""
    row = json.loads(json.dumps(insertion_to_row(insertion)))
    assert insertion_from_row(row) == insertion
    old = json.loads(json.dumps(insertion_to_json(insertion)))
    assert insertion_from_row(old) == insertion
