"""Packed labels held as columns indexed by vid (repro.labeling.compact).

A packed session keeps, per vertex, its node row and final meta word in
two 32-bit columns indexed by vid, and any vid the columns do not hold
-- negative, far-sparse or huge -- in a side dict.  These tests hold the
store to the dict of labels it replaced: the same answers and label
fingerprints whatever the vids, the same error for an unlabeled vid,
duplicates refused before any state changes, iteration in bind order --
and to its point, the bytes a hosted vertex keeps.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import tracemalloc
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import spec_by_name
from repro.errors import ExecutionError, LabelingError
from repro.graphs.reachability import reaches
from repro.io.jsonio import insertion_to_json
from repro.labeling.compact import (
    HOLE,
    CompactDRL,
    PackedLabels,
    SkeletonBitsets,
)
from repro.labeling.drl_execution import DRLExecutionLabeler
from repro.parsetree.explicit import NodeKind, ParseNode
from repro.service.server import ReproService
from repro.service.sessions import Session
from repro.workflow.derivation import sample_run
from repro.workflow.execution import Execution, execution_from_derivation

HUGE = 2 ** 63

#: each kind of vid, as a function of the run's own (dense) vid
KINDS = {
    "dense": lambda vid: vid,
    "sparse": lambda vid: (vid + 1) * 10 ** 6,
    "negative": lambda vid: -(vid + 1),
    "huge": lambda vid: HUGE + vid,
}


def sampled(spec_name, size, seed):
    run = sample_run(spec_by_name(spec_name), size, random.Random(seed))
    return run, execution_from_derivation(run).insertions


def relabel(insertions, vid_of):
    """The same execution with every vertex renamed through ``vid_of``."""
    return [
        ins._replace(
            vid=vid_of[ins.vid],
            preds=frozenset(vid_of[p] for p in ins.preds),
        )
        for ins in insertions
    ]


def ingest(spec_name, insertions, batch=16):
    """A logged session fed in batches; returns it and each batch's
    label fingerprint."""
    session = Session("s", spec_by_name(spec_name))
    crcs = []
    session.on_ingest = (
        lambda _s, _applied, _start, _version, crc, _text: crcs.append(crc)
    )
    for k in range(0, len(insertions), batch):
        session.ingest_many(insertions[k:k + batch])
    return session, crcs


def mixed_vids(insertions, seed=0):
    """An injective vid map giving every kind of vid to some vertex."""
    rng = random.Random(seed)
    names = list(KINDS)
    vid_of = {}
    for position, ins in enumerate(insertions):
        kind = names[position] if position < len(names) else rng.choice(names)
        vid_of[ins.vid] = KINDS[kind](ins.vid)
    return vid_of


# ---------------------------------------------------------------------------
# answers and fingerprints do not depend on the vids
# ---------------------------------------------------------------------------


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec_name=st.sampled_from(["running-example", "bioaid"]),
    run_seed=st.integers(min_value=0, max_value=10_000),
    kinds=st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4,
                   unique=True),
    rng=st.randoms(use_true_random=False),
)
def test_relabeled_runs_answer_like_bfs_and_fingerprint_like_dense(
    spec_name, run_seed, kinds, rng
):
    run, dense = sampled(spec_name, 150, run_seed)
    vid_of = {ins.vid: KINDS[rng.choice(kinds)](ins.vid) for ins in dense}
    assert len(set(vid_of.values())) == len(vid_of)
    relabeled = relabel(dense, vid_of)

    _, dense_crcs = ingest(spec_name, dense)
    session, crcs = ingest(spec_name, relabeled)
    assert crcs == dense_crcs

    graph = Execution(run, relabeled).replay()
    vids = [ins.vid for ins in relabeled]
    pairs = [(rng.choice(vids), rng.choice(vids)) for _ in range(150)]
    pairs += [(v, v) for v in vids[:10]]
    expected = [reaches(graph, a, b) for a, b in pairs]
    scheme = session.scheme
    assert scheme.query_many(pairs) == expected
    assert [scheme.reaches(a, b) for a, b in pairs[:40]] == expected[:40]


# ---------------------------------------------------------------------------
# the Mapping surface
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mixed_session():
    _run, dense = sampled("running-example", 200, 4)
    vid_of = mixed_vids(dense)
    relabeled = relabel(dense, vid_of)
    session, _ = ingest("running-example", relabeled)
    dense_session, _ = ingest("running-example", dense)
    return session, relabeled, vid_of, dense_session


class TestMappingSurface:
    def test_each_kind_of_vid_lands_where_the_rule_puts_it(
        self, mixed_session
    ):
        session, relabeled, _vid_of, _ = mixed_session
        labels = session.scheme.labels
        assert isinstance(labels, PackedLabels)
        for ins in relabeled:
            vid = ins.vid
            in_columns = 0 <= vid < len(labels._rows)
            assert in_columns == (0 <= vid < 10 ** 6)
            assert (vid in labels._side) == (not in_columns)

    def test_labels_equal_the_dense_runs_labels(self, mixed_session):
        session, _relabeled, vid_of, dense_session = mixed_session
        labels = session.scheme.labels
        dense = dense_session.scheme.labels
        assert len(labels) == len(dense) == len(vid_of)
        for vid, renamed in vid_of.items():
            assert renamed in labels
            assert labels[renamed] == dense[vid]
            assert session.scheme.label_of(renamed) == dense[vid]
        assert dict(labels) == {vid_of[v]: dense[v] for v in vid_of}
        assert labels == dict(labels)

    def test_iteration_follows_bind_order(self, mixed_session):
        session, relabeled, _vid_of, _ = mixed_session
        labels = session.scheme.labels
        order = [ins.vid for ins in relabeled]
        assert list(labels) == order
        assert list(islice(labels, 37)) == order[:37]
        assert list(labels.keys()) == order
        assert labels.labels_of(order) == [labels[v] for v in order]

    def test_a_side_vid_stays_there_when_the_columns_grow_over_it(self):
        factory = CompactDRL(spec_by_name("running-example")).make_factory()
        labels = factory.new_labels()
        root = ParseNode(NodeKind.N, None)
        factory.register_node(root, "g0", None)
        # past 4 * 0 + 8192 when bound first: the side dict holds it
        factory.bind(labels, root, 1, 9_000)
        assert 9_000 in labels._side and len(labels._rows) < 9_000
        side = labels[9_000]
        for vid in range(9_500):
            if vid != 9_000:
                factory.bind(labels, root, 0, vid)
        # held once: the columns keep a hole at its slot
        assert len(labels._rows) > 9_000
        assert labels._rows[9_000] == HOLE
        assert list(labels._side) == [9_000]
        # what the execution labeler reads to refuse a duplicate
        assert 9_000 in labels
        assert labels[9_000] == side != labels[0]
        assert labels.labels_of([0, 9_000]) == [labels[0], side]
        assert list(islice(labels, 3)) == [9_000, 0, 1]
        assert len(labels) == 9_500


# ---------------------------------------------------------------------------
# errors and refusals
# ---------------------------------------------------------------------------


class TestUnlabeledAndDuplicateVids:
    def unlabeled(self, labels):
        hole = next(v for v in range(len(labels._rows))
                    if labels._rows[v] == HOLE)
        return {
            "hole": hole,
            "negative": -10 ** 9,
            "past the columns": len(labels._rows) + 5,
            "side": HUGE + 10 ** 9,
        }

    @pytest.mark.parametrize(
        "kind", ["hole", "negative", "past the columns", "side"])
    def test_every_unlabeled_vid_raises_the_same_error(
        self, mixed_session, kind
    ):
        session, relabeled, _vid_of, _ = mixed_session
        scheme = session.scheme
        vid = self.unlabeled(scheme.labels)[kind]
        assert vid not in scheme.labels
        message = f"vertex {vid} has no label"
        known = relabeled[3].vid
        for pair in ((vid, known), (known, vid), (vid, vid)):
            with pytest.raises(LabelingError, match=message):
                scheme.query_many([(known, known), pair])
            with pytest.raises(LabelingError, match=message):
                scheme.reaches(*pair)
        with pytest.raises(LabelingError, match=message):
            scheme.label_of(vid)
        with pytest.raises(KeyError):
            scheme.labels[vid]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_a_duplicate_insert_is_refused_before_any_state_changes(
        self, kind
    ):
        _run, dense = sampled("running-example", 120, 6)
        vid_of = {ins.vid: KINDS[kind](ins.vid) for ins in dense}
        relabeled = relabel(dense, vid_of)
        labeler = DRLExecutionLabeler(
            CompactDRL(spec_by_name("running-example")), "logged")
        half = len(relabeled) // 2
        for ins in relabeled[:half]:
            labeler.insert(ins)
        labels = labeler.labels
        factory = labeler.factory

        def state():
            return (list(labels), dict(labels), bytes(labels._rows),
                    dict(labels._side), len(factory._table_indexes),
                    dict(factory._row), dict(factory._special))

        before = state()
        for taken in (relabeled[0].vid, relabeled[half - 1].vid):
            duplicate = relabeled[half]._replace(vid=taken)
            with pytest.raises(ExecutionError, match="inserted twice"):
                labeler.insert(duplicate)
            assert state() == before
        for ins in relabeled[half:]:
            labeler.insert(ins)
        assert list(labels) == [ins.vid for ins in relabeled]

    def test_a_side_vid_bound_twice_is_refused(self):
        factory = CompactDRL(spec_by_name("running-example")).make_factory()
        labels = factory.new_labels()
        root = ParseNode(NodeKind.N, None)
        factory.register_node(root, "g0", None)
        factory.bind(labels, root, 0, -1)
        with pytest.raises(LabelingError, match="already labeled"):
            factory.bind(labels, root, 0, -1)
        assert list(labels) == [-1]

    def test_row_and_meta_overflow_is_refused_not_wrapped(
        self, monkeypatch
    ):
        drl = CompactDRL(spec_by_name("running-example"))
        factory = drl.make_factory()

        class _Full(list):
            def __len__(self):
                return HOLE

        factory._table_indexes = _Full()
        with pytest.raises(LabelingError, match="node table is full"):
            factory.register_node(ParseNode(NodeKind.N, None), "g0", None)

        factory = drl.make_factory()
        labels = factory.new_labels()
        root = ParseNode(NodeKind.N, None)
        factory.register_node(root, "g0", None)
        monkeypatch.setattr(SkeletonBitsets, "sid",
                            lambda self, key, vertex: 2 ** 26)
        with pytest.raises(LabelingError, match="32-bit label column"):
            factory.bind(labels, root, 0, 0)
        assert len(labels) == 0 and 0 not in labels


# ---------------------------------------------------------------------------
# what a hosted vertex keeps
# ---------------------------------------------------------------------------

LABELING_DIR = os.sep + os.path.join("repro", "labeling") + os.sep


def test_a_hosted_vertex_keeps_at_most_110_bytes_of_label_structure(
    tmp_path,
):
    """3 durable sessions, each one complete ``running-example`` run
    sampled at 2,000 vertices, fed through the protocol in 64-event
    lines.  Every copy of a complete run is closed, so what the
    labeling package still holds is label structure: the columns, the
    node table and its interned prefixes."""
    runs = [
        [insertion_to_json(ins)
         for ins in sampled("running-example", 2000, seed)[1]]
        for seed in range(3)
    ]
    service = ReproService(data_dir=str(tmp_path), fsync="never")
    try:
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for index, run in enumerate(runs):
                name = f"s{index}"
                reply = service.handle_line(json.dumps(
                    {"op": "create_session", "name": name,
                     "spec": "running-example"}))
                assert '"ok": true' in reply
                for k in range(0, len(run), 64):
                    reply = service.handle_line(json.dumps(
                        {"op": "ingest", "session": name,
                         "insertions": run[k:k + 64]}))
                    assert '"ok": true' in reply
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    finally:
        service.close()
    kept = sum(
        stat.size_diff
        for stat in after.compare_to(before, "filename")
        if LABELING_DIR in stat.traceback[0].filename
    )
    vertices = sum(len(run) for run in runs)
    assert kept / vertices <= 110, f"{kept / vertices:.1f} B per vertex"


# ---------------------------------------------------------------------------
# lock-free readers beside the one writer
# ---------------------------------------------------------------------------


def test_readers_beside_the_writer_see_every_acked_label_whole():
    """Readers take no lock: a batch racing an ingest must see every
    acknowledged vertex with its final label, while the writer binds,
    grows the columns and fills the side dict."""
    run, dense = sampled("running-example", 1500, 8)
    vid_of = mixed_vids(dense, seed=8)
    relabeled = relabel(dense, vid_of)
    graph = Execution(run, relabeled).replay()
    vids = [ins.vid for ins in relabeled]
    rng = random.Random(8)
    probes = [(rng.choice(vids), rng.choice(vids)) for _ in range(400)]
    truth = {pair: reaches(graph, *pair) for pair in probes}
    position = {vid: k for k, vid in enumerate(vids)}
    session = Session("s", spec_by_name("running-example"))
    acked = [0]
    done = threading.Event()
    failures = []

    def writer():
        try:
            for k in range(0, len(relabeled), 8):
                session.ingest_many(relabeled[k:k + 8])
                acked[0] = min(k + 8, len(relabeled))
        finally:
            done.set()

    def reader(seed):
        local = random.Random(seed)
        try:
            while not done.is_set():
                count = acked[0]
                pairs = [pair for pair in local.sample(probes, 64)
                         if max(position[pair[0]], position[pair[1]]) < count]
                answers = session.scheme.query_many(pairs)
                assert answers == [truth[pair] for pair in pairs]
                assert list(islice(session.scheme.labels, count)) == \
                    vids[:count]
        except Exception as exc:  # reported below, with its traceback
            failures.append(exc)
            raise

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader, args=(seed,))
                    for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert acked[0] == len(relabeled) == len(session.scheme.labels)
