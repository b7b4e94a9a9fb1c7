"""Shared fixtures and ground-truth helpers for the test suite."""

from __future__ import annotations

import itertools
import logging
import random
from pathlib import Path

import pytest

from repro.datasets import bioaid, running_example, synthetic_spec, theorem1_grammar
from repro.graphs.reachability import reaches
from repro.workflow.derivation import sample_run


@pytest.fixture(autouse=True)
def _restore_repro_logging():
    """Put the ``repro`` logger back as each test found it.

    ``repro serve`` run in-process installs a log handler on the
    test's captured stderr; left in place, every later log line from
    any thread goes to a stream pytest has already closed.
    """
    logger = logging.getLogger("repro")
    handlers, level, propagate = list(logger.handlers), logger.level, \
        logger.propagate
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)
    logger.propagate = propagate


@pytest.fixture(scope="session")
def running_spec():
    """The paper's running example (Figure 2)."""
    return running_example()


@pytest.fixture(scope="session")
def bioaid_spec():
    """The BioAID-like specification (recursive variant)."""
    return bioaid()


@pytest.fixture(scope="session")
def bioaid_norec_spec():
    """BioAID with the recursion converted to a loop (Section 7.4)."""
    return bioaid(recursive=False)


@pytest.fixture(scope="session")
def theorem1_spec():
    """The Figure 6 lower-bound grammar."""
    return theorem1_grammar()


@pytest.fixture(scope="session")
def synthetic_linear_spec():
    """A small member of the Figure 13 synthetic family."""
    return synthetic_spec(sub_size=10, depth=5, linear=True, seed=11)


@pytest.fixture(scope="session")
def real_tree_report():
    """``repro lint src tools`` over this repository, run once per test
    session; every real-tree expectation of the lint tests reads it."""
    from repro.analysis import lint

    repo = Path(__file__).resolve().parents[1]
    return lint([repo / "src", repo / "tools"])


@pytest.fixture()
def rng():
    """A deterministic RNG; reseeded per test."""
    return random.Random(0xC0FFEE)


def assert_reaches_matches_bfs(graph, reaches_fn, sample=None, rng=None):
    """Compare a vertex-level ``reaches(u, v)`` against BFS ground truth.

    The one shared ground-truth loop for every reachability scheme
    (per-scheme tests and the cross-scheme conformance suite both call
    it): all pairs when ``sample`` is None, sampled pairs otherwise.
    """
    vertices = sorted(graph.vertices())
    if sample is None:
        pairs = itertools.product(vertices, vertices)
    else:
        rng = rng or random.Random(1)
        pairs = (
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(sample)
        )
    for a, b in pairs:
        expected = reaches(graph, a, b)
        actual = reaches_fn(a, b)
        assert actual == expected, (
            f"reaches({a}:{graph.name(a)} -> {b}:{graph.name(b)}): "
            f"scheme says {actual}, graph says {expected}"
        )


def assert_labels_correct(graph, labels, query, sample=None, rng=None):
    """Compare a labeling against BFS ground truth on ``graph``.

    ``query(label_a, label_b)`` must equal ``a ;_graph b`` for all sampled
    pairs (all pairs when ``sample`` is None).
    """
    vertices = sorted(graph.vertices())
    if sample is None:
        pairs = itertools.product(vertices, vertices)
    else:
        rng = rng or random.Random(1)
        pairs = (
            (rng.choice(vertices), rng.choice(vertices)) for _ in range(sample)
        )
    for a, b in pairs:
        expected = reaches(graph, a, b)
        actual = query(labels[a], labels[b])
        assert actual == expected, (
            f"query({a}:{graph.name(a)} -> {b}:{graph.name(b)}): "
            f"labels say {actual}, graph says {expected}"
        )


def small_run(spec, size, seed):
    """A seeded run of roughly ``size`` vertices for ``spec``."""
    return sample_run(spec, size, random.Random(seed))
