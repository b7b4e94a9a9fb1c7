"""Tests for the deterministic failpoint registry (repro.faults).

The registry's contract: unarmed hits are free no-ops with no
behavioral effect; arming is validated against the frozen catalog;
``raise`` fires :class:`FailpointError` exactly on the N-th hit and
then disarms itself (one-shot), so a recovery path re-entering the
same site never re-fires.

The fault matrix runs the harness (:func:`repro.loadgen.run`) over
every topology: real server processes SIGKILLed at two progress marks,
or crashed (``os._exit(170)``) at an armed failpoint, recover by one
rule, finish the run, and lose no acknowledged insertion.  The ``mixed``
rows run several sessions with reads between the writes, every answer
checked against BFS.
"""

from __future__ import annotations

import signal
from collections import Counter
from dataclasses import replace

import pytest

from repro.faults import (
    ENV_VAR,
    FAILPOINT_NAMES,
    FAILPOINTS,
    FailpointError,
    FailpointRegistry,
)


@pytest.fixture(autouse=True)
def clean_global_registry():
    FAILPOINTS.disarm()
    yield
    FAILPOINTS.disarm()


class TestUnarmed:
    def test_hit_is_a_no_op(self):
        registry = FailpointRegistry()
        for name in sorted(FAILPOINT_NAMES):
            registry.hit(name)  # must not raise, must not exit
        assert registry.armed() == {}

    def test_unregistered_name_is_still_a_no_op_when_unarmed(self):
        # the lint rule rejects such call sites; the runtime fast path
        # must not pay for a membership check on every hit
        FailpointRegistry().hit("definitely.not.registered")

    def test_fast_path_is_attribute_plus_none_check(self):
        # the production invariant: nothing armed means _armed is None,
        # so hit() returns before any dict lookup
        registry = FailpointRegistry()
        assert registry._armed is None
        registry.arm("wal.pre_fsync", "raise")
        registry.disarm()
        assert registry._armed is None


class TestArming:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            FailpointRegistry().arm("wal.no_such_point")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint action"):
            FailpointRegistry().arm("wal.pre_fsync", "explode")

    def test_nonpositive_nth_rejected(self):
        with pytest.raises(ValueError, match="1-based"):
            FailpointRegistry().arm("wal.pre_fsync", "raise", 0)

    def test_armed_table_reports_action_and_nth(self):
        registry = FailpointRegistry()
        registry.arm("wal.pre_fsync", "raise", 3)
        registry.arm("wal.post_append", "crash")
        assert registry.armed() == {
            "wal.pre_fsync": "raise@3",
            "wal.post_append": "crash@1",
        }

    def test_disarm_one_and_all(self):
        registry = FailpointRegistry()
        registry.arm("wal.pre_fsync", "raise")
        registry.arm("wal.post_append", "raise")
        registry.disarm("wal.pre_fsync")
        assert registry.armed() == {"wal.post_append": "raise@1"}
        registry.disarm()
        assert registry.armed() == {}


class TestFiring:
    def test_fires_on_first_hit_by_default(self):
        registry = FailpointRegistry()
        registry.arm("repl.pre_apply", "raise")
        with pytest.raises(FailpointError, match="repl.pre_apply"):
            registry.hit("repl.pre_apply")

    def test_fires_exactly_on_nth_hit(self):
        registry = FailpointRegistry()
        registry.arm("wal.pre_append", "raise", 3)
        registry.hit("wal.pre_append")
        registry.hit("wal.pre_append")
        with pytest.raises(FailpointError):
            registry.hit("wal.pre_append")

    def test_one_shot_disarms_before_firing(self):
        registry = FailpointRegistry()
        registry.arm("wal.pre_append", "raise")
        with pytest.raises(FailpointError):
            registry.hit("wal.pre_append")
        assert registry.armed() == {}
        registry.hit("wal.pre_append")  # recovery re-entry: silent

    def test_other_points_unaffected(self):
        registry = FailpointRegistry()
        registry.arm("wal.pre_append", "raise")
        registry.hit("wal.pre_fsync")
        registry.hit("wal.post_append")
        assert registry.armed() == {"wal.pre_append": "raise@1"}


class TestSpecParsing:
    def test_spec_round_trip(self):
        registry = FailpointRegistry()
        assert registry.arm_from_spec(
            "wal.pre_fsync=crash, wal.post_append=raise@2"
        ) == 2
        assert registry.armed() == {
            "wal.pre_fsync": "crash@1",
            "wal.post_append": "raise@2",
        }

    def test_empty_clauses_skipped(self):
        registry = FailpointRegistry()
        assert registry.arm_from_spec("") == 0
        assert registry.arm_from_spec(" , ,") == 0

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="bad failpoint clause"):
            FailpointRegistry().arm_from_spec("wal.pre_fsync")

    def test_bad_nth_rejected(self):
        with pytest.raises(ValueError):
            FailpointRegistry().arm_from_spec("wal.pre_fsync=crash@soon")

    def test_env_arming(self):
        registry = FailpointRegistry()
        count = registry.arm_from_env({ENV_VAR: "repl.post_apply=raise"})
        assert count == 1
        assert registry.armed() == {"repl.post_apply": "raise@1"}

    def test_env_unset_is_zero(self):
        registry = FailpointRegistry()
        assert registry.arm_from_env({}) == 0
        assert registry.armed() == {}


class TestCatalog:
    def test_every_hit_site_name_is_registered(self):
        # the lint rule (failpoint-names) enforces this statically on
        # the real tree; assert here that the catalog itself is sane
        for name in FAILPOINT_NAMES:
            domain, _, point = name.partition(".")
            assert domain in {"wal", "repl", "cluster"}, name
            assert point, name

    def test_global_registry_starts_unarmed(self):
        assert FAILPOINTS.armed() == {}


# ---------------------------------------------------------------------------
# the fault matrix: topology x fault, one harness, one checker
# ---------------------------------------------------------------------------

KILLED = -signal.SIGKILL
CRASHED = 170  # a failpoint's os._exit

#: id -> (:func:`repro.loadgen.run` arguments, the least faults that
#: must land, by (role, exit status); a cluster worker's exit is its
#: supervisor's)
FAULT_MATRIX = {
    "single-sigkill": (
        dict(topology="single", kill="server"),
        {("server", KILLED): 2},
    ),
    **{
        f"single-{name}": (
            dict(topology="single", failpoint=f"{name}=crash@4",
                 armed_in="server"),
            {("server", CRASHED): 1},
        )
        for name in ("wal.pre_append", "wal.pre_fsync", "wal.post_append")
    },
    "cluster-sigkill": (
        dict(topology="cluster", kill="worker"),
        {("worker", None): 2},
    ),
    "cluster-wal.post_append": (
        dict(topology="cluster", failpoint="wal.post_append=crash@4",
             armed_in="workers"),
        {("worker", None): 2},
    ),
    "cluster-pre_respawn": (
        dict(topology="cluster", kill="worker",
             failpoint="cluster.pre_respawn=crash", armed_in="router"),
        {("router", CRASHED): 1, ("worker", None): 1},
    ),
    "replicated-sigkill": (
        dict(topology="replicated", kill="primary"),
        {("primary", KILLED): 2},
    ),
    **{
        f"replicated-{name}": (
            dict(topology="replicated", failpoint=f"{name}=crash@4",
                 armed_in="replica"),
            {("replica", CRASHED): 1},
        )
        for name in ("repl.pre_apply", "repl.post_apply")
    },
    "replicated-pre_promote": (
        dict(topology="replicated", kill="primary",
             failpoint="repl.pre_promote=crash", armed_in="replicas"),
        {("primary", KILLED): 2, ("replica", CRASHED): 1},
    ),
}

#: the multi-session rows: three ``mixed`` sessions of about 100 events
#: each, reads between the writes, under SIGKILLs on every topology
MIXED_MATRIX = {
    f"mixed-{topology}-sigkill": (
        dict(topology=topology, kill=role, verify=True),
        {(role, KILLED if topology != "cluster" else None): 2},
    )
    for topology, role in (("single", "server"), ("cluster", "worker"),
                           ("replicated", "primary"))
}


@pytest.mark.parametrize("row", sorted({**FAULT_MATRIX, **MIXED_MATRIX}))
def test_fault_matrix_loses_no_acknowledged_insertion(row, tmp_path):
    from repro.loadgen import get_workload, run

    if row in MIXED_MATRIX:
        arguments, least = MIXED_MATRIX[row]
        workload = replace(get_workload("mixed"), sessions=3, run_size=100)
    else:
        arguments, least = FAULT_MATRIX[row]
        workload = replace(get_workload("crash-recovery"), run_size=100)
    report = run(workload, **arguments, size=2,
                 data_dir=str(tmp_path / "data"), kill_after=30.0)
    assert report.errors == []
    assert report.lost == [] and report.wrong_answers == 0
    assert report.acknowledged == report.run_size >= 80 * workload.sessions
    if row in MIXED_MATRIX:  # every answer of the run was checked too
        assert report.queries > 0
        assert report.verified_pairs > report.queries
    landed = Counter(
        (fault["role"], fault.get("exit")) for fault in report.faults
    )
    assert all(landed[key] >= count for key, count in least.items()), (
        report.faults
    )


@pytest.mark.parametrize("arguments", [
    dict(topology="ring"),
    dict(topology="single", kill="primary"),
    dict(topology="cluster", size=0),
    dict(topology="replicated", failpoint="repl.pre_apply=crash"),
    dict(topology="single", failpoint="wal.pre_append=crash",
         armed_in="replica"),
    dict(topology="single", server=("127.0.0.1", 7464)),
], ids=["topology", "kill", "size", "unarmed", "armed_in", "server"])
def test_a_fault_run_refuses_what_its_topology_cannot_take(arguments):
    from repro.errors import ServiceError
    from repro.loadgen import get_workload, run

    with pytest.raises(ServiceError, match="a run takes"):
        run(get_workload("crash-recovery"), **arguments)
