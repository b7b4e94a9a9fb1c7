"""Tests for the deterministic failpoint registry (repro.faults).

The registry's contract: unarmed hits are free no-ops with no
behavioral effect; arming is validated against the frozen catalog;
``raise`` fires :class:`FailpointError` exactly on the N-th hit and
then disarms itself (one-shot), so a recovery path re-entering the
same site never re-fires.  The ``crash`` action (``os._exit(170)``)
is exercised against real subprocesses in ``tests/test_replication.py``.
"""

from __future__ import annotations

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
