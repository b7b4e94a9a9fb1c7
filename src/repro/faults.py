"""Deterministic failpoints for crash-ordering tests.

A *failpoint* is a named no-op planted at a crash-ordering-critical
point in the durability and replication code (``FAILPOINTS.hit(
"wal.pre_fsync")``).  Unarmed -- the production state -- a hit is one
attribute load and an ``is None`` check; there is nothing to configure
and no measurable overhead.  Armed (via :envvar:`REPRO_FAILPOINTS` or
``repro serve --failpoints``), the named point fires a deterministic
action on its N-th hit: ``crash`` hard-kills the process with
:func:`os._exit` (indistinguishable from SIGKILL to the recovery
path), ``raise`` raises :class:`FailpointError` so in-process tests
can observe partially-completed state.

Every hit site must use a name from :data:`FAILPOINT_NAMES`; the
``failpoint-names`` lint rule rejects unregistered or non-literal
names, so the frozen table below is the single catalog of crash
points the failpoint matrix in ``tests/test_faults.py`` sweeps.

Spec grammar (comma-separated)::

    wal.pre_fsync=crash          crash on the first hit
    wal.pre_append=crash@3       crash on the third hit
    repl.pre_apply=raise         raise FailpointError on the first hit

"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

__all__ = [
    "FAILPOINT_NAMES",
    "FailpointError",
    "FailpointRegistry",
    "FAILPOINTS",
    "ENV_VAR",
]

ENV_VAR = "REPRO_FAILPOINTS"

#: The frozen catalog of every failpoint name in the tree.  Adding a
#: ``FAILPOINTS.hit`` site means adding its name here first; the
#: ``failpoint-names`` lint rule enforces the pairing.
FAILPOINT_NAMES = frozenset({
    # write-ahead log (repro.service.wal)
    "wal.pre_append",       # before the record line is written
    "wal.pre_fsync",        # after write+flush, before os.fsync
    "wal.post_append",      # after the append is durable
    # replication (repro.service.replication)
    "repl.pre_apply",       # replica: before applying a shipped record
    "repl.post_apply",      # replica: record applied, not yet acked
    "repl.pre_promote",     # replica: before promotion flips roles
    # cluster supervision (repro.service.cluster)
    "cluster.pre_respawn",  # supervisor: before restarting a dead worker
})

_ACTIONS = frozenset({"crash", "raise"})


class FailpointError(RuntimeError):
    """Raised by a failpoint armed with the ``raise`` action."""


class _Armed:
    __slots__ = ("action", "at_hit", "hits")

    def __init__(self, action: str, at_hit: int) -> None:
        self.action = action
        self.at_hit = at_hit
        self.hits = 0


class FailpointRegistry:
    """Registry of armed failpoints; module-global as :data:`FAILPOINTS`.

    The fast path is deliberately branch-minimal: ``hit`` returns
    immediately while nothing is armed (``self._armed is None``).
    Arming swaps in a dict; firing is guarded by a lock so concurrent
    hits of an ``@N`` point count exactly once each.
    """

    def __init__(self) -> None:
        self._armed: Optional[Dict[str, _Armed]] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def hit(self, name: str) -> None:
        """Fire ``name`` if armed; free no-op otherwise."""
        armed = self._armed
        if armed is None:
            return
        self._slow_hit(name, armed)

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self, name: str, action: str = "crash", at_hit: int = 1) -> None:
        """Arm ``name`` to fire ``action`` on its ``at_hit``-th hit."""
        if name not in FAILPOINT_NAMES:
            raise ValueError(
                f"unknown failpoint {name!r}; registered names: "
                f"{', '.join(sorted(FAILPOINT_NAMES))}"
            )
        if action not in _ACTIONS:
            raise ValueError(
                f"unknown failpoint action {action!r} (use crash or raise)"
            )
        if at_hit < 1:
            raise ValueError("at_hit is 1-based and must be >= 1")
        with self._lock:
            armed = dict(self._armed or {})
            armed[name] = _Armed(action, at_hit)
            self._armed = armed

    def arm_from_spec(self, spec: str) -> int:
        """Arm from a comma-separated spec string; returns the count.

        Each clause is ``name=action`` or ``name=action@N``.
        """
        count = 0
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            if "=" not in clause:
                raise ValueError(
                    f"bad failpoint clause {clause!r} (want name=action)"
                )
            name, _, action = clause.partition("=")
            at_hit = 1
            if "@" in action:
                action, _, nth = action.partition("@")
                at_hit = int(nth)
            self.arm(name.strip(), action.strip(), at_hit)
            count += 1
        return count

    def arm_from_env(self, environ=os.environ) -> int:
        """Arm from :envvar:`REPRO_FAILPOINTS` if set; returns the count."""
        spec = environ.get(ENV_VAR, "")
        if not spec:
            return 0
        return self.arm_from_spec(spec)

    def disarm(self, name: Optional[str] = None) -> None:
        """Disarm ``name``, or everything when ``name`` is ``None``."""
        with self._lock:
            if name is None or self._armed is None:
                self._armed = None
                return
            armed = dict(self._armed)
            armed.pop(name, None)
            self._armed = armed or None

    def armed(self) -> Dict[str, str]:
        """The currently armed points as ``{name: "action@N"}``."""
        armed = self._armed or {}
        return {
            name: f"{point.action}@{point.at_hit}"
            for name, point in armed.items()
        }

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def _slow_hit(self, name: str, armed: Dict[str, _Armed]) -> None:
        point = armed.get(name)
        if point is None:
            return
        with self._lock:
            point.hits += 1
            if point.hits != point.at_hit:
                return
            # one-shot: the point disarms itself before firing so a
            # recovery path re-entering the same site cannot re-fire
            current = dict(self._armed or {})
            current.pop(name, None)
            self._armed = current or None
            action = point.action
        if action == "crash":
            # simulate SIGKILL: no atexit handlers, no flushes, no
            # finally blocks -- the recovery path must cope with
            # whatever bytes already reached the kernel
            os._exit(170)
        raise FailpointError(f"failpoint {name} fired")


#: Process-global registry; production code calls ``FAILPOINTS.hit(...)``.
FAILPOINTS = FailpointRegistry()
