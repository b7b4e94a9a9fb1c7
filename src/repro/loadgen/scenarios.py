"""Named load scenarios: synthesized mixed workloads for the service.

A :class:`Scenario` is a declarative recipe -- which spec and labeling
scheme, how many concurrent sessions, how large each hosted run is, the
query/ingest mix, the key-skew shape -- that the runner turns into a
closed-loop workload against a live engine or server.

The builtin catalog covers the service's interesting regimes:

* ``mixed`` -- the default 70/30 query/ingest blend;
* ``query-heavy`` -- read throughput with rare ingests;
* ``ingest-heavy`` -- write-dominated, with sessions churning as their
  runs complete;
* ``hot-key`` -- Zipf-ish skew: most queries hammer a small hot set
  of one session's vertices;
* ``many-small-sessions`` -- lots of short-lived runs, stressing the
  session registry's create/close path;
* ``scheme-<name>`` -- one sweep per registered *dynamic* labeling
  backend (built from :mod:`repro.schemes.registry`, so a newly
  registered scheme gets a scenario for free).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.errors import ServiceError


@dataclass(frozen=True)
class Scenario:
    """One declarative load recipe (see module docstring)."""

    name: str
    summary: str
    spec: str = "running-example"
    scheme: str = "drl"
    sessions: int = 4          # concurrent workers, one session each
    run_size: int = 300        # vertices per hosted run
    prefill: int = 48          # events ingested before the loop starts
    query_fraction: float = 0.7  # P(an op is a query batch, not ingest)
    batch_pairs: int = 64      # pairs per query batch
    ingest_chunk: int = 32     # events per ingest op
    hot_fraction: float = 0.0  # P(a query pair is drawn from the hot set)
    hot_keys: float = 0.1      # fraction of inserted vids that are "hot"

    def to_dict(self) -> Dict[str, object]:
        from dataclasses import asdict

        return asdict(self)


def _builtin() -> List[Scenario]:
    base = Scenario(
        name="mixed",
        summary="70/30 query/ingest blend over concurrent sessions",
    )
    catalog = [
        base,
        replace(
            base,
            name="query-heavy",
            summary="read throughput; rare ingests",
            query_fraction=0.97,
            batch_pairs=128,
        ),
        replace(
            base,
            name="ingest-heavy",
            summary="write-dominated; sessions churn as runs complete",
            query_fraction=0.15,
            run_size=400,
            ingest_chunk=48,
        ),
        replace(
            base,
            name="hot-key",
            summary="Zipf-ish skew: 90% of queries hit 5% of vertices",
            query_fraction=0.9,
            hot_fraction=0.9,
            hot_keys=0.05,
        ),
        replace(
            base,
            name="many-small-sessions",
            summary="short-lived runs stressing create/close",
            sessions=8,
            run_size=60,
            prefill=16,
            query_fraction=0.5,
            ingest_chunk=16,
        ),
    ]
    return catalog


def scenarios() -> Dict[str, Scenario]:
    """The full catalog, including one sweep per dynamic scheme."""
    from repro.schemes import registry as scheme_registry
    from repro.service.selftest import default_spec_for

    catalog = {scenario.name: scenario for scenario in _builtin()}
    for scheme in scheme_registry.available(dynamic=True):
        scenario = Scenario(
            name=f"scheme-{scheme}",
            summary=f"mixed sweep under the {scheme!r} labeling backend",
            spec=default_spec_for(scheme),
            scheme=scheme,
            query_fraction=0.8,
        )
        catalog[scenario.name] = scenario
    return catalog


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name; :class:`ServiceError` when unknown."""
    catalog = scenarios()
    try:
        return catalog[name]
    except KeyError:
        raise ServiceError(
            f"unknown scenario {name!r}; available: {sorted(catalog)}"
        ) from None
