"""Load-generator drivers: the same workload, in-process or over TCP.

A *driver* is the thin facade a load worker talks to -- create/ingest/
query/close plus a stats snapshot -- with two implementations:

* :class:`EngineDriver` calls a shared :class:`QueryEngine` directly,
  isolating engine cost (the labels and the session registry) from
  transport cost; the engine is thread-safe, so every worker shares
  one driver.
* :class:`ClientDriver` speaks the JSON-lines protocol to a live
  server through a :class:`ServiceClient`, one connection per worker
  (the client is deliberately not thread-safe), using the pipelined
  ``query_batch`` fast path for its batches.

Workers receive their driver from a factory so each transport can pick
its own sharing model (shared engine vs. per-worker socket).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.service.client import ServiceClient
from repro.service.engine import QueryEngine

Driver = Any  # duck-typed: EngineDriver | ClientDriver
DriverFactory = Callable[[], Driver]


class EngineDriver:
    """Drives a (thread-safe) in-process engine directly."""

    transport = "in-process"

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine
        self.manager = engine.manager

    def create_session(self, name: str, spec: str, scheme: str) -> None:
        self.manager.create(name, spec, scheme=scheme)

    def ingest(self, name: str, insertions) -> int:
        count, _ = self.engine.ingest(name, insertions)
        return count

    def query_batch(
        self, name: str, pairs: Sequence[Tuple[int, int]]
    ) -> List[bool]:
        return self.engine.query_many(name, pairs)

    def close_session(self, name: str) -> None:
        self.manager.close(name)

    def stats(self) -> Dict[str, Any]:
        return self.engine.stats().to_dict()

    def finish(self) -> None:
        """Nothing to release for the in-process transport."""


class ClientDriver:
    """Drives a live server over one JSON-lines TCP connection."""

    transport = "tcp"

    def __init__(
        self, host: str, port: int, chunk: int = 256, timeout: float = 30.0
    ) -> None:
        self.client = ServiceClient(host, port, timeout=timeout)
        self.chunk = chunk

    def create_session(self, name: str, spec: str, scheme: str) -> None:
        self.client.create_session(name, spec, scheme=scheme)

    def ingest(self, name: str, insertions) -> int:
        return int(self.client.ingest(name, insertions)["ingested"])

    def query_batch(
        self, name: str, pairs: Sequence[Tuple[int, int]]
    ) -> List[bool]:
        return self.client.query_batch(name, pairs, chunk=self.chunk)

    def close_session(self, name: str) -> None:
        self.client.close_session(name)

    def stats(self) -> Dict[str, Any]:
        return self.client.stats()

    def finish(self) -> None:
        self.client.close()


def engine_driver_factory(engine: QueryEngine) -> DriverFactory:
    """All workers share the one engine (it is thread-safe)."""
    driver = EngineDriver(engine)
    return lambda: driver


def client_driver_factory(
    host: str, port: int, chunk: int = 256, timeout: float = 30.0
) -> DriverFactory:
    """Each worker opens its own connection (clients are not)."""
    return lambda: ClientDriver(host, port, chunk=chunk, timeout=timeout)
