"""Demo: the provenance query service, client and server in one process.

Starts a :class:`ReproServer` on an ephemeral loopback port, then plays
a workflow engine on the client side: it streams a running BioAID-like
execution into a session batch by batch and, *between batches*, answers
provenance questions about the part of the run that already happened --
the paper's on-the-fly capability, over a socket.  Finally it
checkpoints the live session, restores it under a new name, and shows
the restored copy answering identically.
"""

from __future__ import annotations

import random
import tempfile
import threading
from pathlib import Path

from repro import ReproServer, ServiceClient, bioaid
from repro.workflow.derivation import sample_run
from repro.workflow.execution import execution_from_derivation


def main() -> int:
    server = ReproServer(("127.0.0.1", 0))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"service listening on 127.0.0.1:{server.port}")

    spec = bioaid()
    run = sample_run(spec, 400, random.Random(42))
    execution = execution_from_derivation(run)
    events = execution.insertions
    first = events[0].vid

    with ServiceClient("127.0.0.1", server.port) as client:
        client.create_session("bioaid-run", "bioaid")
        print(f"session created; streaming {len(events)} module "
              "executions in batches of 100")

        for start in range(0, len(events), 100):
            batch = events[start : start + 100]
            info = client.ingest("bioaid-run", batch)
            latest = batch[-1].vid
            # the run is still "executing", but this answer is already final
            answer = client.query("bioaid-run", first, latest)
            print(
                f"  after {start + len(batch):4d} events "
                f"(version {info['version']}): "
                f"start ~> v{latest} = {answer}"
            )

        vids = sorted(run.graph.vertices())
        rng = random.Random(7)
        pairs = [(rng.choice(vids), rng.choice(vids)) for _ in range(1000)]
        answers = client.query_batch("bioaid-run", pairs)
        print(
            f"batch of {len(pairs)} queries: "
            f"{sum(answers)} reachable, {len(answers) - sum(answers)} not"
        )
        stats = client.stats()
        print(
            f"engine stats: {stats['queries']} queries in "
            f"{stats['query_seconds'] * 1e3:.1f} ms"
        )

        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "checkpoint"
            client.snapshot("bioaid-run", str(ckpt))
            client.create_session("recovered", checkpoint=str(ckpt))
            recovered = client.query_batch("recovered", pairs)
            match = "identical" if recovered == answers else "DIVERGED"
            print(f"checkpoint -> restore: {len(pairs)} answers {match}")

        client.shutdown_server()
    server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
