#!/usr/bin/env python
"""CI smoke check: kill 1 of 3 cluster workers mid-run, drop zero futures.

The PR 7 acceptance gate, count-asserted so CI machine noise cannot
flake it.  Spins up a 3-worker :class:`ClusteredCloudService` on the
mock backend with a seeded :class:`FaultInjector` armed to SIGKILL one
worker as it starts a batch, then fires concurrent closed-loop clients
through the gateway and asserts:

* every submitted request resolved with scores bit-identical to the
  serial classification of the same ciphertexts — zero dropped futures,
  zero error responses (the orphaned batch failed over to a survivor),
* exactly one worker death was injected and observed,
* the dead worker respawned and reports ready again (all 3 slots up),
* the gateway never fell back to serial degradation,
* the bookkeeping balances (completed == submitted, empty queue).

Exits non-zero with the offending numbers.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.henn.backend import MockBackend
from repro.henn.layers import HeConv2d, HeFlatten, HeLinear, HePoly
from repro.henn.protocol import Client, CloudService, ClusteredCloudService
from repro.resilience import FaultInjector

WORKERS = 3
CLIENTS = 8
REQUESTS_PER_CLIENT = 6
# Worker 0 wins every dispatch tie, so it is certain to be handed a batch;
# any other worker only sees one when two batches overlap (timing).
KILL_WORKER = 0  # dies as it starts its first batch
SHAPE = (1, 6, 6)


def build_layers():
    rng = np.random.default_rng(0)
    return [
        HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), rng.uniform(-0.1, 0.1, 2)),
        HePoly(np.array([0.1, 0.5, 0.25])),
        HeFlatten(),
        HeLinear(rng.uniform(-0.3, 0.3, (10, 32)), rng.uniform(-0.1, 0.1, 10)),
    ]


def main() -> int:
    layers = build_layers()
    backend = MockBackend(batch=64, levels=6)
    client = Client(backend, SHAPE)
    serial = CloudService(backend, layers, SHAPE)
    injector = FaultInjector(seed=7).kill_cluster_worker(worker=KILL_WORKER, on_batch=1)
    gateway = ClusteredCloudService(
        backend,
        layers,
        SHAPE,
        workers=WORKERS,
        max_batch_slots=8,
        max_wait_ms=5.0,
        fault_injector=injector,
    )

    images = np.random.default_rng(1).uniform(0, 1, (CLIENTS, 1, 6, 6))
    total = CLIENTS * REQUESTS_PER_CLIENT
    resolved = [0] * CLIENTS
    failures: list[str] = []
    lock = threading.Lock()

    def client_loop(c: int) -> None:
        enc = client.encrypt_request(images[c : c + 1])
        want = client.decrypt_response(serial.classify_encrypted(enc), batch=1)
        for _ in range(REQUESTS_PER_CLIENT):
            response = gateway.try_classify(enc, count=1)
            with lock:
                resolved[c] += 1
                if not response.ok:
                    failures.append(f"client {c}: {response.error}")
                elif not np.array_equal(
                    client.decrypt_response(response.scores, batch=1), want
                ):
                    failures.append(f"client {c}: cluster scores != serial scores")

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180)
    wedged = [t for t in threads if t.is_alive()]

    # Count-asserted recovery: the dead worker must come back ready.
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and gateway.pool.stats()["ready"] < WORKERS:
        time.sleep(0.05)

    stats = gateway.scheduler.stats()
    pool = gateway.pool.stats()
    degraded = gateway.dispatcher.degraded
    kills = injector.summary().get("cluster.kill", 0)
    gateway.close()

    print(
        f"submitted={total} resolved={sum(resolved)} "
        f"completed={stats['requests_completed']} batches={stats['batches']} "
        f"deaths={pool['deaths']} respawns={pool['respawns']} ready={pool['ready']}"
    )

    ok = True
    if wedged:
        print(f"FAIL: {len(wedged)} client threads never got an answer (dropped future?)")
        ok = False
    if failures:
        for f in failures[:10]:
            print(f"FAIL: {f}")
        ok = False
    if sum(resolved) != total:
        print(f"FAIL: {sum(resolved)}/{total} requests resolved")
        ok = False
    if stats["requests_completed"] != total:
        print(f"FAIL: scheduler completed {stats['requests_completed']}/{total}")
        ok = False
    if stats["queue_depth"] != 0:
        print(f"FAIL: {stats['queue_depth']} requests stranded in the queue")
        ok = False
    if kills != 1:
        print(f"FAIL: injector armed 1 kill, fired {kills}")
        ok = False
    if pool["deaths"] != 1:
        print(f"FAIL: pool observed {pool['deaths']} deaths, expected exactly 1")
        ok = False
    if pool["respawns"] != 1:
        print(f"FAIL: pool respawned {pool['respawns']} workers, expected exactly 1")
        ok = False
    if pool["ready"] != WORKERS:
        print(f"FAIL: {pool['ready']}/{WORKERS} workers ready — respawn never re-warmed")
        ok = False
    if degraded:
        print("FAIL: gateway degraded to serial — failover should have absorbed 1 death")
        ok = False
    if ok:
        print(
            "OK: worker killed mid-batch, zero dropped futures, "
            "failover + respawn count-verified, scores bit-identical to serial"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
