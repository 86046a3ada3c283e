"""Cluster serving: a worker pool that survives a SIGKILL mid-traffic.

The gateway from ``batched_serving.py`` grown into a
:class:`~repro.henn.protocol.ClusteredCloudService`: coalesced batches
are dispatched across three forked engine workers (each warms up by
compiling its plan on spawn), picked by health-weighted load balancing.  Mid-run a seeded
:class:`~repro.resilience.FaultInjector` SIGKILLs one worker exactly
as it starts a batch — the orphaned batch fails over to a survivor,
the dead worker respawns and re-warms in the background, and **every
client still gets the same answer the serial service gives**: zero
dropped futures, zero error responses, all count-verified at the end.

Run:  python examples/cluster_serving.py
"""

import threading
import time

from repro.data import load_synth_mnist, normalize_unit, to_nchw
from repro.henn import MockBackend, build_cnn1, compile_model, slafify
from repro.henn.compiler import model_depth
from repro.henn.protocol import Client, CloudService, ClusteredCloudService
from repro.obs.metrics import get_registry
from repro.resilience import FaultInjector

WORKERS = 3
CLIENTS = 8
REQUESTS_EACH = 5
# Worker 0 wins every dispatch tie, so it is certain to be handed a batch;
# another worker only sees one when two batches overlap.
KILL_WORKER = 0
SHAPE = (1, 12, 12)


def main() -> None:
    print("== 1. train + compile CNN1 (SLAF activations, BN folded) ==")
    xtr, ytr, xte, yte = load_synth_mnist(n_train=4000, n_test=500, seed=1, image_size=12)
    x, xv = to_nchw(normalize_unit(xtr)), to_nchw(normalize_unit(xte))
    from repro.nn import TrainConfig, Trainer

    model = build_cnn1(variant="tiny", seed=0)
    Trainer(model, TrainConfig(epochs=6, batch_size=64, max_lr=0.08, seed=0)).fit(x, ytr)
    layers = compile_model(slafify(model, x, ytr, degree=3, epochs=2, seed=0))
    backend = MockBackend(batch=64, levels=model_depth(layers) + 1)
    client = Client(backend, SHAPE)

    print("== 2. serial baseline (the answers the cluster must reproduce) ==")
    serial = CloudService(backend, layers, SHAPE)
    predictions = []
    for c in range(CLIENTS):
        response = serial.try_classify(client.encrypt_request(xv[c : c + 1]))
        assert response.ok
        predictions.append(int(client.decrypt_response(response.scores, 1).argmax()))
    print(f"   predictions {predictions} (true {yte[:CLIENTS].tolist()})")

    print(f"== 3. pool up: {WORKERS} workers, kill of worker {KILL_WORKER} armed ==")
    injector = FaultInjector(seed=7).kill_cluster_worker(worker=KILL_WORKER, on_batch=1)
    t0 = time.perf_counter()
    gateway = ClusteredCloudService(
        backend,
        layers,
        SHAPE,
        workers=WORKERS,
        max_batch_slots=16,
        max_wait_ms=5.0,
        max_queue_depth=64,
        fault_injector=injector,
    )
    health = gateway._health()["cluster"]
    print(
        f"   {health['ready']}/{health['size']} workers ready "
        f"in {time.perf_counter() - t0:.2f} s"
    )

    print(f"== 4. {CLIENTS} concurrent clients x {REQUESTS_EACH} requests, SIGKILL mid-run ==")
    results = [[None] * REQUESTS_EACH for _ in range(CLIENTS)]

    def client_loop(c: int) -> None:
        for r in range(REQUESTS_EACH):
            logits = client.classify_with_retry(
                gateway, xv[c : c + 1], max_attempts=5, backoff_seconds=0.01, seed=c
            )
            results[c][r] = int(logits.argmax())

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    print("== 5. what the pool survived ==")
    # Give the background respawn a moment to report ready again.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and gateway.pool.stats()["ready"] < WORKERS:
        time.sleep(0.05)
    pool = gateway.pool.stats()
    failovers = get_registry().counter("cluster.failovers").value
    print(
        f"   kills fired: {injector.summary().get('cluster.kill', 0)}, "
        f"deaths observed: {pool['deaths']}, failovers: {failovers}, "
        f"respawns: {pool['respawns']}, ready again: {pool['ready']}/{pool['size']}"
    )
    for worker in pool["workers"]:
        print(
            f"   worker {worker['index']}: state={worker['state']} "
            f"generation={worker['generation']} batches={worker['batches']} "
            f"health={worker['health']:.2f}"
        )
    assert pool["deaths"] == 1 and pool["respawns"] == 1
    assert not gateway.dispatcher.degraded, "failover should absorb one death"

    print("== 6. uninterrupted answers: cluster == serial, request by request ==")
    for c in range(CLIENTS):
        assert all(p == predictions[c] for p in results[c]), f"client {c} diverged"
    print(
        f"   all {CLIENTS * REQUESTS_EACH} predictions match the serial baseline "
        "despite the mid-run worker kill"
    )
    gateway.close()


if __name__ == "__main__":
    main()
