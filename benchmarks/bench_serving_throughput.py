"""Serving throughput — dynamic batching vs. one-request-per-call.

The serving claim behind :class:`repro.henn.protocol.BatchedCloudService`:
a CKKS evaluation costs nearly the same wall-clock however many SIMD
slots are filled, so coalescing independent requests into slot-packed
batches multiplies throughput at high offered concurrency.  This bench
measures it on the mock backend (plaintext slot semantics, so the
numbers isolate the *scheduling* win from HE arithmetic cost):

* **serial** — a plain :class:`~repro.henn.protocol.CloudService`, one
  request at a time (the pre-gateway behaviour).
* **batched** — the gateway under 1x / 4x / 16x concurrent closed-loop
  clients (each waits for its response before sending the next).

Reported per mode: images/sec, request latency p50/p99, and the mean
coalesced batch size.  The record's explicit ``results`` map carries
only the latency seconds (rates must not enter the regression compare,
where smaller means better).

All modes here run with request tracing **off** (no ``trace_policy``),
which is also the gateway default: ``RequestTracer.mint`` then returns
``None`` after one flag check, every trace branch on the scheduler and
cluster path is an ``is not None`` test, and no span, clock read or
allocation happens per request — the tracing overhead on these numbers
is orders of magnitude below this bench's machine noise (<1%).
"""

from __future__ import annotations

import os
import threading
import time

from conftest import save_record

from repro.bench.workloads import make_engine
from repro.henn.protocol import (
    BatchedCloudService,
    Client,
    CloudService,
    ClusteredCloudService,
)
from repro.obs.metrics import get_registry
from repro.serving import ShedPolicy

#: Requests each closed-loop client issues per measured run.
REQUESTS_PER_CLIENT = 8
CONCURRENCIES = (1, 4, 16)
MAX_BATCH_SLOTS = 32
MAX_WAIT_MS = 2.0

#: Cluster scaling run (PR 7): 64x closed-loop clients against 1 vs 3 workers.
CLUSTER_CLIENTS = 64
CLUSTER_REQUESTS_PER_CLIENT = 4
CLUSTER_WORKERS = (1, 3)
CLUSTER_BATCH_SLOTS = 16


def _latencies_to_row(mode, concurrency, latencies, elapsed, batch_mean):
    n = len(latencies)
    ordered = sorted(latencies)
    p50 = ordered[max(0, (n + 1) // 2 - 1)]
    p99 = ordered[max(0, -(-99 * n // 100) - 1)]
    return [
        mode,
        concurrency,
        n,
        n / elapsed,
        p50 * 1e3,
        p99 * 1e3,
        batch_mean,
    ], (p50, p99)


def _run_clients(concurrency, issue, requests_per_client=REQUESTS_PER_CLIENT):
    """Closed-loop load: per-request latencies + wall-clock elapsed."""
    latencies: list[float] = []
    lock = threading.Lock()

    def client_loop():
        mine = []
        for _ in range(requests_per_client):
            t0 = time.perf_counter()
            issue()
            mine.append(time.perf_counter() - t0)
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=client_loop) for _ in range(concurrency)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies, time.perf_counter() - t0


def test_serving_throughput(benchmark, cnn1_models, preset):
    backend = make_engine(cnn1_models, "mock").backend
    client = Client(backend, cnn1_models.input_shape)
    image = cnn1_models.x_test[:1]

    rows, results = [], {}

    def measure():
        # serial baseline: the pre-gateway service, one request per call
        serial = CloudService(backend, cnn1_models.he_layers, cnn1_models.input_shape)
        serial.try_classify(client.encrypt_request(image))  # warm the plan caches

        def issue_serial():
            response = serial.try_classify(client.encrypt_request(image))
            assert response.ok, response.error

        latencies, elapsed = _run_clients(1, issue_serial)
        row, (p50, p99) = _latencies_to_row("serial", 1, latencies, elapsed, 1.0)
        rows.append(row)
        results["serial_p50_seconds"] = p50
        results["serial_p99_seconds"] = p99
        serial_rate = row[3]

        # batched gateway under increasing offered concurrency
        for concurrency in CONCURRENCIES:
            gateway = BatchedCloudService(
                backend,
                cnn1_models.he_layers,
                cnn1_models.input_shape,
                max_batch_slots=MAX_BATCH_SLOTS,
                max_wait_ms=MAX_WAIT_MS,
                max_queue_depth=4 * MAX_BATCH_SLOTS,
            )
            gateway.try_classify(client.encrypt_request(image), count=1)  # warm

            def issue_batched(gw=gateway):
                response = gw.try_classify(client.encrypt_request(image), count=1)
                assert response.ok, response.error

            latencies, elapsed = _run_clients(concurrency, issue_batched)
            stats = gateway.scheduler.stats()
            gateway.close()
            row, (p50, p99) = _latencies_to_row(
                "batched", concurrency, latencies, elapsed, stats["mean_batch_size"]
            )
            rows.append(row)
            results[f"batched_{concurrency}x_p50_seconds"] = p50
            results[f"batched_{concurrency}x_p99_seconds"] = p99
            if concurrency == max(CONCURRENCIES):
                speedup = row[3] / serial_rate
                rows.append(["speedup at 16x (vs serial)", "", "", speedup, "", "", ""])
                assert speedup >= 4.0, (
                    f"batched throughput only {speedup:.2f}x serial at "
                    f"{concurrency}x concurrency (acceptance floor: 4x)"
                )

    benchmark.pedantic(measure, rounds=1, iterations=1)
    get_registry().reset()  # serving histograms from this bench stay local
    save_record(
        "serving",
        ["mode", "clients", "requests", "images/sec", "p50 ms", "p99 ms", "mean batch"],
        rows,
        f"SERVING — dynamic batching throughput, mock backend (preset={preset.name})",
        results=results,
    )


def test_serving_cluster_scaling(benchmark, cnn1_models, preset):
    """Worker-pool scaling (PR 7): 3 process-backed workers vs 1 under
    64x closed-loop clients.

    Each batch evaluates in a forked worker process, so with >= 3 cores
    three workers overlap three batches and throughput must reach at
    least 2x the single-worker rate (the PR 7 acceptance floor).  On
    core-starved machines (this includes 1-2 core CI runners) the run
    is core-bound — the record still captures the latencies, but the
    scaling assertion drops to a sanity floor: the cluster must not
    *crater* throughput versus one worker.
    """
    backend = make_engine(cnn1_models, "mock").backend
    client = Client(backend, cnn1_models.input_shape)
    image = cnn1_models.x_test[:1]
    cores = os.cpu_count() or 1

    rows, results, rates = [], {}, {}

    def measure():
        for workers in CLUSTER_WORKERS:
            gateway = ClusteredCloudService(
                backend,
                cnn1_models.he_layers,
                cnn1_models.input_shape,
                workers=workers,
                max_batch_slots=CLUSTER_BATCH_SLOTS,
                max_wait_ms=MAX_WAIT_MS,
                max_queue_depth=8 * CLUSTER_CLIENTS,
                # Measuring capacity, not admission control: keep the
                # tiered ladder out of the way (the queue never fills
                # past ~12% here, so every request is plainly accepted).
                shed_policy=ShedPolicy(saturation_weight=0.0),
            )
            gateway.try_classify(client.encrypt_request(image), count=1)  # warm

            def issue(gw=gateway):
                response = gw.try_classify(client.encrypt_request(image), count=1)
                assert response.ok, response.error

            latencies, elapsed = _run_clients(
                CLUSTER_CLIENTS, issue, CLUSTER_REQUESTS_PER_CLIENT
            )
            stats = gateway.scheduler.stats()
            gateway.close()
            row, (p50, p99) = _latencies_to_row(
                f"cluster-{workers}w",
                CLUSTER_CLIENTS,
                latencies,
                elapsed,
                stats["mean_batch_size"],
            )
            rows.append(row)
            rates[workers] = row[3]
            results[f"cluster_{workers}w_p50_seconds"] = p50
            results[f"cluster_{workers}w_p99_seconds"] = p99

        scaling = rates[3] / rates[1]
        rows.append([f"scaling 3w/1w ({cores} cores)", "", "", scaling, "", "", ""])
        floor = 2.0 if cores >= 3 else 0.3
        assert scaling >= floor, (
            f"3-worker throughput only {scaling:.2f}x one worker on {cores} "
            f"cores (acceptance floor: {floor}x)"
        )

    benchmark.pedantic(measure, rounds=1, iterations=1)
    get_registry().reset()  # serving histograms from this bench stay local
    save_record(
        "serving_cluster",
        ["mode", "clients", "requests", "images/sec", "p50 ms", "p99 ms", "mean batch"],
        rows,
        "SERVING CLUSTER — worker-pool scaling, 64x closed-loop clients, "
        f"mock backend (preset={preset.name}, cores={cores})",
        results=results,
    )
