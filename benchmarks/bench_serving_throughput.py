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
from repro.henn.inference import HeInferenceEngine
from repro.henn.protocol import (
    BatchedCloudService,
    Client,
    CloudService,
    ClusteredCloudService,
)
from repro.obs.metrics import get_registry
from repro.serving import ShedPolicy, SlotPackedBackend

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

#: Lane-packed sweep (PR 8): batch sizes for the CKKS-RNS amortization run.
PACKED_BATCHES = (1, 4, 16)
#: Serial-engine per-image time over the packed one must stay above this.
#: 1.0 would be parity; measured 0.90 (B = 1), 0.93 (B = 4), 0.84 (B = 16)
#: on one core, and the box's run-to-run spread is ~10 %.
PACKED_SERIAL_FLOOR = 0.75


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


def test_serving_packed_amortized(benchmark, cnn1_models, preset):
    """Lane packing on the real CKKS-RNS scheme (PR 8): amortized
    per-image latency vs. batch size, against the plain serial engine.

    The baseline is what a gateway-less service does: one
    :class:`HeInferenceEngine` on the raw backend evaluating one request
    (no assemble / split).  :class:`SlotPackedBackend` stacks B requests
    along a lane axis and issues one inner call per operation, so per-op
    Python/NumPy overhead amortizes across the batch — but the
    arithmetic is *exact* per lane and therefore linear in B: there is
    no SIMD win to collect on one core, and past the cache-friendly
    batch sizes the larger temporaries cost more than the overhead
    saved (B = 16 reads slower per image than B = 4).  Against this
    baseline lane packing is *not* a single-core speed-up — the old
    "1.15-1.5x" compared with a memberwise fan-out that also lost the
    position-packed BSGS — so the floor asserted is a cost bound: at
    B = 1 (the wrapper alone) and at the best batch size the packed
    per-image time must stay within ``1 / PACKED_SERIAL_FLOOR`` of the
    serial engine's.  See docs/PERFORMANCE.md for why the
    >= 4x SIMD win requires native slot concatenation, demonstrated on
    the mock backend above, or multi-core residue executors.  Timings
    cover the server side, warm plan caches.
    """
    backend = make_engine(cnn1_models, "ckks-rns").backend
    layers = cnn1_models.he_layers
    shape = cnn1_models.input_shape
    image = cnn1_models.x_test[:1]
    repeats = max(2, preset.latency_repeats)

    serial = HeInferenceEngine(backend, layers, shape)
    packed = HeInferenceEngine(SlotPackedBackend(backend), layers, shape)

    def run_serial():
        request = serial.encrypt_images(image)
        t0 = time.perf_counter()
        serial.run_encrypted(request)
        return time.perf_counter() - t0

    def run_once(engine, b):
        requests = [engine.encrypt_images(image) for _ in range(b)]
        counts = [1] * b
        t0 = time.perf_counter()
        batch = engine.assemble_batch(requests, counts)
        scores = engine.run_encrypted(batch)
        engine.split_scores(scores, counts)
        return time.perf_counter() - t0

    rows, results = [], {}

    def measure():
        run_serial()  # warm: compiles plans, memoizes encodes
        run_once(packed, 1)

        serial_s = min(run_serial() for _ in range(repeats))
        rows.append(["serial", 1, serial_s * 1e3, serial_s * 1e3])
        results["serial_b1_per_image_seconds"] = serial_s

        amortized = {}
        for b in PACKED_BATCHES:
            total = min(run_once(packed, b) for _ in range(repeats))
            amortized[b] = total / b
            rows.append(["packed", b, total * 1e3, amortized[b] * 1e3])
            results[f"packed_b{b}_per_image_seconds"] = amortized[b]
        best = min(amortized, key=amortized.get)
        rows.append([f"serial / packed at B={best} (best)", "", "", serial_s / amortized[best]])
        for b in (1, best):
            ratio = serial_s / amortized[b]
            assert ratio >= PACKED_SERIAL_FLOOR, (
                f"packed B={b} runs at {ratio:.2f}x the serial engine's per-image "
                f"rate (floor {PACKED_SERIAL_FLOOR}: exact lane packing is linear "
                "in B, it may amortize overhead but must not cost throughput)"
            )

    benchmark.pedantic(measure, rounds=1, iterations=1)
    get_registry().reset()  # serving counters from this bench stay local
    save_record(
        "serving_packed",
        ["mode", "B", "batch ms", "per-image ms"],
        rows,
        "SERVING PACKED — lane-packed amortization, CKKS-RNS backend "
        f"(preset={preset.name})",
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
