#!/usr/bin/env python
"""CI smoke check: the batching gateway coalesces and never drops a future.

Spins up a small mock-backend :class:`BatchedCloudService`, fires
concurrent closed-loop clients at it, and asserts — from counters, not
timing, so CI machine noise cannot flake it — that

* every submitted request resolved with the correct scores
  (bit-identical to the serial classification of the same ciphertexts),
* the scheduler genuinely coalesced (mean ``serving.batch.size`` > 1),
* the bookkeeping balances: completed == submitted, empty queue,
  and the ``serving.requests`` / batch-size counters agree.

A second check targets the gateway on CKKS-RNS, where a batch is
evaluated member by member: a ragged (2, 1) batch and a B = 4 batch must
be bit-identical to the serial service on the same ciphertexts, perform
zero fresh plaintext encodes when warm (``plan.encode.fresh``) and cost
exactly B x (linear maps) ``weighted_sum_encoded`` calls — one per map
per request.
A third puts a ragged batch through the mock gateway, where slots *are*
shared, and asserts the ``serving.pack.*`` accounting (pad waste,
requests vs images).

Exits non-zero with the offending numbers.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksRnsBackend, MockBackend
from repro.henn.layers import HeConv2d, HeFlatten, HeLinear, HeLinearMap, HePoly
from repro.henn.protocol import BatchedCloudService, Client, CloudService
from repro.obs.metrics import get_registry

CLIENTS = 8
REQUESTS_PER_CLIENT = 6
SHAPE = (1, 6, 6)


def build_layers():
    rng = np.random.default_rng(0)
    return [
        HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), rng.uniform(-0.1, 0.1, 2)),
        HePoly(np.array([0.1, 0.5, 0.25])),
        HeFlatten(),
        HeLinear(rng.uniform(-0.3, 0.3, (10, 32)), rng.uniform(-0.1, 0.1, 10)),
    ]


def _fire_one_batch(gateway: BatchedCloudService, requests: list, counts: list[int]) -> list:
    """Submit *requests* to a gateway sized to fire exactly when they are all in."""
    assert sum(counts) == gateway.scheduler.max_batch_slots
    futures = [gateway.submit(enc, count=c) for enc, c in zip(requests, counts)]
    return [f.result(timeout=300) for f in futures]


def real_scheme_gateway_check() -> int:
    """The gateway on CKKS-RNS: exact, warm, and linear in the batch size.

    A real-scheme batch is evaluated member by member, so the check is
    the honest one: a ragged (2, 1) batch and a B = 4 batch each fire as
    one batch, every member's scores are bit-identical to
    :class:`CloudService` on the same ciphertexts, the warm path
    performs zero fresh plaintext encodes, and the backend sees exactly
    B x (linear maps) ``weighted_sum_encoded`` calls: one per map, every
    output row at once.
    """
    layers = build_layers()
    backend = CkksRnsBackend(
        CkksRnsParams(
            n=128,
            moduli_bits=(36, 26, 26, 26, 26, 26),
            scale_bits=26,
            special_bits=45,
            hw=16,
        ),
        seed=0,
    )
    calls = 0
    original = backend.weighted_sum_encoded

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    backend.weighted_sum_encoded = counted

    client = Client(backend, SHAPE)
    serial = CloudService(backend, layers, SHAPE)
    images = np.random.default_rng(2).uniform(0, 1, (4, 1, 6, 6))
    serial.classify_encrypted(client.encrypt_request(images[:1]))  # warm-up: scalar encodes
    calls = 0
    serial.classify_encrypted(client.encrypt_request(images[:1]))
    per_request = calls

    reg = get_registry()
    maps = sum(isinstance(layer, HeLinearMap) for layer in layers)
    ok = per_request == maps
    if not ok:
        print(f"FAIL: {per_request} weighted_sum_encoded calls per request, expected {maps} (maps)")
    for counts in ([2, 1], [1, 1, 1, 1]):
        offsets = np.cumsum([0] + counts)
        requests = [
            client.encrypt_request(images[lo:hi]) for lo, hi in zip(offsets, offsets[1:])
        ]
        want = [
            client.decrypt_response(serial.classify_encrypted(enc), batch=c)
            for enc, c in zip(requests, counts)
        ]
        with BatchedCloudService(
            backend, layers, SHAPE, max_batch_slots=sum(counts), max_wait_ms=60_000.0
        ) as gateway:
            fresh_before = reg.counter("plan.encode.fresh").value
            calls = 0
            responses = _fire_one_batch(gateway, requests, counts)
            ws_calls = calls
            fresh_delta = reg.counter("plan.encode.fresh").value - fresh_before
            batches = gateway.scheduler.stats()["batches"]
            strategy = gateway._health()["packing"]["strategy"]
        print(
            f"ckks-rns gateway counts={counts}: batches={batches} "
            f"weighted_sum_encoded={ws_calls} (single request {per_request}) "
            f"fresh_encodes={fresh_delta} strategy={strategy}"
        )
        if batches != 1:
            print(f"FAIL: counts={counts} fired as {batches} batches, expected 1")
            ok = False
        for i, (response, w, c) in enumerate(zip(responses, want, counts)):
            if not response.ok:
                print(f"FAIL: counts={counts} member {i}: {response.error}")
                ok = False
            elif not np.array_equal(client.decrypt_response(response.scores, batch=c), w):
                print(f"FAIL: counts={counts} member {i}: gateway scores != serial scores")
                ok = False
        if ws_calls != len(counts) * per_request:
            print(
                f"FAIL: {ws_calls} weighted_sum_encoded calls for {len(counts)} members, "
                f"expected {len(counts)} x {per_request}: a real-scheme batch costs "
                "exactly its members, no more and no less"
            )
            ok = False
        if fresh_delta != 0:
            print(f"FAIL: warm gateway batch performed {fresh_delta} fresh encodes")
            ok = False
        if strategy != "per-request":
            print(f"FAIL: /healthz packing.strategy = {strategy!r} on CKKS-RNS")
            ok = False
    if ok:
        print("OK: ckks-rns gateway bit-identical to serial, zero warm encodes, cost linear in B")
    return 0 if ok else 1


def mock_pad_waste_check() -> int:
    """Slot sharing on the mock gateway meters its padding waste.

    A ragged (2, 1) batch shares slots — 3 used, padded to 4 — so
    ``serving.pack.pad_slots`` advances by exactly 1, and ``/healthz``
    counts two requests carrying three images.
    """
    layers = build_layers()
    backend = MockBackend(batch=64, levels=6)
    client = Client(backend, SHAPE)
    images = np.random.default_rng(3).uniform(0, 1, (3, 1, 6, 6))
    requests = [client.encrypt_request(images[:2]), client.encrypt_request(images[2:])]
    reg = get_registry()
    names = ("batches", "requests", "slots", "pad_slots")
    before = [reg.counter(f"serving.pack.{n}").value for n in names]
    with BatchedCloudService(
        backend, layers, SHAPE, max_batch_slots=3, max_wait_ms=60_000.0
    ) as gateway:
        responses = _fire_one_batch(gateway, requests, [2, 1])
        packing = gateway._health()["packing"]
    delta = [int(reg.counter(f"serving.pack.{n}").value - b) for n, b in zip(names, before)]
    print(f"mock ragged batch: serving.pack deltas {dict(zip(names, delta))} healthz {packing}")
    ok = True
    if not all(r.ok for r in responses):
        print("FAIL: ragged mock batch did not resolve")
        ok = False
    if delta != [1, 2, 3, 1]:
        print(f"FAIL: serving.pack.* advanced by {delta}, expected [1, 2, 3, 1]")
        ok = False
    if packing["strategy"] != "slots" or packing["requests"] < 2 or "images" in packing:
        print(f"FAIL: /healthz packing block {packing}")
        ok = False
    if ok:
        print("OK: pad waste metered, requests and images counted apart")
    return 0 if ok else 1


def main() -> int:
    layers = build_layers()
    backend = MockBackend(batch=64, levels=6)
    client = Client(backend, SHAPE)
    serial = CloudService(backend, layers, SHAPE)
    gateway = BatchedCloudService(
        backend, layers, SHAPE, max_batch_slots=16, max_wait_ms=5.0
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
                    failures.append(f"client {c}: batched scores != serial scores")

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    wedged = [t for t in threads if t.is_alive()]

    stats = gateway.scheduler.stats()
    gateway.close()

    reg = get_registry()
    batch_size = reg.histogram("serving.batch.size")
    completed_ok = reg.counter("henn.requests", {"outcome": "ok"}).value

    print(
        f"submitted={total} resolved={sum(resolved)} "
        f"completed={stats['requests_completed']} batches={stats['batches']} "
        f"mean_batch={stats['mean_batch_size']:.2f} queue={stats['queue_depth']}"
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
    # the serial references go through classify_encrypted, which does
    # not count requests: only the gateway's requests appear here
    if completed_ok != total:
        print(f"FAIL: henn.requests{{outcome=ok}} = {completed_ok}, expected {total}")
        ok = False
    if not stats["mean_batch_size"] > 1.0:
        print(
            f"FAIL: mean batch size {stats['mean_batch_size']:.2f} — "
            "the gateway never coalesced concurrent requests"
        )
        ok = False
    if batch_size.count != stats["batches"]:
        print(
            f"FAIL: serving.batch.size has {batch_size.count} observations "
            f"for {stats['batches']} batches"
        )
        ok = False
    if ok:
        print("OK: all futures resolved, batching active, scores bit-identical to serial")
    if ok:
        return real_scheme_gateway_check() or mock_pad_waste_check()
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
