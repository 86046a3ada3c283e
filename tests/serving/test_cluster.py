"""The serving cluster: pool lifecycle, failover, gateway integration.

The robustness acceptance of PR 7 lives here: a worker SIGKILLed
mid-batch must never drop a future — every submitted request resolves
with correct scores or a retryable error, the dead worker respawns, and
the survivors keep serving.  All assertions are count-based (deaths,
respawns, resolved futures), never timing-based.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

from repro.henn.backend import MockBackend
from repro.henn.layers import HeConv2d, HeFlatten, HeLayer, HeLinear, HePoly
from repro.henn.protocol import (
    BatchedCloudService,
    Client,
    ClusteredCloudService,
    CloudService,
)
from repro.obs.logs import capture_logs
from repro.obs.metrics import get_registry
from repro.resilience import FaultInjector
from repro.serving import cluster, shedding
from repro.serving.cluster import WorkerPool, _Job

SHAPE = (1, 6, 6)


@pytest.fixture(scope="module")
def layers():
    rng = np.random.default_rng(0)
    return [
        HeConv2d(rng.normal(0, 0.4, (2, 1, 3, 3)), np.zeros(2), stride=2),
        HePoly([0.1, 0.5, 0.25]),
        HeFlatten(),
        HeLinear(rng.normal(0, 0.3, (10, 8)), np.zeros(10)),
    ]


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(1).uniform(0, 1, (8, 1, 6, 6))


def _mock():
    return MockBackend(batch=8, levels=6)


def _wait(predicate, timeout=20.0, interval=0.05):
    """Poll until *predicate* is truthy; the per-test watchdog still
    bounds the whole test, this just keeps assertions count-based."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- gateway end to end ------------------------------------------------------


def test_cluster_scores_bit_identical_to_serial(layers, images):
    backend = _mock()
    client = Client(backend, SHAPE)
    serial = CloudService(backend, layers, SHAPE)
    encs = [client.encrypt_request(images[i : i + 1]) for i in range(4)]
    want = [client.decrypt_response(serial.classify_encrypted(e), batch=1) for e in encs]
    with ClusteredCloudService(
        backend, layers, SHAPE, workers=2, max_wait_ms=10.0
    ) as gateway:
        futures = [gateway.submit(e) for e in encs]
        responses = [f.result(timeout=60) for f in futures]
    for response, expected in zip(responses, want):
        assert response.ok, response.error
        got = client.decrypt_response(response.scores, batch=1)
        assert np.array_equal(got, expected)


class _RaisesOnMarkedInput(HeLayer):
    """Fails the evaluation — inside the engine, worker process included —
    when the request's first pixel is the marker (mock handles are legible)."""

    def forward(self, backend, x):
        if x.reshape(-1)[0].values[0] > 50.0:
            raise RuntimeError("marked input: 51.0")
        return x


def _lifecycle_of(make_service, layers, images) -> dict:
    """Counter / health / event footprint of one ok request, one failed
    evaluation and (pipelined services) one cancelled dispatch."""
    backend = _mock()
    client = Client(backend, SHAPE)
    marked = images[:1].copy()
    marked[0, 0, 0, 0] = 51.0
    reg = get_registry()
    probes = {
        "ok": reg.counter("henn.requests", {"outcome": "ok"}),
        "error": reg.counter("henn.requests", {"outcome": "error"}),
        "service_errors": reg.counter("resilience.service_errors"),
    }
    latency = reg.histogram("henn.request.seconds")
    service = make_service(backend, [_RaisesOnMarkedInput()] + layers)
    try:
        before = {name: c.value for name, c in probes.items()}
        observed = latency.count
        with capture_logs() as buf:
            assert service.try_classify(client.encrypt_request(images[:1])).ok
            failed = service.try_classify(client.encrypt_request(marked))
            assert failed.error.code == "RuntimeError" and "51" not in failed.error.detail
            cancelled = None
            if hasattr(service, "dispatcher"):
                dead = Future()
                dead.cancel()
                service.dispatcher.dispatch = lambda *a, **k: dead
                cancelled = service.try_classify(client.encrypt_request(images[:1]))
                assert cancelled.error.code == "SchedulerClosedError"
        events = [(r["event"], tuple(sorted(r))) for r in buf.records()]
        return {
            **{name: c.value - before[name] for name, c in probes.items()},
            "observed": latency.count - observed,
            "served": service._health()["requests"],
            "events": events,
        }
    finally:
        if hasattr(service, "close"):
            service.close()


def test_request_lifecycle_is_identical_across_the_three_services(layers, images):
    """Same requests, same footprint: ``henn.requests{ok,error}``,
    ``resilience.service_errors`` (one per failed evaluation — a cancelled
    dispatch is one), ``henn.request.seconds`` observations, the served
    count and the start -> ok|error event keys, whichever service ran."""
    serial = _lifecycle_of(lambda b, l: CloudService(b, l, SHAPE), layers, images)
    assert {k: v for k, v in serial.items() if k != "events"} == {
        "ok": 1, "error": 1, "service_errors": 1, "observed": 1, "served": 2,
    }
    assert [name for name, _ in serial["events"]] == [
        "henn.request.start", "henn.request.ok", "henn.request.start", "henn.request.error",
    ]
    batched = _lifecycle_of(
        lambda b, l: BatchedCloudService(b, l, SHAPE, max_wait_ms=1.0), layers, images
    )
    assert batched == serial
    clustered = _lifecycle_of(
        lambda b, l: ClusteredCloudService(b, l, SHAPE, workers=2, max_wait_ms=1.0),
        layers,
        images,
    )
    # ... plus the cancelled dispatch: one more failed evaluation, same keys.
    assert clustered == {
        **serial,
        "error": 2,
        "service_errors": 2,
        "served": 3,
        "events": serial["events"] + serial["events"][2:],
    }


def test_healthz_reports_pool_and_shed_tier(layers, images):
    backend = _mock()
    client = Client(backend, SHAPE)
    with ClusteredCloudService(
        backend, layers, SHAPE, workers=2, max_wait_ms=5.0
    ) as gateway:
        gateway.try_classify(client.encrypt_request(images[:1]))
        status = gateway._health()
        cluster = status["cluster"]
        assert cluster["size"] == 2
        assert cluster["ready"] == 2
        assert cluster["shed_tier"] in ("accept", "defer", "reject", "shed")
        assert cluster["degraded_serial"] is False
        states = {w["state"] for w in cluster["workers"]}
        assert states <= {"warming", "ready", "dead", "respawning"}
        assert all("health" in w and "inflight" in w for w in cluster["workers"])
        assert status["serving"]["shed_tiers"] is True  # ShedPolicy on by default


@pytest.mark.faults
def test_worker_killed_mid_batch_never_drops_a_future(layers, images):
    """Acceptance: SIGKILL one of the workers as it starts a batch; every
    submitted future still resolves (correct scores — the batch fails
    over to a survivor), the death is counted, and the dead worker
    respawns and reports ready again."""
    backend = _mock()
    client = Client(backend, SHAPE)
    serial = CloudService(backend, layers, SHAPE)
    injector = FaultInjector(seed=7).kill_cluster_worker(worker=0, on_batch=1)
    with ClusteredCloudService(
        backend,
        layers,
        SHAPE,
        workers=2,
        max_wait_ms=5.0,
        fault_injector=injector,
    ) as gateway:
        resolved = 0
        for i in range(6):
            enc = client.encrypt_request(images[i : i + 1])
            want = client.decrypt_response(serial.classify_encrypted(enc), batch=1)
            response = gateway.submit(enc).result(timeout=60)
            assert response.ok, response.error
            got = client.decrypt_response(response.scores, batch=1)
            assert np.array_equal(got, want)
            resolved += 1
        assert resolved == 6  # zero dropped futures
        stats = gateway.pool.stats()
        assert stats["deaths"] == 1
        assert injector.summary().get("cluster.kill") == 1
        # The dead worker comes back: both slots ready again.
        assert _wait(lambda: gateway.pool.stats()["ready"] == 2)
        assert gateway.pool.stats()["respawns"] == 1
        assert gateway.dispatcher.degraded is False


@pytest.mark.faults
def test_respawned_worker_serves_again(layers, images):
    """After the failover, the *respawned* worker must take traffic —
    counted via its per-worker batch counter, not timing."""
    backend = _mock()
    client = Client(backend, SHAPE)
    injector = FaultInjector(seed=3).kill_cluster_worker(worker=0, on_batch=1)
    with ClusteredCloudService(
        backend,
        layers,
        SHAPE,
        workers=1,  # single worker: respawn is the only way forward
        max_wait_ms=5.0,
        fault_injector=injector,
    ) as gateway:
        enc = client.encrypt_request(images[:1])
        response = gateway.submit(enc).result(timeout=60)
        assert response.ok, response.error  # served by the respawned generation
        worker = gateway.pool.stats()["workers"][0]
        assert worker["generation"] == 2
        assert worker["batches"] >= 1


# -- pool / dispatcher units -------------------------------------------------


def _trivial_engine_factory():
    class _Engine:
        def assemble_batch(self, requests, slots):
            return requests

        def run_encrypted(self, enc):
            return [np.asarray(r) * 2 for r in enc]

        def split_scores(self, scores, slots):
            return scores

    return _Engine()


def test_pool_health_weighted_acquire_prefers_idle_and_healthy():
    pool = WorkerPool(_trivial_engine_factory, size=3)
    try:
        pool.start()
        assert pool.wait_ready(timeout=30.0)
        # Busy worker 0 is no candidate, worker 1 is faulty; worker 2 must win.
        pool.workers[0].inflight = {99: object()}
        pool.workers[1].faults = 2.0
        job = _Job(1, [], [1])
        chosen = pool.acquire(job)
        assert chosen is pool.workers[2]
        pool.release_without_send(chosen, job)
    finally:
        pool.close()


def test_pool_saturation_tracks_busy_fraction():
    pool = WorkerPool(_trivial_engine_factory, size=2)
    try:
        pool.start()
        assert pool.wait_ready(timeout=30.0)
        assert pool.saturation() == 0.0
        pool.workers[0].inflight = {1: object()}
        assert pool.saturation() == 0.5
        pool.workers[0].inflight = {}
    finally:
        pool.close()


def _doubling_engine_factory():
    class _Engine:
        backend = SimpleNamespace(native_slot_concat=False)  # evaluated member by member

        def run_encrypted(self, enc):
            return np.asarray(enc) * 2

    return _Engine()


@pytest.mark.faults
def test_a_result_for_a_resolved_future_leaves_the_receiver_serving():
    """Regression: the receive loop resolved a job with a bare ``set_result``,
    so a result for a future already resolved elsewhere raised
    ``InvalidStateError`` on the receiver thread; it died and no later
    result of that worker was read.  Every cluster resolution goes
    through the exactly-once ``_resolve`` now."""
    pool = WorkerPool(_doubling_engine_factory, size=1)
    try:
        pool.start()
        assert pool.wait_ready(timeout=30.0)
        worker = pool.workers[0]
        stale, fresh = _Job(1, [np.ones(2)], [1]), _Job(2, [np.full(2, 3.0)], [1])
        stale.future.set_result("resolved elsewhere")
        for job in (stale, fresh):
            assert pool.acquire(job) is worker
            worker.conn.send(("batch", job.job_id, (job.requests, job.slots, job.sampled)))
            assert _wait(lambda: not worker.inflight, timeout=30.0)
        assert stale.future.result(timeout=0) == "resolved elsewhere"
        (scores,) = fresh.future.result(timeout=30.0)
        assert np.array_equal(scores, np.full(2, 6.0))
        assert pool._recv_threads[worker.index].is_alive()
    finally:
        pool.close()


def test_pool_rejects_bad_sizes():
    with pytest.raises(ValueError):
        WorkerPool(_trivial_engine_factory, size=0)


def _failing_engine_factory():
    raise RuntimeError("engine build failed")


@pytest.mark.faults
@pytest.mark.parametrize("attempts", [1, 2])
def test_respawn_budget_bounds_a_worker_that_never_gets_ready(monkeypatch, attempts):
    """Regression: a child that died before reporting ready started a
    second respawn loop with a fresh budget, so a worker that can never
    build its engine was respawned without bound.  Its death is the
    running loop's failed attempt: one spawn plus RESPAWN_MAX_ATTEMPTS,
    then the pool is lost.  ``_spawn`` is capped so a regression fails
    fast instead of forking on."""
    cap = 12
    spawns = []
    real_spawn = WorkerPool._spawn

    def capped_spawn(self, worker):
        spawns.append(worker.index)
        if len(spawns) > cap:
            raise RuntimeError("spawn cap reached")
        real_spawn(self, worker)

    monkeypatch.setattr(cluster, "RESPAWN_MAX_ATTEMPTS", attempts)
    monkeypatch.setattr(WorkerPool, "_spawn", capped_spawn)
    pool = WorkerPool(_failing_engine_factory, size=1)
    try:
        pool.start()
        assert _wait(pool.is_lost, timeout=30.0)
        time.sleep(0.3)  # a stray second loop would spawn again here
        assert len(spawns) == 1 + attempts
        assert pool.is_lost() and pool.stats()["lost"]
    finally:
        pool.close()


@pytest.mark.faults
def test_a_respawn_counts_only_a_worker_that_became_ready(monkeypatch):
    """Regression: ``respawns`` ("dead workers successfully respawned to
    ready") ticked as soon as the fork returned, so a worker that never
    built its engine counted every attempt.  ``_spawn`` is capped so a
    regression fails fast instead of forking on."""
    spawns = []
    real_spawn = WorkerPool._spawn

    def capped_spawn(self, worker):
        spawns.append(worker.index)
        if len(spawns) > 6:
            raise RuntimeError("spawn cap reached")
        real_spawn(self, worker)

    monkeypatch.setattr(cluster, "RESPAWN_MAX_ATTEMPTS", 2)
    monkeypatch.setattr(WorkerPool, "_spawn", capped_spawn)
    counted = get_registry().counter("cluster.respawns").value
    pool = WorkerPool(_failing_engine_factory, size=1)
    try:
        pool.start()
        assert _wait(pool.is_lost, timeout=30.0)
        assert pool.stats()["respawns"] == 0
        assert get_registry().counter("cluster.respawns").value == counted
        assert pool.is_lost()
    finally:
        pool.close()


def test_failover_backoff_is_seeded_and_capped():
    import random

    from repro.serving.cluster import BACKOFF_JITTER, BACKOFF_MAX_S, _backoff_delay

    a = [_backoff_delay(i, random.Random(3)) for i in range(1, 12)]
    b = [_backoff_delay(i, random.Random(3)) for i in range(1, 12)]
    assert a == b
    assert a[1] > a[0]  # exponential before the cap
    assert all(d <= BACKOFF_MAX_S * (1 + BACKOFF_JITTER) for d in a)
    assert a[-1] >= BACKOFF_MAX_S * (1 - BACKOFF_JITTER)


def test_shed_policy_reaches_cluster_gateway(monkeypatch, layers, images):
    """The cluster gateway's admission walks the tiered ladder: with every
    threshold at zero, every submit sheds hard."""
    for threshold in ("DEFER_FILL", "REJECT_FILL", "SHED_FILL"):
        monkeypatch.setattr(shedding, threshold, 0.0)
    backend = _mock()
    client = Client(backend, SHAPE)
    with ClusteredCloudService(backend, layers, SHAPE, workers=1) as gateway:
        response = gateway.try_classify(client.encrypt_request(images[:1]))
        assert not response.ok
        assert response.error.code == "ServiceShedError"
        assert response.error.retryable is False
