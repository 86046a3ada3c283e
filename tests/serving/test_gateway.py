"""BatchedCloudService: the dynamic-batching gateway end to end.

The load-bearing claim of the serving layer is tested here on every
backend family: running requests *through* the batching gateway yields
**bit-identical** scores to classifying each request serially — slot
packing is an execution strategy, never an approximation.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.ckks import CkksParams
from repro.ckksrns import CkksRnsParams
from repro.henn import protocol
from repro.henn.backend import CkksBackend, CkksRnsBackend, MockBackend
from repro.henn.layers import HeConv2d, HeFlatten, HeLinear, HePoly
from repro.henn.protocol import (
    BatchedCloudService,
    Client,
    CloudResponse,
    CloudService,
    ServiceError,
)
from repro.obs.logs import capture_logs
from repro.resilience.errors import ProtocolError
from repro.serving.errors import RequestValidationError

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
    return np.random.default_rng(1).uniform(0, 1, (6, 1, 6, 6))


def _mock():
    return MockBackend(batch=8, levels=6)


def _backends():
    yield "mock", _mock()
    yield "ckksrns", CkksRnsBackend(
        CkksRnsParams(
            n=128, moduli_bits=(36, 26, 26, 26, 26, 26), scale_bits=26, special_bits=45, hw=16
        ),
        seed=0,
    )
    yield "ckks", CkksBackend(CkksParams(n=128, levels=6, scale_bits=26), seed=0)


@pytest.mark.parametrize("name,backend", list(_backends()), ids=lambda v: v if isinstance(v, str) else "")
def test_batched_scores_bit_identical_to_serial(name, backend, layers, images):
    """Acceptance: the same ciphertexts, classified serially and through
    a coalesced batch, decrypt to byte-for-byte equal logits."""
    n = 3
    client = Client(backend, SHAPE)
    serial = CloudService(backend, layers, SHAPE)
    encs = [client.encrypt_request(images[i : i + 1]) for i in range(n)]
    want = [client.decrypt_response(serial.classify_encrypted(e), batch=1) for e in encs]

    gateway = BatchedCloudService(backend, layers, SHAPE, max_wait_ms=50.0)
    futures = [gateway.submit(e, count=1) for e in encs]
    for i, future in enumerate(futures):
        response = future.result(timeout=120)
        assert response.ok, response.error
        got = client.decrypt_response(response.scores, batch=1)
        assert np.array_equal(got, want[i]), f"{name}: batched != serial for request {i}"
    assert gateway.scheduler.stats()["requests_completed"] == n
    gateway.close()


def test_concurrent_clients_coalesce_into_batches(layers, images):
    backend = _mock()
    client = Client(backend, SHAPE)
    serial = CloudService(backend, layers, SHAPE)
    gateway = BatchedCloudService(backend, layers, SHAPE, max_wait_ms=25.0)
    n = 6
    encs = [client.encrypt_request(images[i : i + 1]) for i in range(n)]
    want = [client.decrypt_response(serial.classify_encrypted(e), batch=1) for e in encs]

    results: list[np.ndarray | None] = [None] * n

    def worker(i):
        response = gateway.try_classify(encs[i], count=1)
        assert response.ok, response.error
        results[i] = client.decrypt_response(response.scores, batch=1)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    for i in range(n):
        assert np.array_equal(results[i], want[i])
    stats = gateway.scheduler.stats()
    assert stats["requests_completed"] == n
    assert stats["batches"] < n, "requests were never coalesced"
    gateway.close()


def test_multi_image_requests_share_a_batch(layers, images):
    backend = _mock()
    client = Client(backend, SHAPE)
    serial = CloudService(backend, layers, SHAPE)
    gateway = BatchedCloudService(backend, layers, SHAPE, max_wait_ms=25.0)
    enc_a = client.encrypt_request(images[:2])
    enc_b = client.encrypt_request(images[2:5])
    want_a = client.decrypt_response(serial.classify_encrypted(enc_a), batch=2)
    want_b = client.decrypt_response(serial.classify_encrypted(enc_b), batch=3)
    # slot counts are discovered from the mock handles (no count= needed)
    fa, fb = gateway.submit(enc_a), gateway.submit(enc_b)
    ra, rb = fa.result(timeout=30), fb.result(timeout=30)
    assert ra.ok and rb.ok
    assert np.array_equal(client.decrypt_response(ra.scores, batch=2), want_a)
    assert np.array_equal(client.decrypt_response(rb.scores, batch=3), want_b)
    gateway.close()


def test_admission_rejects_malformed_without_poisoning_batchmates(layers, images):
    backend = _mock()
    client = Client(backend, SHAPE)
    gateway = BatchedCloudService(backend, layers, SHAPE, max_wait_ms=25.0)
    good = client.encrypt_request(images[:1])
    wrong_shape = np.empty((1, 5, 5), dtype=object)
    # a drifted ciphertext: consumed levels disqualify it at admission
    drifted = client.encrypt_request(images[:1]).copy()
    drifted[0, 0, 0] = backend.rescale(backend.relinearize_ext(backend.square_raw(drifted[0, 0, 0])))

    good_future = gateway.submit(good, count=1)
    bad_shape = gateway.try_classify(wrong_shape)
    bad_level = gateway.try_classify(drifted, count=1)
    bad_count = gateway.try_classify(client.encrypt_request(images[:2]), count=1)

    for response in (bad_shape, bad_level, bad_count):
        assert not response.ok
        assert response.error.code == "RequestValidationError"
        assert response.error.category == "state"
        assert not response.error.retryable
    good_response = good_future.result(timeout=30)
    assert good_response.ok, "a rejected request must not fail its batchmates"
    gateway.close()


def test_admission_rejects_a_request_of_plain_floats(layers):
    """Cells without a level and scale are refused before batching."""
    gateway = BatchedCloudService(_mock(), layers, SHAPE)
    floats = np.full(SHAPE, 0.5, dtype=object)
    response = gateway.submit(floats, count=1).result(timeout=30)
    assert not response.ok
    assert response.error.code == "RequestValidationError"
    with pytest.raises(RequestValidationError, match="handle 0 is not a ciphertext"):
        gateway._validate_request(floats, 1)
    gateway.close()


def test_error_detail_never_echoes_request_data(layers, images):
    backend = _mock()
    client = Client(backend, SHAPE)
    gateway = BatchedCloudService(backend, layers, SHAPE)
    drifted = client.encrypt_request(images[:1]).copy()
    drifted[0, 0, 0] = backend.rescale(backend.relinearize_ext(backend.square_raw(drifted[0, 0, 0])))
    response = gateway.try_classify(drifted, count=1)
    # canned sentence from the fixed vocabulary, no interpolation
    assert response.error.detail == "request rejected at admission"
    gateway.close()


def test_backpressure_returns_retryable_overload(layers, images):
    backend = _mock()
    client = Client(backend, SHAPE)
    gateway = BatchedCloudService(
        backend, layers, SHAPE, max_wait_ms=500.0, max_queue_depth=2
    )
    enc = lambda: client.encrypt_request(images[:1])  # noqa: E731
    # the 500 ms deadline keeps both admitted requests queued (2 of 8
    # slots used: not full, not blocked), so the queue is provably at
    # its depth-2 bound when the third request arrives
    admitted = [gateway.submit(enc(), count=1) for _ in range(2)]
    overloaded = gateway.try_classify(enc(), count=1)
    assert not overloaded.ok
    assert overloaded.error.category == "overload"
    assert overloaded.error.retryable
    assert all(f.result(timeout=60).ok for f in admitted)
    gateway.close()


def test_classify_encrypted_routes_through_queue_and_raises(layers, images):
    backend = _mock()
    client = Client(backend, SHAPE)
    gateway = BatchedCloudService(backend, layers, SHAPE, max_wait_ms=5.0)
    enc = client.encrypt_request(images[:1])
    scores = gateway.classify_encrypted(enc)
    assert client.decrypt_response(scores, batch=1).shape == (1, 10)
    with pytest.raises(ProtocolError):
        gateway.classify_encrypted(np.empty((9, 9, 9), dtype=object))
    gateway.close()


def test_health_reports_scheduler_stats(layers, images):
    backend = _mock()
    client = Client(backend, SHAPE)
    with BatchedCloudService(backend, layers, SHAPE, max_wait_ms=5.0) as gateway:
        assert gateway.try_classify(client.encrypt_request(images[:1]), count=1).ok
        health = gateway._health()
        assert health["ready"] is True
        assert health["serving"]["requests_completed"] == 1
        assert health["serving"]["max_batch_slots"] == backend.max_batch
        assert health["last_latency_seconds"] > 0


def test_request_lifecycle_events_have_unique_ids(layers, images):
    backend = _mock()
    client = Client(backend, SHAPE)
    gateway = BatchedCloudService(backend, layers, SHAPE, max_wait_ms=25.0)
    encs = [client.encrypt_request(images[i : i + 1]) for i in range(4)]
    with capture_logs() as buf:
        futures = [gateway.submit(e, count=1) for e in encs]
        assert all(f.result(timeout=30).ok for f in futures)
    records = buf.records()
    starts = [r["request"] for r in records if r["event"] == "henn.request.start"]
    oks = [r["request"] for r in records if r["event"] == "henn.request.ok"]
    assert len(starts) == 4 and len(set(starts)) == 4
    assert sorted(oks) == sorted(starts)
    gateway.close()


def test_close_after_close_is_idempotent(layers):
    gateway = BatchedCloudService(_mock(), layers, SHAPE)
    gateway.close()
    gateway.close()
    response = gateway.try_classify(np.empty(SHAPE, dtype=object))
    assert not response.ok  # shut down or invalid — never a hang


@pytest.mark.faults
def test_concurrent_submitters_with_poison_and_overload(layers, images):
    """Acceptance: under concurrent load with mid-admission rejections
    and a bounded queue, every submitter gets exactly one answer."""
    backend = _mock()
    client = Client(backend, SHAPE)
    serial = CloudService(backend, layers, SHAPE)
    gateway = BatchedCloudService(
        backend, layers, SHAPE, max_wait_ms=2.0, max_queue_depth=8
    )
    n = 24
    encs, want = [], []
    for i in range(n):
        enc = client.encrypt_request(images[i % len(images)][None])
        if i % 5 == 0:  # poison: drift the level of one handle
            enc = enc.copy()
            enc[0, 0, 0] = backend.rescale(backend.relinearize_ext(backend.square_raw(enc[0, 0, 0])))
            want.append(None)
        else:
            want.append(client.decrypt_response(serial.classify_encrypted(enc), batch=1))
        encs.append(enc)

    outcomes: list[str | None] = [None] * n

    def submitter(i):
        for _ in range(20):  # bounded retry on backpressure
            response = gateway.try_classify(encs[i], count=1)
            if response.ok:
                assert np.array_equal(
                    client.decrypt_response(response.scores, batch=1), want[i]
                )
                outcomes[i] = "ok"
                return
            if response.error.code == "RequestValidationError":
                assert i % 5 == 0, f"well-formed request {i} rejected at admission"
                outcomes[i] = "rejected"
                return
            assert response.error.retryable, response.error
            time.sleep(0.002)
        outcomes[i] = "starved"

    threads = [threading.Thread(target=submitter, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "a submitter never got an answer"
    assert all(o is not None for o in outcomes)
    for i, outcome in enumerate(outcomes):
        if i % 5 == 0:
            assert outcome == "rejected"
        else:
            assert outcome in ("ok", "starved")
    assert outcomes.count("ok") >= n - n // 5 - 2  # at most a couple starved
    gateway.close()


# -- classify_with_retry against an overloaded cloud (stubbed) ------------------------


class _FlakyCloud:
    """Stub cloud: overloaded for the first *k* calls, then healthy."""

    def __init__(self, overloaded_calls: int, then: CloudResponse):
        self.overloaded_calls = overloaded_calls
        self.then = then
        self.calls = 0

    def try_classify(self, enc):
        self.calls += 1
        if self.calls <= self.overloaded_calls:
            return CloudResponse(
                ok=False,
                error=ServiceError(
                    "ServiceOverloadedError",
                    "overload",
                    True,
                    "service at capacity, retry with backoff",
                ),
            )
        return self.then


def _ok_response(backend, scores_shape=(10,)):
    handles = np.array(
        [backend.encrypt(np.array([0.1 * i])) for i in range(scores_shape[0])],
        dtype=object,
    )
    return CloudResponse(ok=True, scores=handles)


def test_retry_backs_off_through_overload(images, monkeypatch):
    monkeypatch.setattr(protocol, "RETRY_JITTER", 0.0)
    backend = _mock()
    client = Client(backend, SHAPE)
    cloud = _FlakyCloud(overloaded_calls=2, then=_ok_response(backend))
    t0 = time.perf_counter()
    logits = client.classify_with_retry(
        cloud, images[:1], max_attempts=3, backoff_seconds=0.02
    )
    elapsed = time.perf_counter() - t0
    assert logits.shape == (1, 10)
    assert cloud.calls == 3
    assert elapsed >= 0.02 + 0.04  # jitter off: exponential 20 ms then 40 ms


def test_retry_full_jitter_desynchronizes_clients(images):
    """Full jitter draws each backoff uniformly from [0, base]: two
    clients seeded differently must not sleep the same schedule (the
    lockstep herd is the failure mode jitter exists to break)."""
    backend = _mock()
    client = Client(backend, SHAPE)

    def sleeps(seed):
        cloud = _FlakyCloud(overloaded_calls=2, then=_ok_response(backend))
        recorded = []
        original = time.sleep
        try:
            time.sleep = recorded.append
            client.classify_with_retry(
                cloud, images[:1], max_attempts=3, backoff_seconds=0.5, seed=seed
            )
        finally:
            time.sleep = original
        return recorded

    a, b = sleeps(seed=1), sleeps(seed=2)
    assert a == sleeps(seed=1)  # seeded: reproducible
    assert a != b  # different seeds: desynchronized
    for delays in (a, b):
        for k, delay in enumerate(delays):
            assert 0.0 <= delay <= 0.5 * 2**k  # full jitter stays under base


def test_retry_gives_up_after_max_attempts_of_overload(images):
    backend = _mock()
    client = Client(backend, SHAPE)
    cloud = _FlakyCloud(overloaded_calls=99, then=_ok_response(backend))
    with pytest.raises(ProtocolError) as info:
        client.classify_with_retry(cloud, images[:1], max_attempts=3)
    assert cloud.calls == 3
    assert info.value.error.category == "overload"


@pytest.mark.parametrize("attempts", [0, -1])
def test_retry_rejects_fewer_than_one_attempt(images, attempts):
    """Zero attempts used to send nothing and still raise ``ProtocolError``
    ("failed after 0 attempt(s): None"), reporting a failure that never
    happened."""
    backend = _mock()
    client = Client(backend, SHAPE)
    cloud = _FlakyCloud(overloaded_calls=0, then=_ok_response(backend))
    with pytest.raises(ValueError, match="max_attempts"):
        client.classify_with_retry(cloud, images[:1], max_attempts=attempts)
    assert cloud.calls == 0


def test_retry_stops_immediately_on_non_retryable(images):
    backend = _mock()
    client = Client(backend, SHAPE)
    fatal = CloudResponse(
        ok=False,
        error=ServiceError(
            "RequestValidationError", "state", False, "request rejected at admission"
        ),
    )
    cloud = _FlakyCloud(overloaded_calls=0, then=fatal)
    with pytest.raises(ProtocolError) as info:
        client.classify_with_retry(cloud, images[:1], max_attempts=5)
    assert cloud.calls == 1, "non-retryable errors must not be retried"
    assert info.value.attempts == 1


def test_retry_against_real_overloaded_gateway(layers, images):
    """Integration: a genuinely backpressured gateway plus a backing-off
    client converge without manual coordination."""
    backend = _mock()
    client = Client(backend, SHAPE)
    gateway = BatchedCloudService(
        backend, layers, SHAPE, max_wait_ms=1.0, max_queue_depth=2
    )
    errors: list[BaseException] = []

    def worker():
        try:
            client.classify_with_retry(
                gateway, images[:1], max_attempts=8, backoff_seconds=0.01
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, f"retrying clients failed: {errors!r}"
    gateway.close()
