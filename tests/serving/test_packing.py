"""Batch evaluation: native mock slot concatenation, member by member elsewhere."""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.ckks import CkksParams
from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksBackend, CkksRnsBackend, HeBackend, MockBackend
from repro.henn.inference import HeInferenceEngine, evaluate_batch
from repro.henn.layers import HeConv2d, HeFlatten, HeLinear, HePoly
from repro.henn.packing import BatchLayout
from repro.henn.protocol import BatchedCloudService, Client, CloudService
from repro.obs.metrics import get_registry

from ..henn.test_encrypt_batch import _same


# -- native concatenation on the mock backend ----------------------------------------


def test_mock_concat_and_slice_roundtrip():
    backend = MockBackend(batch=8, levels=4)
    a = backend.encrypt(np.array([1.0, 2.0]))
    b = backend.encrypt(np.array([3.0]))
    packed = backend.concat_slots([a, b], [2, 1])
    assert np.array_equal(backend.decrypt(packed, count=3), [1.0, 2.0, 3.0])
    assert np.array_equal(backend.decrypt(backend.slice_slots(packed, 0, 2), count=2), [1.0, 2.0])
    assert np.array_equal(backend.decrypt(backend.slice_slots(packed, 2, 1), count=1), [3.0])


def test_mock_concat_is_bit_exact():
    backend = MockBackend(batch=8, levels=4)
    xs = [np.array([0.1, 0.2]), np.array([0.3])]
    handles = [backend.encrypt(x) for x in xs]
    packed = backend.concat_slots(handles, [2, 1])
    # serial evaluation of each member vs sliced evaluation of the pack
    serial = [backend.relinearize_ext(backend.square_raw(backend.rescale(h))) for h in handles]
    batched = backend.relinearize_ext(backend.square_raw(backend.rescale(packed)))
    for i, (s, count) in enumerate(zip(serial, [2, 1])):
        got = backend.decrypt(
            backend.slice_slots(batched, 0 if i == 0 else 2, count), count=count
        )
        assert np.array_equal(got, backend.decrypt(s, count=count))


def test_mock_concat_rejects_mixed_levels_and_scales():
    backend = MockBackend(batch=8, levels=4)
    a = backend.encrypt(np.array([1.0]))
    b = backend.rescale(backend.relinearize_ext(backend.square_raw(backend.encrypt(np.array([2.0])))))
    with pytest.raises(ValueError):
        backend.concat_slots([a, b], [1, 1])


def test_mock_concat_rejects_capacity_overflow():
    backend = MockBackend(batch=2, levels=4)
    handles = [backend.encrypt(np.array([float(i)])) for i in range(3)]
    with pytest.raises(ValueError):
        backend.concat_slots(handles, [1, 1, 1])


def test_mock_slice_bounds_checked():
    backend = MockBackend(batch=4, levels=4)
    packed = backend.encrypt(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        backend.slice_slots(packed, 1, 4)


def test_base_backend_has_no_native_concat():
    assert HeBackend.native_slot_concat is False
    assert MockBackend.native_slot_concat is True
    assert CkksBackend.native_slot_concat is False
    assert CkksRnsBackend.native_slot_concat is False


def test_batch_layout_pad_accounting():
    layout = BatchLayout((3,), 8)
    assert layout.members == 1
    assert layout.total == 3
    assert layout.padded_total == 4  # next power of two
    assert layout.pad_slots == 1
    assert layout.offsets == (0,)
    aligned = BatchLayout((4, 4), 8)
    assert aligned.pad_slots == 0
    assert aligned.offsets == (0, 4)
    with pytest.raises(ValueError):
        BatchLayout((5, 4), 8)  # capacity overflow
    with pytest.raises(ValueError):
        BatchLayout((), 8)
    # the pad-waste counters feed /healthz and obs.render_report; a
    # request counts once however many images (slots) it carries
    reg = get_registry()
    names = ("batches", "requests", "slots", "pad_slots")
    before = [reg.counter(f"serving.pack.{n}").value for n in names]
    layout.record(reg)
    after = [reg.counter(f"serving.pack.{n}").value for n in names]
    assert [a - b for a, b in zip(after, before)] == [1, 1, 3, 1]
    assert np.array_equal(layout.pad_values(np.array([1.0, 2.0, 3.0])), [1, 2, 3, 0])


# -- fired batch vs serial engine on the real schemes: bit-identity per member ---------

SHAPE = (1, 6, 6)


@pytest.fixture(scope="module")
def pk_layers():
    rng = np.random.default_rng(7)
    return [
        HeConv2d(rng.normal(0, 0.4, (2, 1, 3, 3)), np.zeros(2), stride=2),
        HePoly([0.1, 0.5, 0.25]),
        HeFlatten(),
        HeLinear(rng.normal(0, 0.3, (10, 8)), np.zeros(10)),
    ]


@pytest.fixture(scope="module")
def pk_images():
    return np.random.default_rng(8).uniform(0, 1, (8, 1, 6, 6))


def _engine_backend(kind: str):
    if kind == "ckksrns":
        return CkksRnsBackend(
            CkksRnsParams(
                n=128,
                moduli_bits=(36, 26, 26, 26, 26, 26),
                scale_bits=26,
                special_bits=45,
                hw=16,
            ),
            seed=0,
        )
    return CkksBackend(CkksParams(n=128, levels=6, scale_bits=26), seed=0)


@pytest.mark.parametrize("kind", ["ckksrns", "ckks"])
def test_packed_engine_bit_identical_to_serial(kind, pk_layers, pk_images):
    """Acceptance: ``evaluate_batch`` on the raw real-scheme backends, for
    fired batches of B in {1, 3, 8} images with multi-image members
    (2+1, 3+3+2), returns per member the byte-for-byte score ciphertexts
    of a serial ``run_encrypted`` — no slots are shared, so no layout is
    recorded either."""
    engine = HeInferenceEngine(_engine_backend(kind), pk_layers, SHAPE)
    reg = get_registry()
    batches = {1: (1,), 3: (2, 1), 8: (3, 3, 2)}
    for total, counts in batches.items():
        offset, requests = 0, []
        for c in counts:
            requests.append(engine.encrypt_images(pk_images[offset : offset + c]))
            offset += c
        # serial reference on the SAME ciphertexts the batch holds —
        # bit-identity is about evaluation, not encryption randomness
        want = [engine.run_encrypted(enc) for enc in requests]
        packed_before = reg.counter("serving.pack.batches").value
        phases = []
        parts = evaluate_batch(
            engine, requests, counts, lambda phase: phases.append(phase) or nullcontext()
        )
        assert phases == ["evaluate"]
        assert reg.counter("serving.pack.batches").value == packed_before
        assert len(parts) == len(counts)
        for part, w in zip(parts, want):
            assert all(_same(g, h) for g, h in zip(part, w, strict=True)), (
                f"{kind}: batch != serial at B={total}"
            )


@pytest.mark.faults
def test_poisoned_member_rejected_at_admission_on_rns(pk_layers, pk_images):
    """A drifted (poisoned) request on the real RNS scheme is rejected
    at admission and its would-be batchmates still decrypt to the exact
    serial scores — rejection happens before a batch is ever formed."""
    backend = _engine_backend("ckksrns")
    client = Client(backend, SHAPE)
    serial = CloudService(backend, pk_layers, SHAPE)
    gateway = BatchedCloudService(backend, pk_layers, SHAPE, max_wait_ms=50.0)
    good = [client.encrypt_request(pk_images[i : i + 1]) for i in range(2)]
    want = [client.decrypt_response(serial.classify_encrypted(e), batch=1) for e in good]
    drifted = client.encrypt_request(pk_images[2:3]).copy()
    first = (0,) * drifted.ndim  # a pixel cell, or the one packed handle
    drifted[first] = backend.rescale(backend.relinearize_ext(backend.square_raw(drifted[first])))

    futures = [gateway.submit(e, count=1) for e in good]
    poisoned = gateway.try_classify(drifted, count=1)
    assert not poisoned.ok
    assert poisoned.error.code == "RequestValidationError"
    assert not poisoned.error.retryable
    for future, w in zip(futures, want):
        response = future.result(timeout=120)
        assert response.ok, "a rejected request must not fail its batchmates"
        assert np.array_equal(client.decrypt_response(response.scores, batch=1), w)
    gateway.close()


def test_healthz_packing_block_names_the_strategy(pk_layers, pk_images):
    """``packing.strategy`` is read off ``native_slot_concat``; a request
    counts once in ``requests`` however many images it carries."""
    mock = MockBackend(batch=8, levels=6)
    client = Client(mock, SHAPE)
    reg = get_registry()
    before = reg.counter("serving.pack.requests").value, reg.counter("serving.pack.slots").value
    with BatchedCloudService(mock, pk_layers, SHAPE, max_wait_ms=1.0) as gateway:
        assert gateway.try_classify(client.encrypt_request(pk_images[:3]), count=3).ok
        packing = gateway._health()["packing"]
    assert packing["strategy"] == "slots"
    assert set(packing) == {"strategy", "batches", "requests", "slots", "pad_slots"}
    assert reg.counter("serving.pack.requests").value == before[0] + 1
    assert reg.counter("serving.pack.slots").value == before[1] + 3
    with BatchedCloudService(_engine_backend("ckksrns"), pk_layers, SHAPE) as gateway:
        assert gateway._health()["packing"]["strategy"] == "per-request"
