"""Slot packing: native mock concatenation and lane-stacked SIMD packing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks import CkksParams
from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksBackend, CkksRnsBackend, HeBackend, MockBackend
from repro.henn.inference import HeInferenceEngine
from repro.henn.layers import HeConv2d, HeFlatten, HeLinear, HePoly
from repro.henn.packing import BatchLayout
from repro.henn.protocol import BatchedCloudService, Client, CloudService
from repro.obs.metrics import get_registry
from repro.serving import (
    LaneHandle,
    LaneSliceError,
    PackingError,
    PackingNestingError,
    ServingError,
    SlotPackedBackend,
    serving_backend_for,
)


def _rns_backend():
    return CkksRnsBackend(
        CkksRnsParams(
            n=128, moduli_bits=(36, 26, 26, 26, 26), scale_bits=26, special_bits=45, hw=16
        ),
        seed=0,
    )


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
    serial = [backend.square(backend.rescale(h)) for h in handles]
    batched = backend.square(backend.rescale(packed))
    for i, (s, count) in enumerate(zip(serial, [2, 1])):
        got = backend.decrypt(
            backend.slice_slots(batched, 0 if i == 0 else 2, count), count=count
        )
        assert np.array_equal(got, backend.decrypt(s, count=count))


def test_mock_concat_rejects_mixed_levels_and_scales():
    backend = MockBackend(batch=8, levels=4)
    a = backend.encrypt(np.array([1.0]))
    b = backend.rescale(backend.square(backend.encrypt(np.array([2.0]))))
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


# -- strategy selection --------------------------------------------------------------


def test_serving_backend_for_picks_strategy():
    mock = MockBackend(batch=4, levels=3)
    assert serving_backend_for(mock) is mock
    rns = _rns_backend()
    wrapped = serving_backend_for(rns)
    # the real schemes get lane packing
    assert isinstance(wrapped, SlotPackedBackend)
    assert wrapped.inner is rns
    assert isinstance(serving_backend_for(_ckks_backend()), SlotPackedBackend)
    # packed backends are terminal: re-wrapping is a typed serving error
    with pytest.raises(PackingNestingError):
        serving_backend_for(wrapped)
    with pytest.raises(PackingNestingError):
        SlotPackedBackend(wrapped)
    # the old TypeError contract survives through dual inheritance
    assert issubclass(PackingNestingError, TypeError)
    # no lane adapter for value-vector handles: mock is already native
    with pytest.raises(PackingError):
        SlotPackedBackend(MockBackend(batch=4, levels=3))
    # a backend with neither exact concatenation nor a lane adapter has no
    # packing at all: refused, not quietly served request by request
    inexact = MockBackend(batch=4, levels=3)
    inexact.native_slot_concat = False
    with pytest.raises(PackingError):
        serving_backend_for(inexact)


def test_batch_layout_pad_accounting():
    layout = BatchLayout((3,), 8)
    assert layout.lanes == 1
    assert layout.total == 3
    assert layout.padded_total == 4  # next power of two
    assert layout.pad_slots == 1
    assert layout.offsets == (0,)
    aligned = BatchLayout((4, 4), 8)
    assert aligned.pad_slots == 0
    assert np.array_equal(aligned.lane_mask(1), [False] * 4 + [True] * 4)
    assert aligned.lane_for_range(4, 4) == 1
    with pytest.raises(ValueError):
        BatchLayout((5, 4), 8)  # capacity overflow
    with pytest.raises(ValueError):
        BatchLayout((), 8)
    with pytest.raises(IndexError):
        layout.lane_slice(1)
    # the pad-waste counters feed /healthz and obs.render_report
    reg = get_registry()
    before = reg.counter("serving.pack.pad_slots").value
    layout.record(reg)
    assert reg.counter("serving.pack.pad_slots").value == before + 1
    assert np.array_equal(layout.pad_values(np.array([1.0, 2.0, 3.0])), [1, 2, 3, 0])


# -- lane-stacked SIMD packing (SlotPackedBackend) ------------------------------------


def test_slotpacked_rns_ops_bit_identical_to_serial():
    inner = _rns_backend()
    backend = SlotPackedBackend(inner)
    xs = [np.array([0.5, -0.25]), np.array([0.125])]
    handles = [inner.encrypt(x) for x in xs]
    packed = backend.concat_slots(handles, [2, 1])
    assert isinstance(packed, LaneHandle)
    # one stacked ciphertext, (k, lanes, n) residue components
    assert packed.ct.c0.ndim == 3 and packed.ct.c0.shape[1] == 2

    # identical instruction streams: square -> rescale -> scalar mul
    def program(b, h):
        return b.mul_plain_scalar(b.rescale(b.square(h)), 0.5)

    serial = [program(inner, h) for h in handles]
    batched = program(backend, packed)
    got = backend.decrypt(batched, count=3)
    want = np.concatenate([inner.decrypt(s, count=c) for s, c in zip(serial, [2, 1])])
    assert np.array_equal(got, want)


def test_slotpacked_ckks_ops_bit_identical_to_serial():
    inner = _ckks_backend()
    backend = SlotPackedBackend(inner)
    handles = [inner.encrypt(np.array([0.3])), inner.encrypt(np.array([-0.7]))]
    packed = backend.concat_slots(handles, [1, 1])
    serial = [inner.add_plain(inner.rescale(inner.square(h)), 0.25) for h in handles]
    batched = backend.add_plain(backend.rescale(backend.square(packed)), 0.25)
    assert np.array_equal(
        backend.decrypt(batched, count=2),
        np.concatenate([inner.decrypt(s, count=1) for s in serial]),
    )


def test_slotpacked_weighted_sum_matches_serial():
    inner = _rns_backend()
    backend = SlotPackedBackend(inner)
    weights = np.array([0.25, -0.5, 1.0])
    members = [[inner.encrypt(np.array([float(i + j)])) for j in range(3)] for i in range(2)]
    packs = [
        backend.concat_slots([members[0][j], members[1][j]], [1, 1]) for j in range(3)
    ]
    serial = [inner.weighted_sum(members[i], weights) for i in range(2)]
    batched = backend.weighted_sum(packs, weights)
    assert np.array_equal(
        backend.decrypt(batched, count=2),
        np.concatenate([inner.decrypt(s, count=1) for s in serial]),
    )


def _ckks_backend():
    return CkksBackend(CkksParams(n=128, levels=5, scale_bits=24), seed=0)


def test_slotpacked_ckks_weighted_sum_matches_serial():
    inner = _ckks_backend()
    backend = SlotPackedBackend(inner)
    weights = np.array([0.25, -0.5, 1.0])
    members = [[inner.encrypt(np.array([float(i + j)])) for j in range(3)] for i in range(2)]
    packs = [
        backend.concat_slots([members[0][j], members[1][j]], [1, 1]) for j in range(3)
    ]
    serial = [inner.weighted_sum(members[i], weights) for i in range(2)]
    batched = backend.weighted_sum(packs, weights)
    assert np.array_equal(
        backend.decrypt(batched, count=2),
        np.concatenate([inner.decrypt(s, count=1) for s in serial]),
    )


def test_slotpacked_ckks_slice_only_at_member_boundaries():
    inner = _ckks_backend()
    backend = SlotPackedBackend(inner)
    packed = backend.concat_slots(
        [inner.encrypt(np.array([1.0, 2.0])), inner.encrypt(np.array([3.0]))], [2, 1]
    )
    member = backend.slice_slots(packed, 2, 1)
    assert np.allclose(inner.decrypt(member, count=1), [3.0], atol=1e-3)
    with pytest.raises(ValueError):
        backend.slice_slots(packed, 1, 2)


def test_slotpacked_ckks_guards():
    inner = _ckks_backend()
    backend = SlotPackedBackend(inner)
    raw = inner.encrypt(np.array([1.0]))
    with pytest.raises(TypeError):
        backend.square(raw)
    packed = backend.concat_slots([raw], [1])
    with pytest.raises(NotImplementedError):
        backend.rotate(packed, 1)
    with pytest.raises(NotImplementedError):
        backend.mul_plain_vector(packed, np.array([2.0]))  # a slot vector spans lanes
    # attribute fallthrough keeps introspection working
    assert backend.ctx is inner.ctx
    assert backend.name.startswith("slotpack+")


def test_slotpacked_slice_is_typed_serving_error():
    inner = _rns_backend()
    backend = SlotPackedBackend(inner)
    packed = backend.concat_slots(
        [inner.encrypt(np.array([1.0, 2.0])), inner.encrypt(np.array([3.0]))], [2, 1]
    )
    # a round trip at a member boundary works
    member = backend.slice_slots(packed, 2, 1)
    assert np.array_equal(inner.decrypt(member, count=1), inner.decrypt(
        backend.slice_slots(packed, 2, 1), count=1
    ))
    # off-boundary and out-of-range slices raise the typed serving error,
    # which is also a ValueError for legacy callers
    with pytest.raises(LaneSliceError):
        backend.slice_slots(packed, 1, 2)
    with pytest.raises(LaneSliceError):
        backend.slice_slots(packed, 7, 1)
    assert issubclass(LaneSliceError, ValueError)
    assert issubclass(LaneSliceError, ServingError)


def test_slotpacked_guards():
    inner = _rns_backend()
    backend = SlotPackedBackend(inner)
    raw = inner.encrypt(np.array([1.0]))
    with pytest.raises(TypeError):
        backend.square(raw)  # raw handles must be packed first
    drifted = inner.rescale(inner.square(inner.encrypt(np.array([2.0]))))
    with pytest.raises(PackingError):
        backend.concat_slots([raw, drifted], [1, 1])  # level drift
    packed = backend.concat_slots([raw], [1])
    with pytest.raises(NotImplementedError):
        backend.rotate(packed, 1)
    other = backend.concat_slots([inner.encrypt(np.array([1.0, 2.0]))], [2])
    with pytest.raises(PackingError):
        backend.add(packed, other)  # mismatched lane layouts
    # attribute fallthrough keeps introspection working
    assert backend.ctx is inner.ctx
    assert backend.name.startswith("slotpack+")


#: Public ``HeBackend`` names ``SlotPackedBackend`` leaves to the base
#: class, each for a stated reason.  Anything else must be overridden.
DERIVED_FROM_WRAPPED_PRIMITIVES = {
    # composites that call this wrapper's own (lane-stacked) primitives
    "poly_eval",
    "poly_eval_bsgs",
    # the base class's refusal is the packing decision (see the CKKS guards test)
    "mul_plain_vector",
}


def _public_names(cls) -> set[str]:
    return {
        name
        for name, member in vars(cls).items()
        if not name.startswith("_") and (callable(member) or isinstance(member, property))
    }


def test_wrapper_makes_a_packing_decision_for_every_backend_method():
    """A method added to ``HeBackend`` must be overridden by the wrapper or
    listed above; otherwise its base-class body would run on ``LaneHandle``s
    (what ``encrypt_many`` did until it was forwarded by hand)."""
    interface = _public_names(HeBackend)
    assert len(interface) == 29, sorted(interface)
    overridden = _public_names(SlotPackedBackend)
    assert overridden & DERIVED_FROM_WRAPPED_PRIMITIVES == set()
    assert DERIVED_FROM_WRAPPED_PRIMITIVES <= interface
    undecided = interface - overridden - DERIVED_FROM_WRAPPED_PRIMITIVES
    assert undecided == set(), f"no packing decision for {sorted(undecided)}"
    # the wrapper adds nothing of its own to the interface
    assert all(hasattr(HeBackend, name) for name in overridden)
    # ...and the other implementations do not quietly lack a primitive
    for cls in (MockBackend, CkksBackend, CkksRnsBackend):
        assert not getattr(cls, "__abstractmethods__", None), cls


# -- packed engine vs serial engine: bit-identity per image ---------------------------

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
    """Acceptance: lane-packed batches of B in {1, 3, 8} images (the
    3-image batch is ragged: 3 slots pad to 4) decrypt per image to the
    byte-for-byte serial scores on both real schemes."""
    backend = _engine_backend(kind)
    serial = HeInferenceEngine(backend, pk_layers, SHAPE)
    packed = HeInferenceEngine(serving_backend_for(backend), pk_layers, SHAPE)
    batches = {1: (1,), 3: (2, 1), 8: (3, 3, 2)}
    for total, counts in batches.items():
        offset, requests, want = 0, [], []
        for c in counts:
            chunk = pk_images[offset : offset + c]
            enc = serial.encrypt_images(chunk)
            requests.append(enc)
            # serial reference on the SAME ciphertexts the batch packs —
            # bit-identity is about evaluation, not encryption randomness
            out = serial.run_encrypted(enc)
            want.append(np.stack([backend.decrypt(h, count=c) for h in out], axis=1))
            offset += c
        batch = packed.assemble_batch(requests, counts)
        scores = packed.run_encrypted(batch)
        parts = packed.split_scores(scores, counts)
        for part, w, c in zip(parts, want, counts):
            got = np.stack([backend.decrypt(h, count=c) for h in part], axis=1)
            assert np.array_equal(got, w), f"{kind}: packed != serial at B={total}"


@pytest.mark.faults
def test_poisoned_member_rejected_before_lane_packing(pk_layers, pk_images):
    """A drifted (poisoned) request on the real RNS scheme is rejected
    at admission and its would-be lane-mates still decrypt to the exact
    serial scores — rejection happens before lanes are ever stacked."""
    backend = _engine_backend("ckksrns")
    client = Client(backend, SHAPE)
    serial = CloudService(backend, pk_layers, SHAPE)
    gateway = BatchedCloudService(backend, pk_layers, SHAPE, max_wait_ms=50.0)
    good = [client.encrypt_request(pk_images[i : i + 1]) for i in range(2)]
    want = [client.decrypt_response(serial.classify_encrypted(e), batch=1) for e in good]
    drifted = client.encrypt_request(pk_images[2:3]).copy()
    drifted[0, 0, 0] = backend.rescale(backend.square(drifted[0, 0, 0]))

    futures = [gateway.submit(e, count=1) for e in good]
    poisoned = gateway.try_classify(drifted, count=1)
    assert not poisoned.ok
    assert poisoned.error.code == "RequestValidationError"
    assert not poisoned.error.retryable
    for future, w in zip(futures, want):
        response = future.result(timeout=120)
        assert response.ok, "a rejected request must not fail its lane-mates"
        assert np.array_equal(client.decrypt_response(response.scores, batch=1), w)
    gateway.close()
