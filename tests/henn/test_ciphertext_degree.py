"""One ciphertext type: degree-1-only entry points refuse extended input.

An unrelinearised ciphertext is an ordinary handle for the linear ops
(``add`` / ``add_plain`` / ``mul_plain_scalar`` / plaintext-vector
products / ``rescale`` / ``mod_switch_to``, weighted sums and their
batched ``rescale_many`` / ``add_plain_each``, which carry every
component), but everything that reads ``(c0, c1)`` only — decryption,
rotation, the left operand of a product, serialisation, request packing
— must raise :class:`CiphertextDegreeError` instead of dropping
``c2``/``c3``.  Before each fix these returned a wrong plaintext (or a
truncated frame) with no error.
"""

import numpy as np
import pytest

from repro.ckks import CkksParams
from repro.ckks.ciphertext import CiphertextDegreeError
from repro.ckksrns import CkksRnsParams
from repro.ckksrns.serialize import ciphertext_from_bytes, ciphertext_to_bytes
from repro.henn.backend import CkksBackend, CkksRnsBackend, EncodedMap, MockBackend
from repro.henn.protocol import _sanitize
from repro.obs.metrics import get_registry

X = np.array([0.5, -0.25, 0.125, 0.75])


def _backend(kind: str):
    if kind == "mock":
        return MockBackend(batch=8, levels=4)
    if kind == "ckks":
        return CkksBackend(CkksParams(n=128, scale_bits=26, q0_bits=40, levels=4, hw=16), seed=0)
    return CkksRnsBackend(
        CkksRnsParams(n=128, moduli_bits=(36,) + (26,) * 4, scale_bits=26, special_bits=45, hw=16),
        seed=0,
    )


@pytest.fixture(scope="module", params=["mock", "ckks", "rns"])
def backend(request):
    return _backend(request.param)


def _extended(backend):
    """(degree-1, degree-2, degree-3) handles of the same message."""
    ct = backend.encrypt(X)
    raw2 = backend.square_raw(ct)
    return ct, raw2, backend.mul_raw(ct, raw2)


def _weighted_sum(backend, taps, ws):
    """The reference forward's one-row map: *ws* encoded afresh."""
    row = backend.encode_taps(ws)
    return backend.weighted_sum_encoded(taps, EncodedMap([(None, row)], len(taps)))


def test_backend_entry_points_refuse_extended_handles(backend):
    ct, raw2, raw3 = _extended(backend)
    assert [h.degree for h in (ct, raw2, raw3)] == [1, 2, 3]
    for ext in (raw2, raw3):
        refused = [
            lambda: backend.decrypt(ext),
            lambda: backend.rotate(ext, 1),
            lambda: backend.mul_raw(ext, ct),
            lambda: backend.square_raw(ext),
        ]
        for call in refused:
            with pytest.raises(CiphertextDegreeError):
                call()
    assert issubclass(CiphertextDegreeError, ValueError)


def test_linear_ops_carry_every_component(backend):
    """...while the one op family works on any degree and decrypts right."""
    ct, raw2, _ = _extended(backend)
    acc = backend.add(backend.mul_plain_scalar(raw2, 0.5), backend.mul_plain_scalar(raw2, 0.25))
    acc = backend.add_plain(backend.rescale(acc), 0.125)
    assert acc.degree == 2 and acc.deferred
    assert acc.scale == pytest.approx(backend.scale**2, rel=1e-2)
    assert acc.level == ct.level - 1
    out = backend.rescale(backend.relinearize_ext(acc))
    assert out.degree == 1
    assert backend.relinearize_ext(out) is out  # identity on degree 1
    assert np.allclose(backend.decrypt(out, count=4), 0.75 * X**2 + 0.125, atol=1e-3)
    v = np.zeros(backend.max_batch)
    v[:4] = [2.0, -1.0, 0.5, 0.25]
    # every component times the slot vector
    (prod,) = backend.weighted_sum_encoded(
        [raw2], EncodedMap([(None, backend.encode_taps(v[None], level=raw2.level))], 1)
    )
    assert prod.degree == 2
    out = backend.rescale(backend.relinearize_ext(prod))
    assert np.allclose(backend.decrypt(out, count=4), v[:4] * X**2, atol=1e-3)


def test_weighted_sum_weights_every_component(backend):
    """A weighted sum over degree 1, 2 and 3 taps (a lower-degree tap has
    zero high components) relinearises to the weighted plaintexts."""
    ct, raw2, raw3 = _extended(backend)
    taps = [backend.mul_plain_scalar(ct, 1.0), raw2, backend.rescale(raw3)]  # all at ~Δ²
    (acc,) = _weighted_sum(backend, taps, [0.5, 0.25, -0.5])
    assert acc.degree == 3 and acc.deferred
    out = backend.relinearize_ext(backend.rescale(acc))
    want = 0.5 * X + 0.25 * X**2 - 0.5 * X**3
    assert np.allclose(backend.decrypt(out, count=4), want, atol=1e-3)


def test_weighted_sum_refuses_taps_of_different_scales(backend):
    """Taps at Δ and Δ² do not sum: every scheme raises, as ``add`` does."""
    ct = backend.encrypt(X)
    with pytest.raises(ValueError, match="scale mismatch"):
        _weighted_sum(backend, [ct, backend.mul_plain_scalar(ct, 1.0)], [1.0, 1.0])


def _same(a, b, backend):
    if backend.name == "mock":
        assert np.array_equal(a.values, b.values)
    else:
        assert len(a.components()) == len(b.components())
        for x, y in zip(a.components(), b.components()):
            assert np.array_equal(x, y)
    assert (a.degree, a.level, a.scale, a.deferred) == (b.degree, b.level, b.scale, b.deferred)
    assert getattr(a, "coeff_high", False) == getattr(b, "coeff_high", False)


@pytest.mark.parametrize("degree", [2, 3])
def test_batched_linear_ops_keep_every_component(backend, degree):
    """``rescale_many`` / ``add_plain_each`` of extended handles equal the
    per-handle ``rescale`` / ``add_plain``, component for component.  The
    RNS batch used to stack c0/c1 only: a degree-2 handle came back
    degree 1 and decrypted to garbage."""
    ct = backend.encrypt(X)
    raw = backend.square_raw(ct)
    if degree == 3:
        raw = backend.mul_raw(ct, backend.rescale(raw))
        ct = backend.rescale(backend.mul_plain_scalar(ct, 1.0))
    hs = [backend.mul_plain_scalar(raw, w) for w in (0.5, -0.25, 0.75)]
    hs.append(backend.rescale(backend.mul_plain_scalar(backend.square_raw(ct), 0.5), True))
    if degree == 3:  # a coefficient-domain group beside the evaluation-domain one
        hs[-1] = backend.mul_plain_scalar(backend.rescale(raw, defer_high=True), 2.0)
    rescaled = backend.rescale_many(hs)
    for got, h in zip(rescaled, hs):
        _same(got, backend.rescale(h), backend)
        assert got.degree == degree
    values = np.array([0.125, -0.5, 0.25, 1.0])
    for got, h, v in zip(backend.add_plain_each(rescaled, values), rescaled, values):
        _same(got, backend.add_plain(h, float(v)), backend)
    out = backend.relinearize_ext(rescaled[0])
    want = 0.5 * X**2 if degree == 2 else 0.5 * X**3
    assert np.allclose(backend.decrypt(out, count=4), want, atol=1e-3)


@pytest.mark.parametrize("kind", ["ckks", "rns"])
def test_context_entry_points_refuse_extended_ciphertexts(kind):
    backend = _backend(kind)
    ctx, keys = backend.ctx, backend.keys
    ct, raw2, raw3 = _extended(backend)
    for ext in (raw2, raw3):
        for call in (
            lambda: ctx.decrypt(keys.sk, ext),
            lambda: ctx.rotate(ext, 1, keys.galois),
            lambda: ctx.mul_raw(ext, ct),
            lambda: ctx.square_raw(ext),
            lambda: ctx.rescale(ext),  # rescale_ext is the extended entry point
        ):
            with pytest.raises(CiphertextDegreeError):
                call()
    # mod-switching keeps every component (and the flags)
    low = ctx.mod_switch_to(ctx.rescale_ext(raw3), 0)
    assert (low.degree, low.level, low.deferred) == (3, 0, True)


@pytest.mark.parametrize("kind", ["ckks", "rns"])
def test_context_relinearize_refuses_a_degree_one_ciphertext(kind):
    """The context's key switch needs something to switch.  A fresh
    ciphertext used to crash deep inside it (CKKS-RNS: ``TypeError`` on
    ``c2 = None``; CKKS: "expected 128 coefficients") after counting a
    sweep; the backend's ``relinearize_ext`` passes degree 1 through."""
    backend = _backend(kind)
    ct = backend.encrypt(X)
    sweeps = get_registry().counter("relin.count")
    before = sweeps.value
    with pytest.raises(ValueError, match="degree >= 2"):
        backend.ctx.relinearize(ct, backend.keys.relin, backend.keys.relin3)
    assert sweeps.value == before
    assert backend.relinearize_ext(ct) is ct


def test_rns_weighted_sum_and_wire_format_refuse_extended():
    """The weighted sum accepts an extended tap (it weights every
    component); the wire format still refuses one."""
    backend = _backend("rns")
    ct, raw2, _ = _extended(backend)
    (acc,) = _weighted_sum(backend, [backend.mul_plain_scalar(ct, 1.0), raw2], [0.5, 0.25])
    assert acc.degree == 2 and np.array_equal(acc.c2, backend.ctx.mul_plain_scalar(raw2, 0.25).c2)
    got = backend.decrypt(backend.relinearize_ext(acc), count=4)
    assert np.allclose(got, 0.5 * X + 0.25 * X**2, atol=1e-3)
    with pytest.raises(CiphertextDegreeError):
        ciphertext_to_bytes(raw2)  # was: a frame holding c0/c1 only
    # the degree-1 envelope is validated exactly as before
    blob = ciphertext_to_bytes(ct)
    back = ciphertext_from_bytes(blob)
    assert np.array_equal(back.c0, ct.c0) and np.array_equal(back.c1, ct.c1)
    assert (back.degree, back.level, back.scale) == (1, ct.level, ct.scale)
    with pytest.raises(ValueError, match="truncated"):
        ciphertext_from_bytes(blob[:-8])
    with pytest.raises(ValueError, match="not a serialised"):
        ciphertext_from_bytes(b"XXXX" + blob[4:])


def test_mock_packing_refuses_extended_handles():
    backend = _backend("mock")
    ct, raw2, _ = _extended(backend)
    with pytest.raises(CiphertextDegreeError):
        backend.concat_slots([ct, raw2], [4, 4])
    with pytest.raises(CiphertextDegreeError):
        backend.slice_slots(raw2, 0, 2)


def test_degree_error_is_a_non_retryable_state_error():
    with pytest.raises(CiphertextDegreeError) as err:
        _backend("mock").decrypt(_extended(_backend("mock"))[1])
    error = _sanitize(err.value)
    assert (error.code, error.category, error.retryable) == (
        "CiphertextDegreeError", "state", False,
    )
    assert "degree 2" not in error.detail  # canned sentence, no exception arguments
