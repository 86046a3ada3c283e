"""One ciphertext type: degree-1-only entry points refuse extended input.

An unrelinearised ciphertext is an ordinary handle for the linear ops
(``add`` / ``add_plain`` / ``mul_plain_scalar`` / ``rescale`` /
``mod_switch_to``), but everything that reads ``(c0, c1)`` only —
decryption, rotation, plaintext-vector products, weighted sums, the
left operand of a product, serialisation, request packing — must raise
:class:`CiphertextDegreeError` instead of dropping ``c2``/``c3``.  On
the parent commit each of these returned a wrong plaintext (or a
truncated frame) with no error.
"""

import numpy as np
import pytest

from repro.ckks import CkksParams
from repro.ckks.ciphertext import CiphertextDegreeError
from repro.ckksrns import CkksRnsParams
from repro.ckksrns.serialize import ciphertext_from_bytes, ciphertext_to_bytes
from repro.henn.backend import CkksBackend, CkksRnsBackend, MockBackend
from repro.henn.protocol import _sanitize

X = np.array([0.5, -0.25, 0.125, 0.75])


def _backend(kind: str):
    if kind == "mock":
        return MockBackend(batch=8, scale_bits=26, levels=4)
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


def test_backend_entry_points_refuse_extended_handles(backend):
    ct, raw2, raw3 = _extended(backend)
    assert [h.degree for h in (ct, raw2, raw3)] == [1, 2, 3]
    for ext in (raw2, raw3):
        refused = [
            lambda: backend.decrypt(ext),
            lambda: backend.rotate(ext, 1),
            lambda: backend.mul_plain_vector(ext, X),
            lambda: backend.mul(ext, ct),
            lambda: backend.square(ext),
            lambda: backend.mul_raw(ext, ct),
            lambda: backend.square_raw(ext),
        ]
        if backend.name != "mock":  # the mock's weighted sum is the generic mul/add chain
            refused += [
                lambda: backend.weighted_sum([ct, ext], np.array([0.5, 0.25])),
                lambda: backend.weighted_sum_encoded(
                    [ext, ct], backend.encode_taps(np.array([0.5, 0.25]))
                ),
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
    assert backend.scale_of(acc) == pytest.approx(backend.scale**2, rel=1e-2)
    assert backend.level_of(acc) == backend.level_of(ct) - 1
    out = backend.rescale(backend.relinearize_ext(acc))
    assert out.degree == 1
    assert backend.relinearize_ext(out) is out  # identity on degree 1
    assert np.allclose(backend.decrypt(out, count=4), 0.75 * X**2 + 0.125, atol=1e-3)


@pytest.mark.parametrize("kind", ["ckks", "rns"])
def test_context_entry_points_refuse_extended_ciphertexts(kind):
    backend = _backend(kind)
    ctx, keys = backend.ctx, backend.keys
    ct, raw2, raw3 = _extended(backend)
    for ext in (raw2, raw3):
        for call in (
            lambda: ctx.decrypt(keys.sk, ext),
            lambda: ctx.rotate(ext, 1, keys.galois),
            lambda: ctx.mul_plain(ext, X),
            lambda: ctx.mul(ext, ct, keys.relin),
            lambda: ctx.square(ext, keys.relin),
            lambda: ctx.mul_raw(ext, ct),
            lambda: ctx.rescale(ext),  # rescale_ext is the extended entry point
            lambda: ctx.sub(ext, ct),
            lambda: ctx.negate(ext),
        ):
            with pytest.raises(CiphertextDegreeError):
                call()
    # mod-switching keeps every component (and the flags)
    low = ctx.mod_switch_to(ctx.rescale_ext(raw3), 0)
    assert (low.degree, low.level, low.deferred) == (3, 0, True)


def test_rns_weighted_sum_and_wire_format_refuse_extended():
    backend = _backend("rns")
    ct, raw2, _ = _extended(backend)
    with pytest.raises(CiphertextDegreeError):
        backend.ctx.weighted_sum([ct, raw2], [0.5, 0.25])
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
