"""Failure injection: corrupted ciphertexts, wrong keys, depth exhaustion.

HE provides confidentiality, not integrity — these tests pin down what
*does* happen when the pipeline is abused, so regressions in error
behaviour are caught.
"""

import numpy as np
import pytest

from repro.ckksrns import CkksRnsContext, CkksRnsParams, RnsCiphertext


@pytest.fixture(scope="module")
def setup():
    ctx = CkksRnsContext(
        CkksRnsParams(n=64, moduli_bits=(36, 26, 26), scale_bits=26, special_bits=45, hw=8)
    )
    keys = ctx.keygen(0, rotations=(1, 2))
    rng = np.random.default_rng(1)
    z = rng.uniform(-1, 1, ctx.slots)
    return ctx, keys, z, ctx.encrypt(keys.pk, z, rng)


def test_corrupted_channel_destroys_plaintext(setup):
    ctx, keys, z, ct = setup
    bad = ct.copy()
    bad.c0[0] = (bad.c0[0] + 12345) % ctx.moduli[0]
    out = ctx.decrypt_real(keys.sk, bad)
    assert np.max(np.abs(out - z)) > 0.5  # corruption is catastrophic, not subtle


def test_truncated_channel_stack_rejected(setup):
    ctx, keys, z, ct = setup
    with pytest.raises(ValueError):
        RnsCiphertext(ct.c0[:1], ct.c1[:1], level=ct.level, scale=ct.scale)


def test_mismatched_component_shapes_rejected(setup):
    ctx, _, _, ct = setup
    with pytest.raises(ValueError):
        RnsCiphertext(ct.c0, ct.c1[:, :32], level=ct.level, scale=ct.scale)


def test_wrong_galois_key_gives_wrong_rotation(setup):
    """Using the key for rotation 2 on a rotation-1 request must be caught
    by the element lookup (keys are indexed by Galois element)."""
    ctx, keys, z, ct = setup
    g1 = ctx.galois_element(1)
    g2 = ctx.galois_element(2)
    swapped = {g1: keys.galois[g2], g2: keys.galois[g1]}
    # engine-level misuse: key material for the wrong element decrypts to noise
    out = ctx.decrypt_real(keys.sk, ctx.rotate(ct, 1, swapped))
    assert not np.allclose(out, np.roll(z, -1), atol=0.05)


def test_depth_exhaustion_raises(setup):
    ctx, keys, _, ct = setup
    c = ct
    for _ in range(ctx.top_level):
        c = ctx.rescale(ctx.mul_plain_scalar(c, 0.9))
    assert c.level == 0
    with pytest.raises(ValueError, match="rescale"):
        ctx.rescale(ctx.mul_plain_scalar(c, 0.9))


def test_scale_overflow_degrades_gracefully(setup):
    """Stacking plain mults without rescaling blows the scale past q and
    the decryption error becomes macroscopic (documented behaviour)."""
    ctx, keys, z, ct = setup
    c = ct
    for _ in range(4):  # scale Δ^5 ~ 2^130 >> q ~ 2^88
        c = ctx.mul_plain_scalar(c, 1.0)
    out = ctx.decrypt_real(keys.sk, c)
    assert np.max(np.abs(out - z)) > 0.1


def test_cross_context_ciphertext_rejected_or_garbage(setup):
    """A ciphertext from different parameters cannot silently decrypt."""
    ctx, keys, z, ct = setup
    other = CkksRnsContext(
        CkksRnsParams(n=64, moduli_bits=(36, 26), scale_bits=26, special_bits=45, hw=8)
    )
    okeys = other.keygen(0)
    try:
        out = other.decrypt_real(okeys.sk, ct)
    except (ValueError, IndexError, KeyError):
        return  # rejection is fine
    assert np.max(np.abs(out - z)) > 0.5  # garbage is fine too; silence is not


@pytest.mark.parametrize("shape", [(1, 8, 8), (2, 6, 6)], ids=["1x8x8", "2x6x6"])
def test_misshaped_request_is_an_error_response_not_scores(shape):
    """The serial Fig. 1 service has no admission check of its own: the
    engine must refuse a handle array of another shape than the model's
    (it used to answer ``ok=True`` with garbage)."""
    from repro.henn.backend import MockBackend
    from repro.henn.layers import HeConv2d, HeFlatten, HeLinear
    from repro.henn.protocol import Client, CloudService
    from repro.obs.metrics import get_registry

    rng = np.random.default_rng(0)
    backend = MockBackend(batch=4, levels=3)
    layers = [
        HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), None),
        HeFlatten(),
        HeLinear(rng.uniform(-0.3, 0.3, (10, 32)), None),
    ]
    service = CloudService(backend, layers, (1, 6, 6))
    request = Client(backend, shape).encrypt_request(rng.uniform(0, 1, (2,) + shape))
    errors = get_registry().counter("henn.requests", {"outcome": "error"})
    before = errors.value
    response = service.try_classify(request)
    assert not response.ok and response.scores is None
    assert (response.error.code, response.error.category) == ("ValueError", "state")
    assert response.error.detail == "ciphertext bookkeeping rejected the request"
    assert errors.value == before + 1
