"""Full-RNS CKKS: primitives, depth chains, agreement with plaintext math."""

import numpy as np
import pytest

from repro.ckksrns import CkksRnsContext, CkksRnsParams


def _enc(ctx, keys, z, rng):
    return ctx.encrypt(keys.pk, z, rng)


def test_context_moduli(rns_ctx):
    p = rns_ctx.params
    assert len(rns_ctx.moduli) == p.chain_length
    assert len(set(rns_ctx.ext_moduli)) == p.chain_length + 1
    for m, bits in zip(rns_ctx.moduli, p.moduli_bits):
        assert m.bit_length() == bits
        assert m % (2 * p.n) == 1


def test_encrypt_decrypt(rns_ctx, rns_keys, rng):
    z = rng.uniform(-1, 1, rns_ctx.slots)
    ct = _enc(rns_ctx, rns_keys, z, rng)
    assert ct.level == rns_ctx.top_level
    assert ct.c0.shape == (rns_ctx.k_top, rns_ctx.n)
    assert np.max(np.abs(rns_ctx.decrypt_real(rns_keys.sk, ct) - z)) < 1e-3


def test_add(rns_ctx, rns_keys, rng):
    z1 = rng.uniform(-1, 1, rns_ctx.slots)
    z2 = rng.uniform(-1, 1, rns_ctx.slots)
    c1, c2 = _enc(rns_ctx, rns_keys, z1, rng), _enc(rns_ctx, rns_keys, z2, rng)
    sk = rns_keys.sk
    assert np.allclose(rns_ctx.decrypt_real(sk, rns_ctx.add(c1, c2)), z1 + z2, atol=1e-3)


def test_mul_relin_rescale(rns_ctx, rns_keys, rng):
    z1 = rng.uniform(-1, 1, rns_ctx.slots)
    z2 = rng.uniform(-1, 1, rns_ctx.slots)
    c1, c2 = _enc(rns_ctx, rns_keys, z1, rng), _enc(rns_ctx, rns_keys, z2, rng)
    cm = rns_ctx.rescale(rns_ctx.relinearize(rns_ctx.mul_raw(c1, c2), rns_keys.relin))
    assert cm.level == c1.level - 1
    assert cm.k == c1.k - 1
    assert np.allclose(rns_ctx.decrypt_real(rns_keys.sk, cm), z1 * z2, atol=2e-3)


def test_rescale_divides_by_dropped_prime(rns_ctx, rns_keys, rng):
    z = rng.uniform(-1, 1, rns_ctx.slots)
    c = _enc(rns_ctx, rns_keys, z, rng)
    cm = rns_ctx.relinearize(rns_ctx.mul_raw(c, c), rns_keys.relin)
    dropped = rns_ctx.moduli[cm.k - 1]
    r = rns_ctx.rescale(cm)
    assert np.isclose(r.scale, cm.scale / dropped)


def test_square(rns_ctx, rns_keys, rng):
    z = rng.uniform(-1, 1, rns_ctx.slots)
    c = _enc(rns_ctx, rns_keys, z, rng)
    cs = rns_ctx.rescale(rns_ctx.relinearize(rns_ctx.square_raw(c), rns_keys.relin))
    assert np.allclose(rns_ctx.decrypt_real(rns_keys.sk, cs), z * z, atol=2e-3)


def test_plain_ops(rns_ctx, rns_keys, rng):
    z = rng.uniform(-1, 1, rns_ctx.slots)
    w = rng.uniform(-1, 1, rns_ctx.slots)
    c = _enc(rns_ctx, rns_keys, z, rng)
    sk = rns_keys.sk
    assert np.allclose(rns_ctx.decrypt_real(sk, rns_ctx.add_plain(c, w)), z + w, atol=1e-3)
    assert np.allclose(rns_ctx.decrypt_real(sk, rns_ctx.add_plain(c, 0.25)), z + 0.25, atol=1e-3)
    cp = rns_ctx.rescale(rns_ctx.mul_plain(c, w))
    assert np.allclose(rns_ctx.decrypt_real(sk, cp), z * w, atol=2e-3)
    cs = rns_ctx.rescale(rns_ctx.mul_plain_scalar(c, -1.5))
    assert np.allclose(rns_ctx.decrypt_real(sk, cs), -1.5 * z, atol=2e-3)


def test_plaintext_reuse(rns_ctx, rns_keys, rng):
    """An encoded RnsPlaintext multiplies many ciphertexts."""
    z1 = rng.uniform(-1, 1, rns_ctx.slots)
    z2 = rng.uniform(-1, 1, rns_ctx.slots)
    w = rng.uniform(-1, 1, rns_ctx.slots)
    pt = rns_ctx.encode(w)
    for z in (z1, z2):
        c = _enc(rns_ctx, rns_keys, z, rng)
        out = rns_ctx.decrypt_real(rns_keys.sk, rns_ctx.rescale(rns_ctx.mul_plain(c, pt)))
        assert np.allclose(out, z * w, atol=2e-3)


def test_rotation(rns_ctx, rns_keys, rng):
    z = rng.uniform(-1, 1, rns_ctx.slots)
    c = _enc(rns_ctx, rns_keys, z, rng)
    for r in (1, 2, 5):
        out = rns_ctx.decrypt_real(rns_keys.sk, rns_ctx.rotate(c, r, rns_keys.galois))
        assert np.allclose(out, np.roll(z, -r), atol=2e-3), f"rotation {r}"


def test_rotation_missing_key(rns_ctx, rns_keys, rng):
    c = _enc(rns_ctx, rns_keys, np.zeros(rns_ctx.slots), rng)
    with pytest.raises(KeyError):
        rns_ctx.rotate(c, 7, rns_keys.galois)


def test_depth_chain_to_bottom(rns_ctx, rns_keys, rng):
    z = rng.uniform(-0.9, 0.9, rns_ctx.slots)
    c = _enc(rns_ctx, rns_keys, z, rng)
    want = z.copy()
    for _ in range(rns_ctx.top_level):
        c = rns_ctx.rescale(rns_ctx.relinearize(rns_ctx.square_raw(c), rns_keys.relin))
        want = want * want
    assert c.level == 0
    assert np.max(np.abs(rns_ctx.decrypt_real(rns_keys.sk, c) - want)) < 1e-2


def test_mod_switch_drops_channels(rns_ctx, rns_keys, rng):
    z = rng.uniform(-1, 1, rns_ctx.slots)
    c = _enc(rns_ctx, rns_keys, z, rng)
    low = rns_ctx.mod_switch_to(c, 1)
    assert low.k == 2
    assert np.allclose(rns_ctx.decrypt_real(rns_keys.sk, low), z, atol=1e-3)
    with pytest.raises(ValueError):
        rns_ctx.mod_switch_to(low, 3)


def test_add_aligns_levels(rns_ctx, rns_keys, rng):
    z = rng.uniform(-1, 1, rns_ctx.slots)
    c = _enc(rns_ctx, rns_keys, z, rng)
    low = rns_ctx.mod_switch_to(c, 1)
    out = rns_ctx.decrypt_real(rns_keys.sk, rns_ctx.add(c, low))
    assert np.allclose(out, 2 * z, atol=1e-3)


def test_scale_mismatch_rejected(rns_ctx, rns_keys, rng):
    z = rng.uniform(-1, 1, rns_ctx.slots)
    c = _enc(rns_ctx, rns_keys, z, rng)
    cp = rns_ctx.mul_plain_scalar(c, 0.3)
    with pytest.raises(ValueError, match="scale"):
        rns_ctx.add(c, cp)


def test_wrong_key_fails(rns_ctx, rns_keys, rng):
    z = np.full(rns_ctx.slots, 0.5)
    c = _enc(rns_ctx, rns_keys, z, rng)
    other = rns_ctx.keygen(4242)
    garbage = rns_ctx.decrypt_real(other.sk, c)
    assert np.max(np.abs(garbage - z)) > 1.0


def test_deterministic_keygen(rns_ctx):
    k1 = rns_ctx.keygen(11)
    k2 = rns_ctx.keygen(11)
    assert np.array_equal(k1.sk.s_coeff, k2.sk.s_coeff)
    assert np.array_equal(k1.pk.a, k2.pk.a)
