"""Multiprecision CKKS: every primitive of §II, end to end."""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParams


def _enc(ctx, keys, z, rng):
    return ctx.encrypt(keys.pk, z, rng)


def test_params_validation():
    with pytest.raises(ValueError):
        CkksParams(n=100)
    with pytest.raises(ValueError):
        CkksParams(levels=0)
    with pytest.raises(ValueError):
        CkksParams(q0_bits=10, scale_bits=26)


def test_encrypt_decrypt(ckks_ctx, ckks_keys, rng):
    z = rng.uniform(-1, 1, ckks_ctx.slots)
    ct = _enc(ckks_ctx, ckks_keys, z, rng)
    assert ct.level == ckks_ctx.top_level
    out = ckks_ctx.decrypt_real(ckks_keys.sk, ct)
    assert np.max(np.abs(out - z)) < 1e-3


def test_decrypt_complex(ckks_ctx, ckks_keys, rng):
    z = rng.uniform(-1, 1, ckks_ctx.slots) + 1j * rng.uniform(-1, 1, ckks_ctx.slots)
    ct = ckks_ctx.encrypt(ckks_keys.pk, z, rng)
    out = ckks_ctx.decrypt(ckks_keys.sk, ct)
    assert np.max(np.abs(out - z)) < 1e-3


def test_homomorphic_add(ckks_ctx, ckks_keys, rng):
    z1 = rng.uniform(-1, 1, ckks_ctx.slots)
    z2 = rng.uniform(-1, 1, ckks_ctx.slots)
    c1, c2 = _enc(ckks_ctx, ckks_keys, z1, rng), _enc(ckks_ctx, ckks_keys, z2, rng)
    assert np.allclose(ckks_ctx.decrypt_real(ckks_keys.sk, ckks_ctx.add(c1, c2)), z1 + z2, atol=1e-3)


def test_mul_and_rescale(ckks_ctx, ckks_keys, rng):
    z1 = rng.uniform(-1, 1, ckks_ctx.slots)
    z2 = rng.uniform(-1, 1, ckks_ctx.slots)
    c1, c2 = _enc(ckks_ctx, ckks_keys, z1, rng), _enc(ckks_ctx, ckks_keys, z2, rng)
    cm = ckks_ctx.relinearize(ckks_ctx.mul_raw(c1, c2), ckks_keys.relin)
    assert np.isclose(cm.scale, c1.scale * c2.scale)
    cm = ckks_ctx.rescale(cm)
    assert cm.level == c1.level - 1
    assert np.allclose(ckks_ctx.decrypt_real(ckks_keys.sk, cm), z1 * z2, atol=1e-3)


def test_products_transform_each_operand_once(ckks_ctx, ckks_keys, rng, monkeypatch):
    """``mul_raw`` forward-transforms its four distinct components once
    each — 4 polynomials, not one per factor of its 4 products (8);
    ``square_raw`` 2, a degree-1 x degree-2 product 5 (not 12)."""
    c1, c2 = (_enc(ckks_ctx, ckks_keys, rng.uniform(-1, 1, ckks_ctx.slots), rng) for _ in range(2))
    ring = ckks_ctx.ring(c1.level)
    ntt, polys = ring._ntt, []

    class CountingPlan:
        def forward(self, x):
            polys.append(x[0].size // ring.n)  # (channels, operands, n) stack
            return ntt.forward(x)

        def inverse(self, x):
            return ntt.inverse(x)

    monkeypatch.setattr(ring, "_ntt", CountingPlan())
    raw = ckks_ctx.mul_raw(c1, c2)
    assert polys == [4]
    polys.clear()
    ckks_ctx.square_raw(c1)
    assert polys == [2]
    polys.clear()
    ckks_ctx.mul_raw(c2, raw)
    assert polys == [5]
    monkeypatch.undo()
    # one product per pair, each on copies (nothing shared) equals the batched one
    fresh = [ring.mul(x.copy(), y.copy()) for x, y in [(c1.c0, c2.c0), (c1.c1, c2.c1)]]
    assert [list(v) for v in fresh] == [list(raw.c0), list(raw.c2)]


def test_square_matches_mul(ckks_ctx, ckks_keys, rng):
    z = rng.uniform(-1, 1, ckks_ctx.slots)
    c = _enc(ckks_ctx, ckks_keys, z, rng)
    ctx, relin = ckks_ctx, ckks_keys.relin
    via_sq = ctx.decrypt_real(ckks_keys.sk, ctx.rescale(ctx.relinearize(ctx.square_raw(c), relin)))
    via_mul = ctx.decrypt_real(ckks_keys.sk, ctx.rescale(ctx.relinearize(ctx.mul_raw(c, c), relin)))
    assert np.allclose(via_sq, via_mul, atol=1e-3)
    assert np.allclose(via_sq, z * z, atol=1e-3)


def test_plain_ops(ckks_ctx, ckks_keys, rng):
    z = rng.uniform(-1, 1, ckks_ctx.slots)
    w = rng.uniform(-1, 1, ckks_ctx.slots)
    c = _enc(ckks_ctx, ckks_keys, z, rng)
    assert np.allclose(
        ckks_ctx.decrypt_real(ckks_keys.sk, ckks_ctx.add_plain(c, w)), z + w, atol=1e-3
    )
    cp = ckks_ctx.rescale(ckks_ctx.mul_plain(c, w))
    assert np.allclose(ckks_ctx.decrypt_real(ckks_keys.sk, cp), z * w, atol=1e-3)
    cs = ckks_ctx.rescale(ckks_ctx.mul_plain_scalar(c, -0.73))
    assert np.allclose(ckks_ctx.decrypt_real(ckks_keys.sk, cs), -0.73 * z, atol=1e-3)


def test_scalar_add(ckks_ctx, ckks_keys, rng):
    z = rng.uniform(-1, 1, ckks_ctx.slots)
    c = _enc(ckks_ctx, ckks_keys, z, rng)
    out = ckks_ctx.decrypt_real(ckks_keys.sk, ckks_ctx.add_plain(c, 0.5))
    assert np.allclose(out, z + 0.5, atol=1e-3)


def test_rotation(ckks_ctx, ckks_keys, rng):
    z = rng.uniform(-1, 1, ckks_ctx.slots)
    c = _enc(ckks_ctx, ckks_keys, z, rng)
    for r in (1, 2, 5):
        out = ckks_ctx.decrypt_real(ckks_keys.sk, ckks_ctx.rotate(c, r, ckks_keys.galois))
        assert np.allclose(out, np.roll(z, -r), atol=1e-3), f"rotation {r}"


def test_rotation_zero_is_identity(ckks_ctx, ckks_keys, rng):
    z = rng.uniform(-1, 1, ckks_ctx.slots)
    c = _enc(ckks_ctx, ckks_keys, z, rng)
    out = ckks_ctx.decrypt_real(ckks_keys.sk, ckks_ctx.rotate(c, 0, ckks_keys.galois))
    assert np.allclose(out, z, atol=1e-3)


def test_rotation_missing_key(ckks_ctx, ckks_keys, rng):
    c = _enc(ckks_ctx, ckks_keys, np.zeros(ckks_ctx.slots), rng)
    with pytest.raises(KeyError):
        ckks_ctx.rotate(c, 3, ckks_keys.galois)


def test_depth_chain(ckks_ctx, ckks_keys, rng):
    z = rng.uniform(-1, 1, ckks_ctx.slots)
    c = _enc(ckks_ctx, ckks_keys, z, rng)
    want = z.copy()
    for _ in range(3):
        c = ckks_ctx.rescale(ckks_ctx.relinearize(ckks_ctx.square_raw(c), ckks_keys.relin))
        want = want * want
    assert np.max(np.abs(ckks_ctx.decrypt_real(ckks_keys.sk, c) - want)) < 5e-3


def test_level_alignment_in_add(ckks_ctx, ckks_keys, rng):
    z = rng.uniform(-1, 1, ckks_ctx.slots)
    c = _enc(ckks_ctx, ckks_keys, z, rng)
    low = ckks_ctx.mod_switch_to(c, c.level - 2)
    out = ckks_ctx.decrypt_real(ckks_keys.sk, ckks_ctx.add(c, low))
    assert np.allclose(out, 2 * z, atol=1e-3)


def test_scale_mismatch_rejected(ckks_ctx, ckks_keys, rng):
    z = rng.uniform(-1, 1, ckks_ctx.slots)
    c = _enc(ckks_ctx, ckks_keys, z, rng)
    cp = ckks_ctx.mul_plain_scalar(c, 0.5)
    with pytest.raises(ValueError, match="scale"):
        ckks_ctx.add(c, cp)


def test_rescale_below_zero_rejected(ckks_ctx, ckks_keys, rng):
    c = _enc(ckks_ctx, ckks_keys, np.zeros(ckks_ctx.slots), rng)
    c = ckks_ctx.mod_switch_to(c, 0)
    with pytest.raises(ValueError):
        ckks_ctx.rescale(c)


def test_mod_switch_up_rejected(ckks_ctx, ckks_keys, rng):
    c = _enc(ckks_ctx, ckks_keys, np.zeros(ckks_ctx.slots), rng)
    low = ckks_ctx.mod_switch_to(c, 1)
    with pytest.raises(ValueError):
        ckks_ctx.mod_switch_to(low, 2)


def test_fresh_ciphertext_indistinguishable_without_key(ckks_ctx, ckks_keys, rng):
    """Different messages yield completely different-looking ciphertexts and
    decryption with the wrong key fails to recover the plaintext."""
    z = np.ones(ckks_ctx.slots) * 0.5
    c1 = _enc(ckks_ctx, ckks_keys, z, rng)
    other = ckks_ctx.keygen(999)
    wrong = ckks_ctx.decrypt_real(other.sk, c1)
    assert np.max(np.abs(wrong - z)) > 1.0  # noise-like garbage
