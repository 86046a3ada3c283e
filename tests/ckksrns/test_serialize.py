"""Ciphertext wire format: roundtrip and tamper detection."""

import numpy as np
import pytest

from repro.ckksrns.serialize import ciphertext_from_bytes, ciphertext_to_bytes


def test_roundtrip(rns_ctx, rns_keys, rng):
    z = rng.uniform(-1, 1, rns_ctx.slots)
    ct = rns_ctx.encrypt(rns_keys.pk, z, rng)
    blob = ciphertext_to_bytes(ct)
    back = ciphertext_from_bytes(blob)
    assert back.level == ct.level
    assert back.scale == ct.scale
    assert np.array_equal(back.c0, ct.c0)
    assert np.array_equal(back.c1, ct.c1)
    out = rns_ctx.decrypt_real(rns_keys.sk, back)
    assert np.allclose(out, z, atol=1e-3)


def test_roundtrip_after_ops(rns_ctx, rns_keys, rng):
    z = rng.uniform(-1, 1, rns_ctx.slots)
    ct = rns_ctx.rescale(
        rns_ctx.relinearize(rns_ctx.square_raw(rns_ctx.encrypt(rns_keys.pk, z, rng)), rns_keys.relin)
    )
    back = ciphertext_from_bytes(ciphertext_to_bytes(ct))
    assert np.allclose(rns_ctx.decrypt_real(rns_keys.sk, back), z * z, atol=2e-3)


def test_bad_magic_rejected():
    with pytest.raises(ValueError, match="not a serialised"):
        ciphertext_from_bytes(b"XXXX" + b"\x00" * 32)


def test_truncation_rejected(rns_ctx, rns_keys, rng):
    ct = rns_ctx.encrypt(rns_keys.pk, np.zeros(rns_ctx.slots), rng)
    blob = ciphertext_to_bytes(ct)
    with pytest.raises(ValueError, match="truncated"):
        ciphertext_from_bytes(blob[:-8])
