"""Noise measurement utilities and growth behaviour."""

import numpy as np
import pytest

from repro.ckks.noise import fresh_noise_bound, measure_error, noise_budget_bits


def test_measure_error():
    stats = measure_error(np.array([1.001, 2.0]), np.array([1.0, 2.0]))
    assert np.isclose(stats["max_abs"], 0.001)
    assert stats["max_rel"] > 0
    assert stats["bits_precision"] > 9
    with pytest.raises(ValueError):
        measure_error(np.zeros(2), np.zeros(3))


def test_fresh_noise_bound_monotone():
    assert fresh_noise_bound(2048) > fresh_noise_bound(1024)
    assert fresh_noise_bound(1024, sigma=6.4) > fresh_noise_bound(1024, sigma=3.2)


def test_noise_budget_rule():
    # Table II: log q = 366, Δ = 2^26, CNN2 depth 13 -> positive headroom
    assert noise_budget_bits(366, 26, 13) > 0
    # the same circuit cannot fit a 200-bit modulus
    assert noise_budget_bits(300, 26, 13) < 0


def test_error_grows_with_depth(ckks_ctx, ckks_keys, rng):
    """Decryption error increases monotonically-ish along a mult chain."""
    z = rng.uniform(0.9, 1.1, ckks_ctx.slots)  # magnitudes ~1 so error accumulates
    ct = ckks_ctx.encrypt(ckks_keys.pk, z, rng)
    want = z.copy()
    errs = [measure_error(ckks_ctx.decrypt_real(ckks_keys.sk, ct), want)["max_abs"]]
    for _ in range(3):
        ct = ckks_ctx.rescale(ckks_ctx.relinearize(ckks_ctx.square_raw(ct), ckks_keys.relin))
        want = want * want
        errs.append(measure_error(ckks_ctx.decrypt_real(ckks_keys.sk, ct), want)["max_abs"])
    assert errs[-1] > errs[0]
