"""Channelwise residue arithmetic (the product the Fig. 2 benchmark runs)."""

import numpy as np
import pytest

from repro.nt.crt import CrtBasis
from repro.nt.primes import gen_ntt_primes


@pytest.fixture(scope="module")
def base():
    return CrtBasis(gen_ntt_primes([30, 30, 30, 30], 64))


def test_mul_matches_integer(base, rng):
    x = rng.integers(-(2**20), 2**20, 40)
    y = rng.integers(-(2**20), 2**20, 40)
    rx, ry = base.decompose(x), base.decompose(y)
    assert np.array_equal(base.compose_centered(base.mul(rx, ry)), x * y)


def test_channel_count_validation(base, rng):
    x = base.decompose(rng.integers(0, 10, 4))
    with pytest.raises(ValueError):
        base.mul(x[:2], x)
