"""Channelwise residue arithmetic (the product the Fig. 2 benchmark runs)."""

import numpy as np
import pytest

from repro.rns.arithmetic import channel_mul
from repro.rns.base import RnsBase
from repro.rns.decompose import rns_decompose, rns_recompose_signed


@pytest.fixture(scope="module")
def base():
    return RnsBase.from_bit_sizes([30, 30, 30, 30], 64)


def test_mul_matches_integer(base, rng):
    x = rng.integers(-(2**20), 2**20, 40)
    y = rng.integers(-(2**20), 2**20, 40)
    rx, ry = rns_decompose(x, base), rns_decompose(y, base)
    assert np.array_equal(rns_recompose_signed(channel_mul(rx, ry, base), base), x * y)


def test_channel_count_validation(base, rng):
    x = rns_decompose(rng.integers(0, 10, 4), base)
    with pytest.raises(ValueError):
        channel_mul(x[:2], x, base)
