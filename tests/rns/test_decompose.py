"""Fig. 2 tensor decomposition/recomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rns.base import RnsBase
from repro.rns.decompose import rns_decompose, rns_recompose_signed


@pytest.fixture(scope="module")
def base():
    return RnsBase.from_bit_sizes([26, 26, 26], 64)


def test_roundtrip_unsigned(base, rng):
    x = rng.integers(0, 2**40, (3, 7))
    st_ = rns_decompose(x, base)
    assert st_.shape == (3, 3, 7)
    assert st_.dtype == np.int64
    assert np.array_equal(rns_recompose_signed(st_, base), x)  # x < Q/2


def test_roundtrip_signed(base, rng):
    x = rng.integers(-(2**40), 2**40, (2, 5, 5))
    st_ = rns_decompose(x, base)
    assert np.array_equal(rns_recompose_signed(st_, base), x)


def test_float_rejected(base):
    with pytest.raises(TypeError):
        rns_decompose(np.array([1.5]), base)


def test_channel_count_validated(base):
    x = rns_decompose(np.arange(4), base)
    with pytest.raises(ValueError):
        rns_recompose_signed(x[:2], base)


def test_residues_canonical(base, rng):
    x = rng.integers(-(2**50), 2**50, 100)
    st_ = rns_decompose(x, base)
    for i, m in enumerate(base.moduli):
        assert np.all(st_[i] >= 0)
        assert np.all(st_[i] < m)


def test_object_input(base):
    x = np.array([1 << 70, -(1 << 69)], dtype=object)
    # Q ~ 2^78 so these are representable
    st_ = rns_decompose(x, base)
    back = rns_recompose_signed(st_, base)
    assert [int(v) for v in back] == [1 << 70, -(1 << 69)]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-(2**70), max_value=2**70))
def test_signed_roundtrip_property(v):
    base = RnsBase.from_bit_sizes([26, 26, 26], 64)
    st_ = rns_decompose(np.array([v], dtype=object), base)
    assert int(rns_recompose_signed(st_, base)[0]) == v
