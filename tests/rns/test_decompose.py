"""Fig. 2 tensor decomposition/recomposition on the Fig. 2 basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nt.crt import CrtBasis
from repro.nt.primes import gen_ntt_primes


@pytest.fixture(scope="module")
def base():
    """Three 26-bit NTT primes, Q ~ 2^78."""
    return CrtBasis(gen_ntt_primes([26, 26, 26], 64))


def _object_residues(base, x):
    """The exact object-path residues the int64 path must reproduce."""
    return [np.mod(np.asarray(x, dtype=object), m).astype(np.int64) for m in base.moduli]


def test_roundtrip_unsigned(base, rng):
    x = rng.integers(0, 2**40, (3, 7))
    res = base.decompose(x)
    assert len(res) == 3
    assert all(r.shape == (3, 7) and r.dtype == np.int64 for r in res)
    assert np.array_equal(base.compose_centered(res), x)  # x < Q/2


def test_roundtrip_signed(base, rng):
    x = rng.integers(-(2**40), 2**40, (2, 5, 5))
    res = base.decompose(x)
    assert np.array_equal(base.compose_centered(res), x)


def test_float_rejected(base):
    for bad in (
        np.array([1.5]),
        np.array([1 + 2j]),
        np.array([1.5, -2.7], dtype=object),
        np.array([3, 2.5], dtype=object),
    ):
        with pytest.raises(TypeError):
            base.decompose(bad)


def test_channel_count_validated(base):
    res = base.decompose(np.arange(4))
    with pytest.raises(ValueError):
        base.compose_centered(res[:2])


def test_residues_canonical(base, rng):
    x = rng.integers(-(2**50), 2**50, 100)
    res = base.decompose(x)
    for r, m in zip(res, base.moduli):
        assert np.all(r >= 0)
        assert np.all(r < m)
    # the int64 word path gives the object path's residues
    assert all(np.array_equal(r, w) for r, w in zip(res, _object_residues(base, x)))


def test_object_input(base):
    x = np.array([1 << 70, -(1 << 69)], dtype=object)
    # Q ~ 2^78 so these are representable
    back = base.compose_centered(base.decompose(x))
    assert [int(v) for v in back] == [1 << 70, -(1 << 69)]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-(2**70), max_value=2**70))
def test_signed_roundtrip_property(v):
    base = CrtBasis(gen_ntt_primes([26, 26, 26], 64))
    res = base.decompose(np.array([v], dtype=object))
    assert int(base.compose_centered(res)[0]) == v
