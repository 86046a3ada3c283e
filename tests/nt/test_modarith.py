"""Vectorised modular arithmetic — exactness against Python big ints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nt.modarith import (
    MAX_MODULUS_BITS,
    addmod,
    mulmod,
    negmod,
    submod,
)


@pytest.mark.parametrize("mbits", [5, 20, 30, 31, 40, 45, 50])
def test_mulmod_matches_bigint(mbits, rng):
    m = (1 << mbits) - 5
    a = rng.integers(0, m, 500)
    b = rng.integers(0, m, 500)
    out = mulmod(a, b, m)
    for i in range(0, 500, 17):
        assert int(out[i]) == int(a[i]) * int(b[i]) % m


@pytest.mark.parametrize("mbits", [31, 40, 50])
def test_mulmod_extremes(mbits):
    """Worst-case operands (near m) keep the float-Barrett correction in range."""
    m = (1 << mbits) - 1
    while True:
        from repro.nt.primes import is_prime

        if is_prime(m):
            break
        m -= 2
    vals = np.array([0, 1, 2, m - 2, m - 1, m // 2, m // 2 + 1], dtype=np.int64)
    a, b = np.meshgrid(vals, vals)
    out = mulmod(a.ravel(), b.ravel(), m)
    expect = [(int(x) * int(y)) % m for x, y in zip(a.ravel(), b.ravel())]
    assert [int(v) for v in out] == expect


def test_addmod_submod_negmod(rng):
    m = (1 << 40) - 87
    a = rng.integers(0, m, 300)
    b = rng.integers(0, m, 300)
    assert all(int(v) == (int(x) + int(y)) % m for v, x, y in zip(addmod(a, b, m), a, b))
    assert all(int(v) == (int(x) - int(y)) % m for v, x, y in zip(submod(a, b, m), a, b))
    assert all(int(v) == (-int(x)) % m for v, x in zip(negmod(a, m), a))


def test_modulus_too_wide_rejected():
    with pytest.raises(ValueError, match="bits"):
        mulmod(np.array([1]), np.array([1]), 1 << (MAX_MODULUS_BITS + 1))


def test_modulus_too_small_rejected():
    with pytest.raises(ValueError):
        addmod(np.array([0]), np.array([0]), 1)


def test_broadcasting_shapes(rng):
    m = (1 << 33) - 9
    a = rng.integers(0, m, (4, 8))
    b = rng.integers(0, m, (1, 8))
    assert mulmod(a, b, m).shape == (4, 8)
    assert addmod(a, np.int64(3), m).shape == (4, 8)


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=(1 << 50) - 1),
    b=st.integers(min_value=0, max_value=(1 << 50) - 1),
    m=st.integers(min_value=2, max_value=(1 << 50) - 1),
)
def test_mulmod_property(a, b, m):
    a, b = a % m, b % m
    out = mulmod(np.array([a], dtype=np.int64), np.array([b], dtype=np.int64), m)
    assert int(out[0]) == a * b % m


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=(1 << 50) - 1),
    m=st.integers(min_value=2, max_value=(1 << 50) - 1),
)
def test_add_neg_roundtrip_property(a, m):
    a = a % m
    arr = np.array([a], dtype=np.int64)
    assert int(addmod(arr, negmod(arr, m), m)[0]) == 0
