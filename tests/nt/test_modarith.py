"""Vectorised modular arithmetic — exactness against Python big ints."""

from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nt import modarith
from repro.nt.modarith import (
    MAX_MODULUS_BITS,
    NARROW_MODULUS_BITS,
    addmod,
    mulmod,
    negmod,
    submod,
)
from repro.nt.primes import is_prime


def _mulmod_wide_four_corrections(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """The earlier wide kernel, frozen as an oracle: a ``floor`` quotient
    off by at most 2, a uint64 remainder and four conditional ±m steps."""
    au = a.astype(np.uint64)
    bu = b.astype(np.uint64)
    q = np.floor(a.astype(np.float64) * b.astype(np.float64) / m).astype(np.uint64)
    with np.errstate(over="ignore"):
        r = (au * bu - q * np.uint64(m)).astype(np.int64)
    r = np.where(r < 0, r + m, r)
    r = np.where(r < 0, r + m, r)
    r = np.where(r >= m, r - m, r)
    r = np.where(r >= m, r - m, r)
    return r


def _prime_below(bound: int) -> int:
    m = bound - 1
    while not is_prime(m):
        m -= 2
    return m


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
    m = _prime_below(1 << mbits)
    vals = np.array([0, 1, 2, m - 2, m - 1, m // 2, m // 2 + 1], dtype=np.int64)
    a, b = np.meshgrid(vals, vals)
    out = mulmod(a.ravel(), b.ravel(), m)
    expect = [(int(x) * int(y)) % m for x, y in zip(a.ravel(), b.ravel())]
    assert [int(v) for v in out] == expect


def test_wide_kernel_matches_four_correction_oracle():
    """10**5 random ``(m, a, b)``, m up to 2**50 - 1: the one-correction
    kernel, ``mulmod`` and the frozen four-correction kernel agree, and
    all equal the big-int product."""
    rng = np.random.default_rng(2024)
    moduli, per_m = 1000, 100
    bits = rng.integers(2, MAX_MODULUS_BITS + 1, moduli)
    bits[: moduli // 10] = MAX_MODULUS_BITS  # the top of the range, where the bound is tight
    ms = [int(rng.integers(1 << (w - 1), (1 << w) - 1, endpoint=True)) | 1 for w in bits]
    ms[0] = (1 << MAX_MODULUS_BITS) - 1
    for m in ms:
        a = rng.integers(0, m, per_m)
        b = rng.integers(0, m, per_m)
        expect = np.array([int(x) * int(y) % m for x, y in zip(a, b)], dtype=np.int64)
        np.testing.assert_array_equal(_mulmod_wide_four_corrections(a, b, m), expect)
        np.testing.assert_array_equal(modarith._mulmod_wide(a, b, m), expect)
        np.testing.assert_array_equal(mulmod(a, b, m), expect)


@pytest.mark.parametrize("bound", [1 << NARROW_MODULUS_BITS, 1 << MAX_MODULUS_BITS])
def test_mulmod_boundary_operands(bound):
    """{0, 1, m-1, m//2, isqrt(m)} pairwise, for a prime and an odd
    composite just below 2**31 (the narrow boundary) and 2**50."""
    for m in (_prime_below(bound), bound - 1, bound - 3):
        vals = np.array([0, 1, m - 1, m // 2, isqrt(m)], dtype=np.int64)
        a, b = (v.ravel() for v in np.meshgrid(vals, vals))
        expect = [int(x) * int(y) % m for x, y in zip(a, b)]
        assert [int(v) for v in mulmod(a, b, m)] == expect
        assert [int(v) for v in modarith._mulmod_wide(a, b, m)] == expect
        np.testing.assert_array_equal(_mulmod_wide_four_corrections(a, b, m), expect)


def test_narrow_boundary_never_enters_wide_path(monkeypatch):
    """Every modulus below 2**31 — a 31-bit prime included — takes the
    int64 path; 2**31 and up take the float-Barrett one."""
    calls = []
    wide = modarith._mulmod_wide

    def counted(a, b, m):
        calls.append(m)
        return wide(a, b, m)

    monkeypatch.setattr(modarith, "_mulmod_wide", counted)
    a = np.arange(64, dtype=np.int64)
    for m in (_prime_below(1 << 31), (1 << 31) - 1, (1 << 30) + 3, (1 << 26) - 5):
        assert [int(v) for v in mulmod(a, a[::-1], m)] == [
            int(x) * int(y) % m for x, y in zip(a, a[::-1])
        ]
    assert calls == []
    mulmod(a, a, (1 << 31) + 11)
    assert calls == [(1 << 31) + 11]


def test_31_bit_key_switch_stays_narrow(monkeypatch):
    """A relinearisation over 3 x 31-bit special primes (the benchmark
    presets' set) reaches ``_mulmod_wide`` only for the 40-bit ``q_0``."""
    from repro.ckksrns import CkksRnsContext, CkksRnsParams

    ctx = CkksRnsContext(
        CkksRnsParams(n=64, moduli_bits=(40, 26, 26), scale_bits=26,
                      special_bits=(31, 31, 31), hw=8)
    )
    keys = ctx.keygen(3)
    ct = ctx.encrypt(keys.pk, np.linspace(-1, 1, ctx.slots), 4)
    calls = []
    wide = modarith._mulmod_wide

    def counted(a, b, m):
        calls.append(m)
        return wide(a, b, m)

    monkeypatch.setattr(modarith, "_mulmod_wide", counted)
    ctx.relinearize(ctx.mul_raw(ct, ct), keys.relin)
    assert calls, "the 40-bit q_0 channel takes the wide path"
    assert {m.bit_length() for m in calls} == {40}
    assert not set(calls) & set(ctx.special_moduli)


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
