"""Prime generation: primality, NTT-friendliness, distinctness."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nt.primes import gen_ntt_primes, gen_primes, is_prime

_KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, (1 << 31) - 1, 2**61 - 1]
_KNOWN_COMPOSITES = [0, 1, 4, 100, 561, 1729, 25326001, (1 << 31) - 2]


@pytest.mark.parametrize("p", _KNOWN_PRIMES)
def test_known_primes(p):
    assert is_prime(p)


@pytest.mark.parametrize("c", _KNOWN_COMPOSITES)
def test_known_composites(c):
    assert not is_prime(c)


@pytest.mark.parametrize("n", [64, 256, 2048])
def test_gen_ntt_primes_congruence(n):
    primes = gen_ntt_primes([30, 30, 40, 26], n)
    assert len(set(primes)) == 4
    for p, bits in zip(primes, [30, 30, 40, 26]):
        assert is_prime(p)
        assert p.bit_length() == bits
        assert p % (2 * n) == 1


def test_gen_ntt_primes_exclusion():
    first = gen_ntt_primes([30], 64)
    second = gen_ntt_primes([30], 64, exclude=set(first))
    assert first[0] != second[0]


def test_gen_ntt_primes_validation():
    with pytest.raises(ValueError):
        gen_ntt_primes([30], 63)  # not a power of two
    with pytest.raises(ValueError):
        gen_ntt_primes([55], 64)  # beyond supported width
    with pytest.raises(ValueError):
        gen_ntt_primes([10], 2048)  # too small for 2n steps


def test_gen_coprime_chain():
    """A same-width chain, as ``CkksRnsParams`` builds one: distinct NTT primes."""
    chain = gen_ntt_primes([26] * 5, 128)
    assert len(set(chain)) == 5
    assert all(p % 256 == 1 for p in chain)


@pytest.mark.parametrize("bits", [8, 30, 60, 120, 250])
def test_gen_primes_arbitrary_width(bits):
    ps = gen_primes([bits, bits])
    assert len(set(ps)) == 2
    for p in ps:
        assert is_prime(p)
        assert p.bit_length() == bits


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_is_prime_property(n):
    """Miller-Rabin agrees with trial division."""
    assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)))
