"""RNS prime chains: every channel admits the length-n NTT, and chains
drawn around each other share no prime."""

import numpy as np
import pytest

from repro.nt.crt import CrtBasis
from repro.nt.ntt import BatchedNttPlan
from repro.nt.primes import gen_ntt_primes


def test_non_ntt_modulus_rejected():
    chain = gen_ntt_primes([40, 26, 26], 64)
    assert all((m - 1) % 128 == 0 for m in chain)
    BatchedNttPlan(64, tuple(chain))
    with pytest.raises(ValueError, match="NTT of length 64 unavailable"):
        BatchedNttPlan(64, (chain[0], 1_000_003))


def test_exclusion_gives_distinct_chains(rng):
    a = gen_ntt_primes([26, 26], 64)
    b = gen_ntt_primes([26, 26], 64, exclude=set(a))
    assert not set(a) & set(b)
    # the two chains are one co-prime basis (as Q and P are in ModUp)
    both = CrtBasis(a + b)
    x = rng.integers(-(2**60), 2**60, 8)
    assert np.array_equal(both.compose_centered(both.decompose(x)), x)
