"""Multiprecision negacyclic ring: multi-modular multiply, rescale helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nt.polynomial import PolyRing


def naive_mul(a, b, n, q):
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            v = int(a[i]) * int(b[j])
            if k >= n:
                out[k - n] = (out[k - n] - v) % q
            else:
                out[k] = (out[k] + v) % q
    return np.array(out, dtype=object)


#: Rings the product is also checked on: every small degree, an even q
#: and an odd ~2^100 q.
_MUL_RINGS = [(n, q) for n in (2, 4, 16, 64) for q in (1 << 40, (1 << 100) + 277)]


@pytest.fixture(scope="module")
def ring():
    return PolyRing(16, (1 << 100) + 277)


def test_constructor_validation():
    with pytest.raises(ValueError):
        PolyRing(12, 97)
    with pytest.raises(ValueError):
        PolyRing(16, 1)


def test_mul_matches_naive(ring, rng):
    for ring in [ring] + [PolyRing(n, q) for n, q in _MUL_RINGS]:
        a = np.array([int(v) for v in rng.integers(0, 2**60, ring.n)], dtype=object) % ring.q
        b = np.array([int(v) for v in rng.integers(0, 2**60, ring.n)], dtype=object) % ring.q
        assert all(int(x) == int(y) for x, y in zip(ring.mul(a, b), naive_mul(a, b, ring.n, ring.q)))


def test_mul_with_huge_coefficients(ring, rng):
    """Uniform operands, and an operand of all q//2: its square puts a
    product coefficient at the n * (q/2)^2 bound the CRT basis holds."""
    for ring in [ring] + [PolyRing(n, q) for n, q in _MUL_RINGS]:
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        half = np.full(ring.n, ring.q // 2, dtype=object)
        for u, v in [(a, b), (half, half), (a, half)]:
            got = ring.mul(u, v)
            ref = naive_mul(u, v, ring.n, ring.q)
            assert all(int(x) == int(y) for x, y in zip(got, ref))


def test_mul_many_matches_naive(ring, rng):
    """Pairs sharing operands (by identity) transform each operand once
    and still return every product, in order."""
    a, b, c = (ring.random_uniform(rng) for _ in range(3))
    pairs = [(a, b), (a, a), (c, a), (b, c), (a, b)]
    got = ring.mul_many(pairs)
    assert len(got) == len(pairs)
    for (u, v), p in zip(pairs, got):
        assert all(int(x) == int(y) for x, y in zip(p, naive_mul(u, v, ring.n, ring.q)))
    with pytest.raises(ValueError, match="1-D"):
        ring.mul_many([(a, np.stack([b, c]))])


def test_linear_ops(ring, rng):
    a = ring.random_uniform(rng)
    b = ring.random_uniform(rng)
    s = ring.add(a, b)
    assert all(int(x) == (int(u) + int(v)) % ring.q for x, u, v in zip(s, a, b))
    d = ring.sub(a, b)
    assert all(int(x) == (int(u) - int(v)) % ring.q for x, u, v in zip(d, a, b))
    m = ring.scalar_mul(a, 12345)
    assert all(int(x) == int(u) * 12345 % ring.q for x, u in zip(m, a))
    z = ring.add(a, ring.neg(a))
    assert all(int(x) == 0 for x in z)


def test_constant_and_zero(ring):
    c = ring.constant(-5)
    assert int(c[0]) == ring.q - 5
    assert all(int(v) == 0 for v in c[1:])
    assert all(int(v) == 0 for v in ring.zero())


def test_to_centered(ring):
    a = ring.constant(ring.q - 1)  # = -1 centered
    assert int(ring.to_centered(a)[0]) == -1


def test_round_div_half_away_from_zero():
    ring = PolyRing(4, 1 << 40)
    a = ring.from_coeffs(np.array([10, 15, -15 % ring.q, 14], dtype=object))
    out = ring.round_div(a, 10, 1 << 30)
    q2 = 1 << 30
    assert [int(v) for v in out] == [1, 2, (-2) % q2, 1]


def test_mod_switch_preserves_centered_value():
    ring = PolyRing(4, 1 << 60)
    small = 1 << 30
    a = ring.from_coeffs(np.array([5, -7 % ring.q, 0, 123], dtype=object))
    out = ring.mod_switch(a, small)
    assert [int(v) for v in out] == [5, (-7) % small, 0, 123]


def test_automorphism_identity_and_composition(ring, rng):
    a = ring.random_uniform(rng)
    assert all(int(x) == int(y) for x, y in zip(ring.automorphism(a, 1), a))
    # kappa_g1 . kappa_g2 = kappa_{g1*g2 mod 2n}
    g1, g2 = 5, 9
    lhs = ring.automorphism(ring.automorphism(a, g1), g2)
    rhs = ring.automorphism(a, (g1 * g2) % (2 * ring.n))
    assert all(int(x) == int(y) for x, y in zip(lhs, rhs))


def test_automorphism_even_rejected(ring):
    with pytest.raises(ValueError):
        ring.automorphism(ring.zero(), 4)


def test_automorphism_is_ring_morphism(ring, rng):
    """kappa_g(a*b) == kappa_g(a) * kappa_g(b)."""
    a = ring.random_uniform(rng)
    b = ring.random_uniform(rng)
    g = 2 * ring.n - 1
    lhs = ring.automorphism(ring.mul(a, b), g)
    rhs = ring.mul(ring.automorphism(a, g), ring.automorphism(b, g))
    assert all(int(x) == int(y) for x, y in zip(lhs, rhs))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=8, max_size=8))
def test_mul_commutative_property(coeffs):
    ring = PolyRing(8, (1 << 64) + 13)
    a = ring.from_coeffs(np.array(coeffs, dtype=object))
    b = ring.from_coeffs(np.array(coeffs[::-1], dtype=object))
    ab = ring.mul(a, b)
    ba = ring.mul(b, a)
    assert all(int(x) == int(y) for x, y in zip(ab, ba))


@pytest.mark.fuzz
def test_mul_matches_naive_property(fuzz_examples):
    """The multi-modular product against the schoolbook one over random
    degrees n <= 64, moduli q < 2^400 and coefficients in [0, q)."""

    @settings(max_examples=fuzz_examples(12, 400), deadline=None)
    @given(st.integers(1, 6), st.integers(2, 2**400 - 1), st.data())
    def check(log_n, q, data):
        ring = PolyRing(1 << log_n, q)
        coeffs = st.lists(st.integers(0, q - 1), min_size=ring.n, max_size=ring.n)
        a = np.array(data.draw(coeffs), dtype=object)
        b = np.array(data.draw(coeffs), dtype=object)
        assert [int(v) for v in ring.mul(a, b)] == [int(v) for v in naive_mul(a, b, ring.n, q)]

    check()
