"""CRT compose/decompose — the Fig. 2 mathematics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nt.crt import CrtBasis
from repro.nt.primes import gen_ntt_primes, gen_primes


@pytest.fixture(scope="module")
def basis():
    return CrtBasis([97, 101, 103, 65537])


def _object_residues(basis, x):
    """The exact object-path residues the int64 path must reproduce."""
    return [np.mod(np.asarray(x, dtype=object), m).astype(np.int64) for m in basis.moduli]


def _same(got, want):
    return all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


def test_rejects_non_coprime():
    with pytest.raises(ValueError, match="co-prime"):
        CrtBasis([6, 10])


def test_rejects_empty_and_small():
    with pytest.raises(ValueError):
        CrtBasis([])
    with pytest.raises(ValueError):
        CrtBasis([1, 7])


def test_roundtrip_scalars(basis, rng):
    xs = rng.integers(0, basis.modulus, 50).astype(object)
    back = basis.compose(basis.decompose(xs))
    assert all(int(a) == int(b) for a, b in zip(back, xs))
    # int64 input takes the word path: same residues as the object path
    x64 = rng.integers(0, basis.modulus, 50)
    assert _same(basis.decompose(x64), basis.decompose(x64.astype(object)))


def test_roundtrip_signed(basis, rng):
    half = basis.modulus // 2
    xs = np.array([int(v) for v in rng.integers(-(10**9), 10**9, 50)], dtype=object)
    back = basis.compose_centered(basis.decompose(xs))
    assert all(int(a) == int(b) for a, b in zip(back, xs))
    assert half > 10**9  # sanity: range covers the test values
    # negative int64 input: word path == object path
    x64 = rng.integers(-(10**9), 10**9, (2, 5))
    assert _same(basis.decompose(x64), _object_residues(basis, x64))


def test_componentwise_add_mul(basis, rng):
    # products must stay below Q ~ 6.6e10 for exact recovery
    x = rng.integers(0, 10**5, 20).astype(object)
    y = rng.integers(0, 10**5, 20).astype(object)
    rx, ry = basis.decompose(x), basis.decompose(y)
    s = basis.compose(basis.add(rx, ry))
    p = basis.compose(basis.mul(rx, ry))
    assert all(int(a) == int(u) + int(v) for a, u, v in zip(s, x, y))
    assert all(int(a) == int(u) * int(v) for a, u, v in zip(p, x, y))
    # signed products on 30-bit (narrow) and 45-bit (float-Barrett) NTT
    # chains: the addmod/mulmod channels equal exact object arithmetic
    for bits in ([30, 30, 30, 30], [45, 45]):
        chain = CrtBasis(gen_ntt_primes(bits, 64))
        x = rng.integers(-(2**20), 2**20, 40)
        y = rng.integers(-(2**20), 2**20, 40)
        rx, ry = chain.decompose(x), chain.decompose(y)
        prod, total = chain.mul(rx, ry), chain.add(rx, ry)
        assert np.array_equal(chain.compose_centered(prod), x * y)
        assert np.array_equal(chain.compose_centered(total), x + y)
        for op, out in ((np.multiply, prod), (np.add, total)):
            want = [
                np.mod(op(a.astype(object), b.astype(object)), m).astype(np.int64)
                for a, b, m in zip(rx, ry, chain.moduli)
            ]
            assert _same(out, want)


def test_channel_count_checked(basis):
    with pytest.raises(ValueError):
        basis.compose([np.array([1])])  # wrong channel count
    with pytest.raises(ValueError):
        basis.add([np.array([1])], [np.array([1])])


def test_tensor_shapes(basis, rng):
    x = rng.integers(0, 10**6, (3, 4, 5)).astype(object)
    res = basis.decompose(x)
    assert len(res) == 4 and res[0].shape == (3, 4, 5)
    assert basis.compose(res).shape == (3, 4, 5)
    res64 = basis.decompose(x.astype(np.int64))
    assert all(r.shape == (3, 4, 5) and r.dtype == np.int64 for r in res64)


def test_wide_modulus_channels(rng):
    """Channels wider than int64 stay as object arrays."""
    wide = gen_primes([80, 80])
    basis = CrtBasis(wide)
    x = np.array([1 << 100, 12345], dtype=object)
    res = basis.decompose(x)
    assert res[0].dtype == object
    assert np.array_equal(basis.compose(res), x)
    # one >62-bit modulus sends int64 input and the ring ops down the
    # exact object path; the 26-bit channel still comes back int64
    mixed = CrtBasis(gen_primes([70, 26]))
    x = rng.integers(-(2**30), 2**30, 16)
    res = mixed.decompose(x)
    assert [r.dtype for r in res] == [object, np.int64]
    assert all(np.array_equal(r, np.mod(x.astype(object), m)) for r, m in zip(res, mixed.moduli))
    assert np.array_equal(mixed.compose_centered(mixed.mul(res, res)), x.astype(object) ** 2)
    assert np.array_equal(mixed.compose_centered(mixed.add(res, res)), 2 * x)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=97 * 101 * 103 - 1))
def test_roundtrip_property(x):
    basis = CrtBasis([97, 101, 103])
    res = basis.decompose(np.array([x], dtype=object))
    assert int(basis.compose(res)[0]) == x


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-(10**4), max_value=10**4),
    st.integers(min_value=-(10**4), max_value=10**4),
)
def test_ring_homomorphism_property(a, b):
    """decompose is a ring homomorphism: ops commute with CRT."""
    basis = CrtBasis([2**13 - 1, 2**17 - 1, 2**19 - 1])
    ra = basis.decompose(np.array([a], dtype=object))
    rb = basis.decompose(np.array([b], dtype=object))
    assert int(basis.compose_centered(basis.mul(ra, rb))[0]) == a * b
    assert int(basis.compose_centered(basis.add(ra, rb))[0]) == a + b


# -- vectorised Garner lift vs the big-integer oracle --------------------------
#
# compose_bigint is the classical sum(r_i * e_i) mod Q formula in Python
# big-int arithmetic — exact by construction.  The vectorised Garner
# path (docs/KERNELS.md) must agree with it on every basis shape and on
# the adversarial values its fast paths special-case: zero, +/-1,
# values straddling Q//2, and values whose tail digits are maximal.

# Pools of small primes per bit class used to build random bases.
_PRIMES_BY_BITS = {
    8: [193, 197, 199, 211, 223, 227, 229, 233],
    13: [8191, 8209, 8219, 8221, 8231, 8233, 8237, 8243],
    26: [67108859, 67108837, 67108819, 67108777, 67108763, 67108729],
    31: [2147483647, 2147483629, 2147483587, 2147483579],
    40: [1099511627689, 1099511627581, 1099511627539],
}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_matches_bigint_oracle_random_bases(data):
    """Garner lift == big-int CRT on random bases of mixed widths."""
    k = data.draw(st.integers(min_value=1, max_value=5))
    moduli = []
    for _ in range(k):
        bits = data.draw(st.sampled_from(sorted(_PRIMES_BY_BITS)))
        pool = [p for p in _PRIMES_BY_BITS[bits] if p not in moduli]
        if not pool:
            continue
        moduli.append(data.draw(st.sampled_from(pool)))
    basis = CrtBasis(moduli)
    q = basis.modulus
    xs = [
        0,
        1,
        q - 1,
        q // 2,
        q // 2 - 1,
        q // 2 + 1 if q > 2 else 0,
        data.draw(st.integers(min_value=0, max_value=q - 1)),
        data.draw(st.integers(min_value=0, max_value=q - 1)),
    ]
    arr = np.array(xs, dtype=object)
    res = basis.decompose(arr)
    want = basis.compose_bigint(res)
    got = basis.compose(res)
    assert all(int(a) == int(b) for a, b in zip(got, want))
    got_c = basis.compose_centered(res)
    # centered convention: values >= Q//2 wrap negative
    want_c = [int(v) - q if int(v) >= q // 2 else int(v) for v in want]
    assert all(int(a) == int(b) for a, b in zip(got_c, want_c))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=16
    )
)
def test_signed_recompose_negative_and_small(values):
    """Signed lift recovers negative / tiny values exactly (CNN-RNS range)."""
    basis = CrtBasis([67108859, 67108837, 67108819])
    arr = np.array(values, dtype=object)
    back = basis.compose_centered(basis.decompose(arr))
    assert all(int(a) == int(b) for a, b in zip(back, arr))
    x64 = np.array(values, dtype=np.int64)
    assert _same(basis.decompose(x64), _object_residues(basis, x64))


def test_compose_near_modulus_and_zero_channels(rng):
    """Per-channel extremes: zero residues, q_i - 1 residues, mixtures."""
    basis = CrtBasis([8191, 8209, 8231, 67108859])
    q = basis.modulus
    specials = np.array(
        [0, 1, q - 1, q // 2, q // 2 - 1, q // 2 + 1], dtype=object
    )
    randoms = rng.integers(0, 2**60, 64).astype(object) % q
    arr = np.concatenate([specials, randoms])
    res = basis.decompose(arr)
    want = basis.compose_bigint(res)
    got = basis.compose(res)
    assert all(int(a) == int(b) for a, b in zip(got, want))


def test_unreduced_residues_accepted(rng):
    """digits() reduces unreduced / object residues on entry."""
    basis = CrtBasis([97, 101, 103])
    x = np.array([12345, 54321], dtype=object)
    res = basis.decompose(x)
    bumped = [r + m for r, m in zip(res, basis.moduli)]  # out of [0, q_i)
    assert np.array_equal(basis.compose(bumped), basis.compose(res))
