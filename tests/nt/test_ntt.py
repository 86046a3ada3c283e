"""Negacyclic NTT: roundtrip, convolution theorem, batching, every width,
and the four-step GEMMs against the frozen radix-2 oracle."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.nt import ntt
from repro.nt.kernels import NTT_BLOCK_ELEMS
from repro.nt.modarith import mulmod
from repro.nt.ntt import BatchedNttPlan, NttPlan, bit_reverse_permutation
from repro.nt.primes import gen_ntt_primes

from .radix2_oracle import Radix2NttPlan


def naive_negacyclic(a, b, p):
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            v = int(a[i]) * int(b[j])
            if k >= n:
                out[k - n] = (out[k - n] - v) % p
            else:
                out[k] = (out[k] + v) % p
    return np.array(out, dtype=np.int64)


def test_bit_reverse_permutation():
    assert list(bit_reverse_permutation(8)) == [0, 4, 2, 6, 1, 5, 3, 7]
    perm = bit_reverse_permutation(64)
    assert sorted(perm) == list(range(64))
    with pytest.raises(ValueError):
        bit_reverse_permutation(10)


@pytest.mark.parametrize("n,bits", [(16, 20), (64, 26), (256, 40), (1024, 50)])
def test_roundtrip(n, bits, rng):
    p = gen_ntt_primes([bits], n)[0]
    plan = NttPlan(n, p)
    a = rng.integers(0, p, n)
    assert np.array_equal(plan.inverse(plan.forward(a)), a)
    assert np.array_equal(plan.forward(plan.inverse(a)), a)


@pytest.mark.parametrize("n", [8, 32])
def test_convolution_theorem_vs_naive(n, rng):
    p = gen_ntt_primes([26], n)[0]
    plan = NttPlan(n, p)
    a = rng.integers(0, p, n)
    b = rng.integers(0, p, n)
    assert np.array_equal(plan.negacyclic_convolve(a, b), naive_negacyclic(a, b, p))


def test_negacyclic_wraparound_sign():
    """X^(n-1) * X = X^n = -1: the defining negacyclic identity."""
    n = 16
    p = gen_ntt_primes([26], n)[0]
    plan = NttPlan(n, p)
    a = np.zeros(n, dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    a[n - 1] = 1
    b[1] = 1
    out = plan.negacyclic_convolve(a, b)
    expect = np.zeros(n, dtype=np.int64)
    expect[0] = p - 1  # -1 mod p
    assert np.array_equal(out, expect)


def test_batched_transforms(rng):
    n = 64
    p = gen_ntt_primes([30], n)[0]
    plan = NttPlan(n, p)
    batch = rng.integers(0, p, (5, n))
    fwd = plan.forward(batch)
    assert fwd.shape == (5, n)
    for i in range(5):
        assert np.array_equal(fwd[i], plan.forward(batch[i]))
    assert np.array_equal(plan.inverse(fwd), batch)


def test_constant_poly_is_constant_in_eval_domain(rng):
    """Evaluations of a constant polynomial are that constant everywhere —
    the property mul_plain_scalar relies on."""
    n = 32
    p = gen_ntt_primes([26], n)[0]
    plan = NttPlan(n, p)
    c = np.zeros(n, dtype=np.int64)
    c[0] = 12345
    assert np.all(plan.forward(c) == 12345)


def test_linearity(rng):
    n = 64
    p = gen_ntt_primes([30], n)[0]
    plan = NttPlan(n, p)
    a = rng.integers(0, p, n)
    b = rng.integers(0, p, n)
    left = plan.forward((a + b) % p)
    right = (plan.forward(a) + plan.forward(b)) % p
    assert np.array_equal(left, right)


def test_wrong_length_rejected():
    p = gen_ntt_primes([26], 64)[0]
    plan = NttPlan(64, p)
    with pytest.raises(ValueError):
        plan.forward(np.zeros(32, dtype=np.int64))


def test_non_ntt_prime_rejected():
    with pytest.raises(ValueError):
        NttPlan(64, 1_000_003)  # prime but not 1 mod 128


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**26 - 1), min_size=16, max_size=16))
def test_roundtrip_property(coeffs):
    n = 16
    p = gen_ntt_primes([26], n)[0]
    plan = NttPlan(n, p)
    a = np.array(coeffs, dtype=np.int64) % p
    assert np.array_equal(plan.inverse(plan.forward(a)), a)


# -- every modulus width -------------------------------------------------------------
#
# One transform path serves every width; the limb split of its pass
# matrices differs (one product at 20 bits, two at 26, three at 36, two
# weight by two residue limbs at 40, three by two at 49/50 — with
# Horner reductions between limbs above 2**63).  Convolutions against
# the O(n^2) big-int naive reference are the ground truth at each.

#: The chain's widths: 26-bit primes, 36-bit specials, the 40-bit q0,
#: the α = 1 preset's 49-bit special and the paper's 50-bit one, plus
#: both sides of the 31-bit int64-product boundary.
WIDTHS = (20, 26, 30, 31, 36, 40, 49, 50)


@pytest.mark.parametrize("bits", WIDTHS)
def test_convolution_exact_at_every_width(bits, rng):
    n = 32
    p = gen_ntt_primes([bits], n)[0]
    plan = NttPlan(n, p)
    a = rng.integers(0, p, n)
    b = rng.integers(0, p, n)
    a[0] = b[-1] = p - 1  # the widest residue every time
    assert np.array_equal(plan.negacyclic_convolve(a, b), naive_negacyclic(a, b, p))


@pytest.mark.parametrize("bits", WIDTHS)
def test_batched_stack_convolves_exactly(bits, rng):
    """A stack mixing the width under test with the narrowest and widest
    chain primes convolves every channel exactly and round-trips."""
    n = 64
    moduli = tuple(gen_ntt_primes([26, bits, bits, 50], n))
    batched = BatchedNttPlan(n, moduli)
    a = np.stack([rng.integers(0, m, n) for m in moduli])
    b = np.stack([rng.integers(0, m, n) for m in moduli])
    prod = np.stack(
        [mulmod(fa, fb, m) for fa, fb, m in zip(batched.forward(a), batched.forward(b), moduli)]
    )
    conv = batched.inverse(prod)
    for i, m in enumerate(moduli):
        assert np.array_equal(conv[i], naive_negacyclic(a[i], b[i], m)), (i, m)
    assert np.array_equal(batched.inverse(batched.forward(a)), a)


def test_a_prefix_tuple_shares_every_per_prime_table():
    """Every level's moduli tuple is a prefix of the chain: its batched
    plan holds the chain's per-prime plans, and building it allocates
    no new pass matrix."""
    n = 64
    moduli = tuple(gen_ntt_primes([40, 26, 26, 26, 36, 36], n))
    full = BatchedNttPlan.get(n, moduli)
    prefix = BatchedNttPlan.get(n, moduli[:3])
    for mine, theirs in zip(prefix.plans, full.plans):
        assert mine is theirs
    assert BatchedNttPlan.get(n, moduli[:3]) is prefix


# -- differential: the four-step GEMMs against the frozen radix-2 loop ---------------


@st.composite
def transform_cases(draw):
    """A ring degree, a stack of distinct widths, a layout and a row count
    on either side of the row block."""
    n = 1 << draw(st.integers(1, 14))
    widths = draw(st.lists(st.sampled_from(WIDTHS), min_size=1, max_size=3, unique=True))
    block = max(1, NTT_BLOCK_ELEMS // n)
    rows = draw(st.sampled_from(sorted({1, max(1, block - 1), block, block + 1, 2 * block + 1})))
    layout = draw(st.sampled_from(["k,n", "k,B,n", "k,3,B,n"]))
    return n, tuple(widths), rows, layout, draw(st.integers(0, 2**32 - 1))


def _check_against_oracle(case) -> None:
    n, widths, rows, layout, seed = case
    moduli = tuple(gen_ntt_primes(list(widths), n))
    middle = {"k,n": (), "k,B,n": (rows,), "k,3,B,n": (3, -(-rows // 3))}[layout]
    rng = np.random.default_rng(seed)
    stack = np.stack([rng.integers(0, m, middle + (n,)) for m in moduli])
    stack.reshape(len(moduli), -1)[:, 0] = np.array(moduli) - 1  # the widest residue
    # plans of a fresh registry: large-n pass matrices leave with the example
    with mock.patch.dict(ntt._PLAN_REGISTRY, clear=True), mock.patch.dict(
        ntt._BATCHED_REGISTRY, clear=True
    ):
        batched = BatchedNttPlan.get(n, moduli)
        fwd, inv = batched.forward(stack), batched.inverse(stack)
        for i, m in enumerate(moduli):
            oracle = Radix2NttPlan(n, m)
            assert np.array_equal(fwd[i], oracle.forward(stack[i])), (n, m, "forward")
            assert np.array_equal(inv[i], oracle.inverse(stack[i])), (n, m, "inverse")
            assert np.array_equal(NttPlan.get(n, m).forward(stack[i]), fwd[i])


@pytest.mark.fuzz
def test_four_step_matches_the_radix2_oracle(fuzz_examples):
    """Bit-identical forward and inverse for n = 2 .. 2**14 (odd log2 n
    included), every chain width, all three stack layouts and row counts
    straddling ``NTT_BLOCK_ELEMS``."""

    @settings(
        max_examples=fuzz_examples(12, 400), deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(transform_cases())
    @example((2, (50,), 1, "k,n", 0))
    @example((512, (26, 36, 40), 129, "k,3,B,n", 1))
    @example((2**14, (49, 20), 5, "k,B,n", 2))
    def check(case):
        _check_against_oracle(case)

    check()


def test_batched_extra_axes_match_per_channel(rng):
    """(k, B, n) stacks transform each batch row exactly like (k, n)."""
    n = 32
    moduli = tuple(gen_ntt_primes([26, 26, 40, 40], n))
    batched = BatchedNttPlan(n, moduli)
    stack = np.stack([rng.integers(0, m, (3, n)) for m in moduli])
    fwd = batched.forward(stack)
    for i, m in enumerate(moduli):
        for j in range(3):
            assert np.array_equal(fwd[i, j], NttPlan.get(n, m).forward(stack[i, j]))
    assert np.array_equal(batched.inverse(fwd), stack)
