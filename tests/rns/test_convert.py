"""Base conversion used by hybrid key switching (ModUp / ModDown)."""

import numpy as np
import pytest

from repro.nt.crt import CrtBasis
from repro.nt.primes import gen_ntt_primes
from repro.rns.convert import approx_base_convert


def _basis(bits, exclude=None) -> CrtBasis:
    return CrtBasis(gen_ntt_primes(list(bits), 64, exclude=exclude))


def test_approx_base_convert_exact_with_correction(rng):
    src = _basis([26, 26, 26])
    dst = _basis([30, 30], exclude=set(src.moduli))
    x = rng.integers(0, 2**60, 50).astype(object)
    got = approx_base_convert(src.decompose(x), src, dst)
    want = dst.decompose(x)
    assert np.array_equal(got, want)


def test_approx_base_convert_overflow_bounded(rng):
    """Without correction the result is off by v*Q with 0 <= v < k."""
    src = _basis([26, 26, 26])
    dst = _basis([40], exclude=set(src.moduli))
    # uniform over [0, Q): Q ~ 2^78 exceeds int64, sample via bigints
    x = np.array(
        [int.from_bytes(rng.bytes(12), "little") % src.modulus for _ in range(100)],
        dtype=object,
    )
    got = approx_base_convert(src.decompose(x), src, dst, correct_overflow=False)
    m = dst.moduli[0]
    q_mod = src.modulus % m
    want = dst.decompose(x)[0]
    diff = (got[0] - want) % m
    # difference must be v * Q mod m for v in [0, k)
    allowed = {(v * q_mod) % m for v in range(src.k)}
    assert set(int(d) for d in diff.ravel()) <= allowed


def test_channel_count_validated(rng):
    src = _basis([26, 26])
    dst = _basis([30], exclude=set(src.moduli))
    with pytest.raises(ValueError):
        approx_base_convert(np.zeros((3, 4), dtype=np.int64), src, dst)


def _uniform_mod(rng, modulus: int, count: int) -> np.ndarray:
    return np.array(
        [int.from_bytes(rng.bytes(16), "little") % modulus for _ in range(count)],
        dtype=object,
    )


@pytest.mark.parametrize(
    "src_bits", [(40, 26, 26), (26, 40, 26), (45, 45), (36, 36, 36), (40,), (26,), (50,)]
)
@pytest.mark.parametrize("dst_bits", [26, 30, 36, 40, 45, 50])
def test_mixed_width_conversion_is_exact_and_centered(rng, src_bits, dst_bits):
    """Every source/destination width mix, against big-int arithmetic.

    A source prime wider than a narrow destination used to overflow
    int64 inside ``mulmod`` (a 40-bit ``q_0`` into a 26- or 30-bit
    prime); the corrected result is the *centered* representative.  A
    one-prime source is the exact centered lift (the rescale's and
    α = 1 key switching's), checked at its boundaries too.
    """
    src = _basis(src_bits)
    dst = _basis([dst_bits, dst_bits], exclude=set(src.moduli))
    x = _uniform_mod(rng, src.modulus, 2000)
    if src.k == 1:
        q = src.modulus
        x = np.concatenate([np.array([0, 1, q // 2, q // 2 + 1, q - 1], dtype=object), x])
    centered = np.where(x > src.modulus // 2, x - src.modulus, x)
    got = approx_base_convert(src.decompose(x), src, dst)
    assert np.array_equal(got, dst.decompose(centered))


def test_out_rows_and_channel_list(rng):
    """Writing into caller rows from a list of channel views matches the stack."""
    src = _basis([26, 26, 26])
    dst = _basis([36, 26], exclude=set(src.moduli))
    chans = np.stack(src.decompose(_uniform_mod(rng, src.modulus, 64)))
    want = approx_base_convert(chans, src, dst)
    out = np.zeros((3, 64), dtype=np.int64)
    assert approx_base_convert(list(chans), src, dst.moduli, out=[out[2], out[0]]) is None
    assert np.array_equal(out[[2, 0]], want) and not out[1].any()
