"""RnsBase: construction, sub-bases, metadata."""

import pytest

from repro.rns.base import RnsBase


def test_from_bit_sizes_ntt_friendly():
    base = RnsBase.from_bit_sizes([40, 26, 26], 64)
    assert base.k == 3
    assert base.bit_sizes == [40, 26, 26]
    assert all((m - 1) % 128 == 0 for m in base.moduli)


def test_non_ntt_modulus_rejected():
    with pytest.raises(ValueError, match="NTT-friendly"):
        RnsBase([1_000_003], n=64)


def test_no_n_skips_ntt_check():
    base = RnsBase([1_000_003, 97])
    assert base.k == 2


def test_prefix():
    base = RnsBase.from_bit_sizes([30, 26, 26, 26], 64)
    assert base.prefix(2).moduli == base.moduli[:2]
    with pytest.raises(ValueError):
        base.prefix(0)
    with pytest.raises(ValueError):
        base.prefix(5)


def test_total_bits_and_range():
    base = RnsBase.from_bit_sizes([26, 26], 64)
    assert base.total_bits == base.modulus.bit_length()


def test_exclusion_gives_distinct_chains():
    a = RnsBase.from_bit_sizes([26, 26], 64)
    b = RnsBase.from_bit_sizes([26, 26], 64, exclude=set(a.moduli))
    assert not set(a.moduli) & set(b.moduli)
