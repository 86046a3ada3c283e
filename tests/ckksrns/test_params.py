"""CKKS-RNS parameter sets, including the paper's Table II."""

import pytest

from repro.ckksrns import CkksRnsParams


def test_defaults():
    p = CkksRnsParams()
    assert p.chain_length == 7
    assert p.levels == 6
    assert p.scale == float(1 << 26)


def test_validation():
    with pytest.raises(ValueError):
        CkksRnsParams(n=100)
    with pytest.raises(ValueError):
        CkksRnsParams(moduli_bits=())
    with pytest.raises(ValueError):
        CkksRnsParams(moduli_bits=(60,))  # beyond 50-bit cap
    with pytest.raises(ValueError):
        CkksRnsParams(moduli_bits=(40,), special_bits=30)  # special < largest


def test_special_primes_cover_the_widest_digit_group():
    """α special primes, α-prime digits: P must be as wide as the widest Q_g."""
    p = CkksRnsParams(moduli_bits=(40, 26, 26, 26, 26), special_bits=(36, 36, 36))
    assert p.special_moduli_bits == (36, 36, 36)
    assert p.log_qp == p.log_q + 108
    assert CkksRnsParams(special_bits=45).special_moduli_bits == (45,)
    # 2 x 30 = 60 bits < group 0 = (40, 26) = 66 bits; the error names the group.
    with pytest.raises(ValueError, match=r"group 0 = chain primes \[0, 2\) of 66 bits"):
        CkksRnsParams(moduli_bits=(40, 26, 26), special_bits=(30, 30))
    # A later group can be the offender: (26, 26) fits 52 bits, (40, 26) does not.
    with pytest.raises(ValueError, match=r"group 1 = chain primes \[2, 4\)"):
        CkksRnsParams(moduli_bits=(26, 26, 40, 26), special_bits=(26, 26))
    with pytest.raises(ValueError):
        CkksRnsParams(special_bits=(36, 60))  # each special prime in [18, 50]
    with pytest.raises(ValueError):
        CkksRnsParams(special_bits=())


def test_paper_table2():
    p = CkksRnsParams.paper_table2()
    assert p.n == 2**14
    assert p.log_q == 366
    assert p.moduli_bits[0] == 40 and p.moduli_bits[-1] == 40
    assert set(p.moduli_bits[1:-1]) == {26}
    assert p.scale_bits == 26
    assert p.special_bits == 50 and p.log_qp == 416  # the paper's single prime
