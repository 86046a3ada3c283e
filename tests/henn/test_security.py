"""HE-standard parameter validation (Table II checks)."""

import pytest

from repro.ckksrns import CkksRnsParams
from repro.henn.security import HE_STANDARD_TABLE, he_standard_max_logq, validate_security


def test_table_values():
    assert he_standard_max_logq(16384, 128) == 438
    assert he_standard_max_logq(8192, 128) == 218
    assert he_standard_max_logq(4096, 192) == 75


def test_small_n_gets_zero_budget():
    assert he_standard_max_logq(512, 128) == 0


def test_huge_n_extended():
    assert he_standard_max_logq(65536, 128) >= 2 * 881


def test_unknown_level():
    with pytest.raises(ValueError):
        he_standard_max_logq(4096, 100)


def test_paper_table2_is_secure():
    """N = 2^14, log q = 366 + 50-bit special prime <= 438-bit budget."""
    p = CkksRnsParams.paper_table2()
    assert p.log_qp == 366 + 50
    report = validate_security(p.n, p.log_qp, 128)
    assert report.secure
    assert report.margin_bits >= 0


def test_toy_parameters_flagged_insecure():
    report = validate_security(512, 200, 128)
    assert not report.secure
    assert report.margin_bits < 0
    assert "INSECURE" in str(report) or not report.secure


def test_all_levels_monotone():
    """Higher security level -> smaller modulus budget at each N."""
    for n in HE_STANDARD_TABLE[128]:
        assert (
            HE_STANDARD_TABLE[128][n] > HE_STANDARD_TABLE[192][n] > HE_STANDARD_TABLE[256][n]
        )
