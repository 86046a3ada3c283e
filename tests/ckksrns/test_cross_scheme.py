"""Cross-scheme agreement: CKKS-RNS and multiprecision CKKS compute the
same function (the paper's 'RNS does not compromise accuracy')."""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParams
from repro.ckksrns import CkksRnsContext, CkksRnsParams


@pytest.fixture(scope="module")
def pair():
    mp = CkksContext(CkksParams(n=128, scale_bits=26, q0_bits=40, levels=3, hw=16))
    rns = CkksRnsContext(
        CkksRnsParams(n=128, moduli_bits=(40, 26, 26, 26), scale_bits=26, special_bits=45, hw=16)
    )
    return mp, mp.keygen(3), rns, rns.keygen(3)


def test_same_polynomial_evaluation(pair, rng):
    """(0.5 + x) * x^2 under both schemes, against NumPy."""
    mp, mpk, rns, rnsk = pair
    z = rng.uniform(-0.9, 0.9, mp.slots)
    want = (0.5 + z) * z * z

    def run_mp():
        c = mp.encrypt(mpk.pk, z, 1)
        x2 = mp.rescale(mp.relinearize(mp.square_raw(c), mpk.relin))
        t = mp.add_plain(mp.mod_switch_to(c, x2.level), 0.5)
        return mp.decrypt_real(mpk.sk, mp.rescale(mp.relinearize(mp.mul_raw(x2, t), mpk.relin)))

    def run_rns():
        c = rns.encrypt(rnsk.pk, z, 1)
        x2 = rns.rescale(rns.relinearize(rns.square_raw(c), rnsk.relin))
        t = rns.add_plain(rns.mod_switch_to(c, x2.level), 0.5)
        return rns.decrypt_real(rnsk.sk, rns.rescale(rns.relinearize(rns.mul_raw(x2, t), rnsk.relin)))

    out_mp, out_rns = run_mp(), run_rns()
    assert np.max(np.abs(out_mp - want)) < 5e-3
    assert np.max(np.abs(out_rns - want)) < 5e-3
    assert np.max(np.abs(out_mp - out_rns)) < 1e-2


def test_rotation_agreement(pair, rng):
    mp, mpk, rns, rnsk = pair
    rng2 = np.random.default_rng(0)
    mp.add_galois_key(mpk, 1, rng2)
    rns.add_galois_key(rnsk, 1, rng2)
    z = rng.uniform(-1, 1, mp.slots)
    a = mp.decrypt_real(mpk.sk, mp.rotate(mp.encrypt(mpk.pk, z, 1), 1, mpk.galois))
    b = rns.decrypt_real(rnsk.sk, rns.rotate(rns.encrypt(rnsk.pk, z, 1), 1, rnsk.galois))
    assert np.max(np.abs(a - b)) < 5e-3
