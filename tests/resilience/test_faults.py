"""FaultInjector semantics: determinism, budgets, backend hooks."""

import numpy as np
import pytest

from repro.henn.backend import MockBackend
from repro.resilience import FaultInjector


def test_seeded_determinism():
    a = FaultInjector(seed=11).corrupt_channel(times=3)
    b = FaultInjector(seed=11).corrupt_channel(times=3)
    moduli = [97, 101, 103]
    outs = [np.arange(5) % m for m in moduli]
    for _ in range(3):
        ra = a.apply_channel_faults(list(outs), moduli)
        rb = b.apply_channel_faults(list(outs), moduli)
        for x, y in zip(ra, rb):
            assert np.array_equal(x, y)
    assert a.events == b.events


def test_channel_budget_exhausts():
    inj = FaultInjector(seed=0).corrupt_channel(channel=1, times=2)
    moduli = [97, 101]
    outs = [np.arange(4) % m for m in moduli]
    first = inj.apply_channel_faults(outs, moduli)
    assert not np.array_equal(first[1], outs[1])
    assert np.array_equal(first[0], outs[0])  # other channels untouched
    inj.apply_channel_faults(outs, moduli)
    third = inj.apply_channel_faults(outs, moduli)  # budget spent
    assert np.array_equal(third[1], outs[1])
    assert inj.summary() == {"channel.corrupt": 2}


def test_channel_drop_marks_erasure():
    inj = FaultInjector(seed=0).corrupt_channel(channel=0, drop=True)
    outs = [np.arange(4) % 97, np.arange(4) % 101]
    faulted = inj.apply_channel_faults(outs, [97, 101])
    assert faulted[0] is None
    assert inj.summary() == {"channel.drop": 1}


def test_scale_perturbation_trips_mock_bookkeeping():
    """A mis-tracked scale must surface as the backend's scale-mismatch
    ValueError (a *detected* fault), not as silently wrong logits."""
    inj = FaultInjector(seed=0).perturb_scale(factor=1.5, times=1)
    be = MockBackend(batch=4, fault_injector=inj)
    bad = be.encrypt(np.ones(4))  # perturbed handle
    good = be.encrypt(np.ones(4))
    with pytest.raises(ValueError, match="scale mismatch"):
        be.add(bad, good)
    assert inj.summary() == {"scale.perturb": 1}


def test_ciphertext_corruption_hook():
    """Limb corruption at encrypt silently damages the plaintext — the
    motivating case for carrying RRNS redundancy in the conv stage."""
    from repro.ckksrns import CkksRnsParams
    from repro.henn.backend import CkksRnsBackend

    inj = FaultInjector(seed=0).corrupt_ciphertext(channel=0, times=1)
    be = CkksRnsBackend(
        CkksRnsParams(
            n=128, moduli_bits=(36, 26, 26), scale_bits=26, special_bits=45, hw=16
        ),
        seed=3,
        fault_injector=inj,
    )
    values = np.linspace(-1, 1, be.max_batch)
    corrupted = be.decrypt(be.encrypt(values))
    clean = be.decrypt(be.encrypt(values))
    assert inj.summary() == {"ciphertext.corrupt": 1}
    assert np.allclose(clean, values, atol=1e-3)
    assert not np.allclose(corrupted, values, atol=1e-3)
