"""Key material for the full-RNS scheme.

All public material is stored channelwise in the NTT domain over the
*extended* basis ``{q_0..q_L, p_0..p_{α-1}}`` (ciphertext chain plus the
α special primes), shape ``(k_top + α, n)``.  The relinearisation and
Galois keys are one type, :class:`repro.ckksrns.keyswitch.SwitchKey`:
one such pair per digit, ``(digits, k_top + α, n)`` with
``digits = ⌈k_top/α⌉`` — chain primes are grouped α at a time (hybrid
key switching, see docs/KERNELS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ckksrns.keyswitch import SwitchKey

__all__ = ["RnsSecretKey", "RnsPublicKey", "RnsKeyPair"]


@dataclass
class RnsSecretKey:
    """Secret ``s`` as residue channels over the extended basis (NTT domain)."""

    s: np.ndarray  # (k_top + α, n)
    s_coeff: np.ndarray  # signed ternary coefficients, shape (n,), for Galois keygen


@dataclass
class RnsPublicKey:
    """``pk = (b, a)`` over the ciphertext basis only (NTT domain)."""

    b: np.ndarray  # (k_top, n)
    a: np.ndarray


@dataclass
class RnsKeyPair:
    """Full key material from one keygen: secret, public, relin, Galois keys.

    ``galois`` maps a Galois element ``g`` to the key switching
    ``s(X^g)`` back to ``s``.

    ``relin3`` switches ``s³`` back to ``s`` — it lets a degree-3
    extended ciphertext (from a lazy BSGS giant-step fold) relinearise
    in one merged digit sweep together with its ``s²`` component.
    """

    sk: RnsSecretKey
    pk: RnsPublicKey
    relin: SwitchKey
    galois: dict[int, SwitchKey] = field(default_factory=dict)
    relin3: SwitchKey | None = None
