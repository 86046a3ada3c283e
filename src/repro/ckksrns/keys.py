"""Key material for the full-RNS scheme.

All public material is stored channelwise in the NTT domain over the
*extended* basis ``{q_0..q_L, p_0..p_{α-1}}`` (ciphertext chain plus the
α special primes), shape ``(k_top + α, n)``.  Switch keys hold one such
pair per digit: ``(digits, k_top + α, n)`` with ``digits = ⌈k_top/α⌉``
— chain primes are grouped α at a time (hybrid key switching, see
docs/KERNELS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RnsSecretKey", "RnsPublicKey", "RnsRelinKey", "RnsGaloisKey", "RnsKeyPair"]


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
class RnsRelinKey:
    """Grouped-digit relinearisation key.

    ``b[g], a[g]`` (each ``(k_top + α, n)``, NTT domain) encode
    ``P * (Q_top/Q_g) * s^2`` for digit *g* — one digit per group of α
    ciphertext moduli, ``P`` the product of the α special primes.  A
    switch at a lower level uses the leading ``⌈k/α⌉`` digits.
    """

    b: np.ndarray  # (digits, k_top + α, n)
    a: np.ndarray


@dataclass
class RnsGaloisKey:
    """Digit key switching ``s(X^g) -> s`` (same layout as the relin key)."""

    g: int
    b: np.ndarray
    a: np.ndarray


@dataclass
class RnsKeyPair:
    """Full key material from one keygen: secret, public, relin, Galois keys.

    ``relin3`` switches ``s³`` back to ``s`` — it lets a degree-3
    extended ciphertext (from a lazy BSGS giant-step fold) relinearise
    in one merged digit sweep together with its ``s²`` component.
    """

    sk: RnsSecretKey
    pk: RnsPublicKey
    relin: RnsRelinKey
    galois: dict[int, RnsGaloisKey] = field(default_factory=dict)
    relin3: RnsRelinKey | None = None
