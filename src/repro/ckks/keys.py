"""Key material containers for the multiprecision CKKS scheme."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SecretKey", "PublicKey", "RelinKey", "GaloisKey", "KeyPair"]


@dataclass
class SecretKey:
    """``sk = (1, s)`` with ``s`` a ternary HW(h) polynomial."""

    s: np.ndarray  # object array, canonical mod q_L


@dataclass
class PublicKey:
    """``pk = (b, a)`` with ``b = -a s + e (mod q_L)``."""

    b: np.ndarray
    a: np.ndarray


@dataclass
class RelinKey:
    """Evaluation key ``ek = (b', a')`` over ``P * q_L`` encoding ``P s^2``."""

    b: np.ndarray
    a: np.ndarray
    p_special: int  # the special modulus P


@dataclass
class GaloisKey:
    """Key-switching key from ``s(X^g)`` to ``s``, over ``P * q_L``."""

    g: int
    b: np.ndarray
    a: np.ndarray
    p_special: int


@dataclass
class KeyPair:
    """Everything a party or evaluator may hold.

    ``relin3`` encodes ``P s³`` — the evaluation key consumed when a
    degree-3 extended ciphertext (lazy BSGS giant-step fold) is
    relinearised in one merged pass.
    """

    sk: SecretKey
    pk: PublicKey
    relin: RelinKey
    galois: dict[int, GaloisKey] = field(default_factory=dict)
    relin3: RelinKey | None = None
