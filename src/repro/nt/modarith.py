"""Vectorised modular arithmetic over ``int64`` arrays.

Two multiplication paths are provided:

* **narrow** (modulus < 2**31): ``(a * b) % m`` directly in ``int64`` —
  products are below 2**62 so they never overflow.
* **wide** (modulus < 2**50): a float-Barrett reduction.  The quotient
  ``q = floor(a*b/m)`` is estimated in ``float64``; the remainder
  ``a*b - q*m`` is computed in wrap-around ``uint64`` arithmetic (exact
  modulo 2**64) and corrected by at most a few conditional ±m steps.
  With ``m < 2**50`` the quotient estimate is off by at most 2, so the
  correction always lands (see ``tests/nt/test_modarith.py`` for the
  exhaustive randomized check against Python big-int arithmetic).

The wide path costs roughly 4x the narrow path — this *real* cost
difference is what makes "more, smaller RNS moduli" genuinely cheaper
per channel in the moduli-sweep experiments (Tables IV/VI).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_MODULUS_BITS",
    "NARROW_MODULUS_BITS",
    "addmod",
    "submod",
    "negmod",
    "mulmod",
]

#: Largest supported modulus bit-width (float-Barrett correctness bound).
MAX_MODULUS_BITS = 50
#: Moduli strictly below 2**NARROW_MODULUS_BITS take the direct int64 path.
NARROW_MODULUS_BITS = 31

_U64 = np.uint64
_I64 = np.int64


def _check_modulus(m: int) -> int:
    m = int(m)
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if m.bit_length() > MAX_MODULUS_BITS:
        raise ValueError(
            f"modulus {m} has {m.bit_length()} bits; vectorised arithmetic "
            f"supports at most {MAX_MODULUS_BITS} bits (use repro.nt.polynomial "
            f"for multiprecision)"
        )
    return m


def addmod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Elementwise ``(a + b) mod m`` for arrays already reduced mod *m*."""
    m = _check_modulus(m)
    s = np.add(a, b, dtype=_I64)
    return np.where(s >= m, s - m, s)


def submod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Elementwise ``(a - b) mod m`` for arrays already reduced mod *m*."""
    m = _check_modulus(m)
    d = np.subtract(a, b, dtype=_I64)
    return np.where(d < 0, d + m, d)


def negmod(a: np.ndarray, m: int) -> np.ndarray:
    """Elementwise ``(-a) mod m`` for an array already reduced mod *m*.

    No library kernel calls it: it is the negacyclic sign flip of the
    reference rotations in ``tests/ckksrns/test_hybrid_keyswitch.py``
    and ``tests/henn/test_packing.py``, the oracles of the schemes'
    automorphisms.
    """
    m = _check_modulus(m)
    a = np.asarray(a, dtype=_I64)
    return np.where(a == 0, a, m - a)


def mulmod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Elementwise ``(a * b) mod m``.

    Inputs must be reduced to ``[0, m)``.  Dispatches on the modulus
    width; see module docstring.
    """
    m = _check_modulus(m)
    if m.bit_length() < NARROW_MODULUS_BITS:
        return (np.multiply(a, b, dtype=_I64)) % m
    return _mulmod_wide(np.asarray(a, dtype=_I64), np.asarray(b, dtype=_I64), m)


def _mulmod_wide(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Float-Barrett ``(a*b) mod m`` for ``m < 2**50``."""
    au = a.astype(_U64)
    bu = b.astype(_U64)
    # Quotient estimate in double precision; error <= 2 for m < 2**50.
    q = np.floor(a.astype(np.float64) * b.astype(np.float64) / m).astype(_U64)
    mu = _U64(m)
    with np.errstate(over="ignore"):
        r = (au * bu - q * mu).astype(_I64)  # exact mod 2**64, reinterpret signed
    # r is the true remainder plus e*m for e in {-2,-1,0,1,2}.
    r = np.where(r < 0, r + m, r)
    r = np.where(r < 0, r + m, r)
    r = np.where(r >= m, r - m, r)
    r = np.where(r >= m, r - m, r)
    return r
