"""Vectorised modular arithmetic over ``int64`` arrays.

Two multiplication paths are provided:

* **narrow** (modulus < 2**31): the product directly in ``int64`` —
  below 2**62, so it never overflows — reduced as ``p - (p // m) * m``,
  which NumPy runs with a multiply-and-shift instead of the hardware
  division of ``p % m``.
* **wide** (modulus < 2**50): a one-correction float-Barrett reduction.
  The quotient ``round(a*b/m)`` is estimated in ``float64`` with a
  precomputed ``1/m`` and is off by less than 0.875, so the remainder
  ``a*b - q*m``, computed in wrap-around ``int64`` (exact modulo
  2**64), lies in ``(-m, m)`` and one conditional ``+m`` makes it
  canonical (the derivation is in :func:`_mulmod_wide`;
  ``tests/nt/test_modarith.py`` checks it against Python big ints and
  against the earlier four-correction kernel).

On a 2-vCPU Xeon (NumPy 2.4, ``(8, 16, 512)`` stacks) the narrow path
costs about 2 ns per element and the wide one 10–12 ns — this *real*
cost difference is what makes "more, smaller RNS moduli" genuinely
cheaper per channel in the moduli-sweep experiments (Tables IV/VI), and
why every key-switching prime of the benchmark presets is below 2**31.
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
    if m < 1 << NARROW_MODULUS_BITS:
        return _reduce(np.multiply(a, b, dtype=_I64), m)
    return _mulmod_wide(np.asarray(a, dtype=_I64), np.asarray(b, dtype=_I64), m)


def _reduce(acc: np.ndarray, m: int) -> np.ndarray:
    """``acc mod m`` in ``[0, m)``, in place, as ``acc - (acc // m) * m``.

    NumPy divides by a scalar with libdivide's multiply-and-shift but
    takes a hardware division per element for ``%``: 1.3 against 3.4
    ns per element.  Products wrap modulo 2**64 like the exact result.
    """
    q = np.floor_divide(acc, m)
    q *= m
    acc -= q
    return acc


def _mulmod_wide(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Float-Barrett ``(a*b) mod m`` for ``m < 2**50``, one correction.

    With ``u = 2**-53`` the float64 quotient ``fl(fl(a*b) * fl(1/m))``
    (``a`` and ``b`` convert exactly) carries three roundings, so it is
    ``a*b/m * (1 + e)`` with ``|e| < 3u(1 + u)``; as ``a*b/m < m <
    2**50`` its absolute error is below ``2**50 * 3 * 2**-53 = 0.375``
    (plus ``O(2**-50)``).  Rounding to the nearest integer adds at most
    ``0.5``: the quotient ``q`` is off by less than ``0.875``, so the
    remainder ``r = a*b - q*m`` lies in ``(-0.875m, 0.875m) ⊂ (-m, m)``.
    Computed in wrap-around int64 it is exact modulo ``2**64`` and, being
    below ``2**63`` in magnitude, exact outright; one conditional ``+m``
    makes it canonical.
    """
    q = np.rint(a.astype(np.float64) * b.astype(np.float64) * (1.0 / m)).astype(_I64)
    with np.errstate(over="ignore"):
        r = np.multiply(a, b, dtype=_I64)
        r -= q * _I64(m)
    r += (r >> 63) & m  # the sign mask selects +m for negative r
    return r
