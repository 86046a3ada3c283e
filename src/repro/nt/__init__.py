"""Number-theory substrate.

Everything the CKKS / CKKS-RNS schemes need and nothing more:

* :mod:`repro.nt.modarith` — vectorised modular arithmetic on ``int64``
  arrays, with a direct path for moduli below 2**31 and a float-Barrett
  path for moduli up to 2**50 (the paper's SEAL tool caps primes at 60
  bits; we cap at 50 — see DESIGN.md §5.2).
* :mod:`repro.nt.primes` — Miller-Rabin primality and generation of
  NTT-friendly primes ``p ≡ 1 (mod 2N)`` (the "co-prime generation tool"
  of §VI.A).
* :mod:`repro.nt.ntt` — negacyclic Number Theoretic Transform, two
  exact GEMM passes per transform (:mod:`repro.nt.kernels`).
* :mod:`repro.nt.crt` — Chinese Remainder Theorem compose/decompose.
* :mod:`repro.nt.polynomial` — multiprecision negacyclic polynomial ring
  used by the non-RNS CKKS baseline; its operands stay big ints and only
  the product goes through a temporary CRT over NTT primes.
"""

from repro.nt.modarith import (
    MAX_MODULUS_BITS,
    addmod,
    mulmod,
    negmod,
    submod,
)
from repro.nt.primes import gen_ntt_primes, gen_primes, is_prime
from repro.nt.ntt import NttPlan
from repro.nt.crt import CrtBasis
from repro.nt.polynomial import PolyRing

__all__ = [
    "MAX_MODULUS_BITS",
    "addmod",
    "submod",
    "mulmod",
    "negmod",
    "is_prime",
    "gen_ntt_primes",
    "gen_primes",
    "NttPlan",
    "CrtBasis",
    "PolyRing",
]
