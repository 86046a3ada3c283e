"""Primality testing and NTT-friendly prime generation.

This plays the role of the "co-prime generation tool provided by SEAL"
cited in §VI.A of the paper: *given a list of bit-lengths, a set of
pairwise-distinct primes of those lengths is generated*, each satisfying
``p ≡ 1 (mod 2N)`` so that the negacyclic NTT of length ``N`` exists
modulo ``p``.
"""

from __future__ import annotations

__all__ = ["is_prime", "gen_ntt_primes", "gen_primes"]

# Deterministic Miller-Rabin witness sets (Sinclair / Jaeschke bounds).
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``n < 3.3e24`` (covers all our sizes)."""
    n = int(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES_64:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gen_ntt_primes(bit_sizes: list[int], n: int, exclude: set[int] | None = None) -> list[int]:
    """Generate distinct primes ``p ≡ 1 (mod 2n)`` with the given bit lengths.

    Parameters
    ----------
    bit_sizes:
        Desired bit length of each prime (the paper's "moduli chain", e.g.
        ``[40, 26, 26, ..., 40]``).  Each must be in ``[max(18, log2(4n)), 50]``.
    n:
        NTT length (power of two).  Primes satisfy ``p ≡ 1 (mod 2n)``.
    exclude:
        Primes to skip (ensures pairwise distinctness across calls).

    The search walks downward from ``2**bits`` in steps of ``2n`` (as SEAL
    does), so repeated requests for the same bit size yield consecutive
    distinct primes.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    taken: set[int] = set(exclude or ())
    out: list[int] = []
    step = 2 * n
    for bits in bit_sizes:
        bits = int(bits)
        if bits > 50:
            raise ValueError(f"prime bit size {bits} exceeds the supported 50 bits")
        if (1 << bits) <= 2 * step:
            raise ValueError(f"prime bit size {bits} too small for NTT length n={n}")
        # Largest candidate of the form k*2n + 1 strictly below 2**bits.
        cand = ((1 << bits) - 2) // step * step + 1
        while cand > (1 << (bits - 1)):
            if cand not in taken and is_prime(cand):
                taken.add(cand)
                out.append(cand)
                break
            cand -= step
        else:
            raise RuntimeError(f"no {bits}-bit NTT prime found for n={n}")
    return out


def gen_primes(bit_sizes: list[int], exclude: set[int] | None = None) -> list[int]:
    """Distinct primes of the given bit lengths (no NTT constraint).

    Used by the integer-RNS pipeline (Fig. 2/5), where moduli only need
    to be pairwise co-prime — they can be arbitrarily wide, unlike the
    NTT primes of the ciphertext chain.  Each prime is the largest below
    ``2**bits`` not yet taken.
    """
    taken: set[int] = set(exclude or ())
    out: list[int] = []
    for bits in bit_sizes:
        bits = int(bits)
        if bits < 3:
            raise ValueError(f"prime bit size must be >= 3, got {bits}")
        cand = (1 << bits) - 1
        while cand > (1 << (bits - 1)):
            if cand not in taken and is_prime(cand):
                taken.add(cand)
                out.append(cand)
                break
            cand -= 2 if cand % 2 else 1
        else:  # pragma: no cover - unreachable for bits >= 3
            raise RuntimeError(f"no {bits}-bit prime found")
    return out
