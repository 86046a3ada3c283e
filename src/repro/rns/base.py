"""RNS bases: co-prime moduli chains with CRT precomputation.

A :class:`RnsBase` is what the paper calls a "moduli chain": *k* pairwise
co-prime (here: prime) moduli whose product ``Q`` is the dynamic range.
It extends :class:`repro.nt.crt.CrtBasis` with NTT-friendliness metadata
and SEAL-style construction from bit lengths.

The inherited CRT machinery is what makes the chain cheap to use:
decomposition is one ``mod`` per channel, channel arithmetic is
word-sized int64, and composition is the vectorised Garner lift
documented in ``docs/KERNELS.md`` (O(k^2) int64 vector ops per
element, big-int work only for digits past the 62-bit Horner prefix).
"""

from __future__ import annotations

from repro.nt.crt import CrtBasis
from repro.nt.primes import gen_ntt_primes

__all__ = ["RnsBase"]


class RnsBase(CrtBasis):
    """A CRT basis whose moduli are NTT-friendly primes for degree *n*.

    Construct either from an explicit list of primes or, like the SEAL
    co-prime generation tool referenced in §VI.A, from a list of bit
    lengths via :meth:`from_bit_sizes`.

    Parameters
    ----------
    moduli:
        The chain's primes, pairwise co-prime.
    n:
        Ring degree the chain must support; when given, every modulus
        is checked for NTT-friendliness (``p ≡ 1 mod 2n``).  ``None``
        skips the check (pure-CRT uses, e.g. the Fig. 2 image path).
    """

    def __init__(self, moduli: list[int], n: int | None = None):
        super().__init__(moduli)
        self.n = n
        if n is not None:
            for m in self.moduli:
                if (m - 1) % (2 * n) != 0:
                    raise ValueError(
                        f"modulus {m} is not NTT-friendly for n={n} (p != 1 mod 2n)"
                    )

    @classmethod
    def from_bit_sizes(
        cls, bit_sizes: list[int], n: int, exclude: set[int] | None = None
    ) -> "RnsBase":
        """Build a base of distinct NTT primes with the given bit lengths.

        Parameters
        ----------
        bit_sizes:
            Desired bit length per modulus (Table II's "q" row).
        n:
            Ring degree; generated primes satisfy ``p ≡ 1 mod 2n``.
        exclude:
            Primes to skip (so disjoint bases — e.g. the special
            key-switching prime — never collide).

        Returns
        -------
        An :class:`RnsBase` over freshly generated distinct primes.
        """
        return cls(gen_ntt_primes(bit_sizes, n, exclude=exclude), n=n)

    @property
    def bit_sizes(self) -> list[int]:
        """Bit length of each modulus (the paper's Table II "q" row)."""
        return [m.bit_length() for m in self.moduli]

    @property
    def total_bits(self) -> int:
        """``log2 Q`` rounded up — the paper's Table II "log q" row."""
        return self.modulus.bit_length()

    def prefix(self, k: int) -> "RnsBase":
        """Sub-base of the first *k* moduli."""
        if not 1 <= k <= self.k:
            raise ValueError(f"k must be in [1, {self.k}], got {k}")
        return RnsBase(self.moduli[:k], n=self.n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RnsBase(k={self.k}, bits={self.bit_sizes}, n={self.n})"
