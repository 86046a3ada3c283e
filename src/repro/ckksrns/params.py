"""Parameter set for the full-RNS CKKS scheme.

Mirrors the paper's Table II: a chain of NTT-friendly primes whose bit
lengths are given explicitly (e.g. ``[40, 26, ..., 26]``), a scaling
factor ``Δ = 2^scale_bits``, plus α *special* primes used only inside
key switching — α is also the width of a key-switching digit (hybrid
key switching, docs/KERNELS.md), so one number sets both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ckks.sampling import DEFAULT_SIGMA

__all__ = ["CkksRnsParams", "SPECIAL_MARGIN_BITS"]

#: ``sum(special bits)`` must reach the widest digit group's bit budget
#: plus this margin.  0 = "P at least as wide as the widest digit Q_g":
#: the key-switch noise ``⌈k/α⌉·n·σ·Q_g/(2P)`` then sits at the level of
#: the ModDown rounding term it is added to (docs/KERNELS.md).
SPECIAL_MARGIN_BITS = 0


@dataclass(frozen=True)
class CkksRnsParams:
    """CKKS-RNS parameters.

    Parameters
    ----------
    n:
        Ring degree (power of two); ``N/2`` slots.
    moduli_bits:
        Bit lengths of the ciphertext moduli chain ``[q_0, q_1, ..., q_L]``
        — the paper's "moduli chain length" is ``len(moduli_bits)``.
        ``q_0`` is the base (never dropped); rescaling drops from the end.
    scale_bits:
        ``log2 Δ``.  Middle primes are usually chosen at this size so one
        rescale divides by ≈ Δ.
    special_bits:
        Bit length of the key-switching special prime — or a tuple, one
        length per special prime.  Their number α is also the digit
        width: chain primes are grouped α at a time and every group is
        switched as one digit (α = 1, an int, is the one-prime-per-digit
        gadget).  The special primes together must cover the widest
        group, see :data:`SPECIAL_MARGIN_BITS`.
    hw:
        Secret-key Hamming weight (chi_key = HW(h)).
    sigma:
        Error standard deviation (chi_err).
    """

    n: int = 2**12
    moduli_bits: tuple[int, ...] = (40, 26, 26, 26, 26, 26, 26)
    scale_bits: int = 26
    special_bits: int | tuple[int, ...] = 49
    hw: int = 64
    sigma: float = DEFAULT_SIGMA

    def __post_init__(self) -> None:
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two >= 8")
        if len(self.moduli_bits) < 1:
            raise ValueError("need at least one ciphertext modulus")
        if any(not 18 <= b <= 50 for b in self.moduli_bits):
            raise ValueError("modulus bit sizes must be in [18, 50]")
        special = self.special_moduli_bits
        if not special or any(not 18 <= b <= 50 for b in special):
            raise ValueError("special prime bits must be in [18, 50]")
        alpha = len(special)
        for start in range(0, len(self.moduli_bits), alpha):
            group = self.moduli_bits[start : start + alpha]
            if sum(group) + SPECIAL_MARGIN_BITS > sum(special):
                raise ValueError(
                    f"special primes {special} ({sum(special)} bits) do not cover digit "
                    f"group {start // alpha} = chain primes [{start}, {start + len(group)}) "
                    f"of {sum(group)} bits + {SPECIAL_MARGIN_BITS} margin "
                    "(key-switching noise control)"
                )

    @property
    def chain_length(self) -> int:
        """Number of ciphertext moduli (the paper's "moduli chain length")."""
        return len(self.moduli_bits)

    @property
    def levels(self) -> int:
        """Maximum multiplicative depth L = chain_length - 1."""
        return self.chain_length - 1

    @property
    def scale(self) -> float:
        """Plaintext scale Δ = 2^scale_bits."""
        return float(1 << self.scale_bits)

    @property
    def special_moduli_bits(self) -> tuple[int, ...]:
        """Bit length of each special prime (``special_bits`` as a tuple)."""
        if isinstance(self.special_bits, int):
            return (self.special_bits,)
        return tuple(self.special_bits)

    @property
    def log_q(self) -> int:
        """Approximate total modulus bits (Table II 'log q')."""
        return sum(self.moduli_bits)

    @property
    def log_qp(self) -> int:
        """Chain plus every special prime — what the HE standard bounds."""
        return self.log_q + sum(self.special_moduli_bits)

    @classmethod
    def paper_table2(cls, n: int = 2**14) -> "CkksRnsParams":
        """The paper's Table II setting: q = [40, 26, ..., 26, 40].

        N = 2^14, Δ = 2^26, log q = 366 = 40 + 11*26 + 40 (13 primes),
        λ = 128 per the HE standard: the 438-bit budget at N = 2^14
        covers log q plus the paper's single 50-bit key-switching prime
        (log qP = 416).  The budget has room for 72 special bits, i.e.
        two 36-bit primes (α = 2); the paper's setting is kept as is.
        """
        return cls(
            n=n,
            moduli_bits=(40,) + (26,) * 11 + (40,),
            scale_bits=26,
            special_bits=50,
            hw=64,
        )
