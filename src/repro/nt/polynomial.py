"""Multiprecision negacyclic polynomial ring ``R_q = Z_q[X]/(X^n + 1)``.

This is the coefficient representation used by the **non-RNS** CKKS
baseline (the paper's "CNN-HE" models).  Coefficients are Python big
integers held in ``object`` ndarrays, exactly as a multi-precision
library would store them — the very representation whose cost the RNS
variant removes (§II: "the original implementation relies on a
multi-precision library, which leads to higher computational
complexity").

The operands stay multiprecision; only the product goes through a
temporary CRT, as NTL's ``ZZX`` multiply (the substrate of HEAAN, the
paper's [8]) does at large degree: both centred operands are split over
enough 26-bit NTT primes to hold the exact integer product, multiplied
pointwise in the evaluation domain of :class:`~repro.nt.ntt.BatchedNttPlan`,
recomposed signed by :meth:`~repro.nt.crt.CrtBasis.compose_centered` and
reduced mod ``q``.  Rescale, modulus switch and the key switch's
division by ``P`` stay on Python big integers.
"""

from __future__ import annotations

import numpy as np

from repro.nt.crt import CrtBasis
from repro.nt.ntt import BatchedNttPlan
from repro.nt.primes import gen_ntt_primes

__all__ = ["PolyRing"]


def _as_object_array(coeffs: np.ndarray | list[int], n: int) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=object)
    if arr.ndim < 1 or arr.shape[-1] != n:
        raise ValueError(f"expected {n} coefficients, got shape {arr.shape}")
    return arr


def _galois_signed(coeffs: np.ndarray, g: int) -> np.ndarray:
    """Galois map ``m(X) -> m(X^g)`` on signed coefficients (no modulus).

    Coefficient ``a_k`` moves to index ``g*k mod 2n``; indices >= n wrap
    with a sign flip because ``X^n = -1``.  The dtype is kept.
    """
    n = coeffs.shape[0]
    idx = (g * np.arange(n, dtype=np.int64)) % (2 * n)
    out = np.zeros_like(coeffs)
    out[idx % n] = np.where(idx >= n, -coeffs, coeffs)
    return out


class PolyRing:
    """Arithmetic in ``Z_q[X]/(X^n + 1)`` with big-integer coefficients.

    Polynomials are ``object`` ndarrays whose trailing axis has length
    ``n`` and whose entries are canonically reduced to ``[0, q)``; the
    ring object carries the parameters and the product's CRT basis and
    NTT plan.  The coefficientwise operations (add/sub/neg, scalar
    multiply, centered lift, rounded division, modulus switch) accept
    stacks of polynomials — leading axes broadcast through — while
    multiplication and automorphisms remain single-polynomial.
    """

    def __init__(self, n: int, q: int):
        if n < 2 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        self.n = int(n)
        self.q = int(q)
        # A product coefficient of centred operands is a sum of n terms of
        # magnitude <= (q//2)^2, so below 2^(bits - 1); k = ceil(bits/25)
        # primes above 2^25 give Q > 2^bits, a signed range that holds it.
        bits = 2 * (self.q // 2).bit_length() + self.n.bit_length()
        self._basis = CrtBasis(gen_ntt_primes([26] * -(-bits // 25), self.n))
        self._ntt = BatchedNttPlan.get(self.n, tuple(self._basis.moduli))

    # -- constructors ------------------------------------------------------

    def zero(self) -> np.ndarray:
        return np.zeros(self.n, dtype=object)

    def from_coeffs(self, coeffs: np.ndarray | list[int]) -> np.ndarray:
        """Reduce arbitrary integer coefficients into canonical ``[0, q)``."""
        arr = np.asarray(coeffs, dtype=object)
        if arr.ndim < 1 or arr.shape[-1] != self.n:
            raise ValueError(f"expected {self.n} coefficients, got shape {arr.shape}")
        return np.mod(arr, self.q)

    def constant(self, c: int) -> np.ndarray:
        p = self.zero()
        p[0] = int(c) % self.q
        return p

    def random_uniform(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform element of ``R_q`` (used for public/evaluation keys)."""
        nbytes = (self.q.bit_length() + 7) // 8 + 8  # extra bytes: negligible bias
        raw = rng.bytes(self.n * nbytes)
        out = np.empty(self.n, dtype=object)
        for i in range(self.n):
            out[i] = int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") % self.q
        return out

    # -- linear operations ---------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.mod(_as_object_array(a, self.n) + _as_object_array(b, self.n), self.q)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.mod(_as_object_array(a, self.n) - _as_object_array(b, self.n), self.q)

    def neg(self, a: np.ndarray) -> np.ndarray:
        return np.mod(-_as_object_array(a, self.n), self.q)

    def scalar_mul(self, a: np.ndarray, c: int) -> np.ndarray:
        return np.mod(_as_object_array(a, self.n) * (int(c) % self.q), self.q)

    # -- multiplication ------------------------------------------------------

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product through a temporary CRT over NTT primes
        (:meth:`mul_many` of one pair)."""
        return self.mul_many([(a, b)])[0]

    def mul_many(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
        """Negacyclic products of several operand pairs.

        Each distinct operand — by identity, so pass the same array
        object where an operand recurs — is centred, decomposed and
        forward-transformed once, all of them in one stacked transform;
        the products are multiplied per channel, transformed back
        together, and each signed recomposition (the exact integer
        product) is reduced mod ``q``.  A ciphertext product's four
        pairs thus cost four forward transforms, not eight.
        """
        slots: dict[int, int] = {}
        operands = []
        for x in (x for pair in pairs for x in pair):
            if id(x) not in slots:
                slots[id(x)] = len(operands)
                operands.append(_as_object_array(x, self.n))
        if any(x.ndim != 1 for x in operands):
            raise ValueError("multiplication is single-polynomial (1-D) only")
        basis, ntt = self._basis, self._ntt
        spectra = ntt.forward(np.stack(basis.decompose(self.to_centered(np.stack(operands)))))
        left = spectra[:, [slots[id(a)] for a, _ in pairs]]
        right = spectra[:, [slots[id(b)] for _, b in pairs]]
        prod = ntt.inverse(np.stack(basis.mul(list(left), list(right))))
        return list(np.mod(basis.compose_centered(list(prod)).astype(object), self.q))

    # -- CKKS-specific helpers -------------------------------------------------

    def to_centered(self, a: np.ndarray) -> np.ndarray:
        """Map ``[0, q)`` representatives to ``[-q/2, q/2)`` (signed lift)."""
        a = _as_object_array(a, self.n)
        half = self.q // 2
        return np.where(a > half, a - self.q, a)

    def round_div(self, a: np.ndarray, divisor: int, new_q: int) -> np.ndarray:
        """Rounded division of the *centered* lift — the CKKS rescale core.

        Computes ``round(centered(a) / divisor) mod new_q`` coefficientwise
        (round half away from zero, matching ``[.]`` of §II).
        """
        if divisor <= 0:
            raise ValueError("divisor must be positive")
        c = self.to_centered(a)
        d = int(divisor)
        # Object-array floordiv keeps exact big-int semantics; the two
        # branches are the same round-half-away-from-zero formula as the
        # per-coefficient loop this replaced, evaluated over any leading axes.
        rounded = np.where(c >= 0, (2 * c + d) // (2 * d), -((-2 * c + d) // (2 * d)))
        return np.mod(rounded, int(new_q))

    def mod_switch(self, a: np.ndarray, new_q: int) -> np.ndarray:
        """Reduce the centered lift into a (smaller) modulus ``new_q``."""
        return np.mod(self.to_centered(a), int(new_q))

    def automorphism(self, a: np.ndarray, g: int) -> np.ndarray:
        """Galois map ``m(X) -> m(X^g)`` for odd *g*, reduced mod ``q``."""
        g = int(g) % (2 * self.n)
        if g % 2 == 0:
            raise ValueError("Galois element must be odd")
        a = _as_object_array(a, self.n)
        if a.ndim != 1:
            raise ValueError("automorphism is single-polynomial (1-D) only")
        return np.mod(_galois_signed(a, g), self.q)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolyRing(n={self.n}, log2(q)~{self.q.bit_length()})"
