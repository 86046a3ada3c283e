"""Multiprecision negacyclic polynomial ring ``R_q = Z_q[X]/(X^n + 1)``.

This is the coefficient representation used by the **non-RNS** CKKS
baseline (the paper's "CNN-HE" models).  Coefficients are Python big
integers held in ``object`` ndarrays, exactly as a multi-precision
library would store them — the very representation whose cost the RNS
variant removes (§II: "the original implementation relies on a
multi-precision library, which leads to higher computational
complexity").

Polynomial multiplication uses **Kronecker substitution**: coefficients
are packed into one huge integer, multiplied with CPython's subquadratic
big-int multiplication, and unpacked by byte slicing.  This keeps the
baseline honest (genuinely multiprecision) while staying subquadratic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PolyRing"]


def _as_object_array(coeffs: np.ndarray | list[int], n: int) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=object)
    if arr.ndim < 1 or arr.shape[-1] != n:
        raise ValueError(f"expected {n} coefficients, got shape {arr.shape}")
    return arr


class PolyRing:
    """Arithmetic in ``Z_q[X]/(X^n + 1)`` with big-integer coefficients.

    Polynomials are ``object`` ndarrays whose trailing axis has length
    ``n`` and whose entries are canonically reduced to ``[0, q)``; the
    ring object carries the parameters and the packed-multiplication
    plan.  The coefficientwise operations (add/sub/neg, scalar multiply,
    centered lift, rounded division, modulus switch) accept stacks of
    polynomials — leading axes broadcast through — while Kronecker multiplication and automorphisms remain
    single-polynomial.
    """

    def __init__(self, n: int, q: int):
        if n < 2 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        self.n = int(n)
        self.q = int(q)
        # Slot width for Kronecker packing: coefficients of the 2n-1 term
        # product are sums of <= n products < q^2, so they fit in
        # 2*bits(q) + bits(n) bits; round up to whole bytes for slicing.
        slot_bits = 2 * self.q.bit_length() + self.n.bit_length() + 1
        self._slot_bytes = (slot_bits + 7) // 8

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
        """Negacyclic product via Kronecker substitution.

        ``O(M(n * log q))`` where ``M`` is big-int multiplication — the
        genuine multiprecision cost profile of a non-RNS implementation.
        """
        a = _as_object_array(a, self.n)
        b = _as_object_array(b, self.n)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("Kronecker multiplication is single-polynomial (1-D) only")
        sb = self._slot_bytes
        pa = self._pack(a, sb)
        pb = self._pack(b, sb)
        prod = pa * pb
        coeffs = self._unpack(prod, sb)
        # Negacyclic fold: X^n = -1 => r_k = c_k - c_{k+n}.
        low = coeffs[: self.n]
        high = np.zeros(self.n, dtype=object)
        high[: self.n - 1] = coeffs[self.n : 2 * self.n - 1]
        return np.mod(low - high, self.q)

    @staticmethod
    def _pack(coeffs: np.ndarray, slot_bytes: int) -> int:
        buf = bytearray(len(coeffs) * slot_bytes)
        for i, c in enumerate(coeffs):
            buf[i * slot_bytes : i * slot_bytes + slot_bytes] = int(c).to_bytes(
                slot_bytes, "little"
            )
        return int.from_bytes(bytes(buf), "little")

    def _unpack(self, big: int, slot_bytes: int) -> np.ndarray:
        total = 2 * self.n - 1
        raw = big.to_bytes(total * slot_bytes + slot_bytes, "little")
        out = np.empty(total, dtype=object)
        for k in range(total):
            out[k] = int.from_bytes(raw[k * slot_bytes : (k + 1) * slot_bytes], "little")
        return out

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
        """Galois map ``m(X) -> m(X^g)`` for odd *g* (negacyclic sign rule).

        Coefficient ``a_k`` moves to index ``g*k mod 2n``; indices >= n wrap
        with a sign flip because ``X^n = -1``.
        """
        g = int(g) % (2 * self.n)
        if g % 2 == 0:
            raise ValueError("Galois element must be odd")
        a = _as_object_array(a, self.n)
        if a.ndim != 1:
            raise ValueError("automorphism is single-polynomial (1-D) only")
        out = self.zero()
        for k in range(self.n):
            idx = (g * k) % (2 * self.n)
            if idx < self.n:
                out[idx] = (out[idx] + a[k]) % self.q
            else:
                out[idx - self.n] = (out[idx - self.n] - a[k]) % self.q
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolyRing(n={self.n}, log2(q)~{self.q.bit_length()})"
