"""Canonical-embedding encoder/decoder (§II of the paper).

Real/complex vectors of length ``N/2`` are mapped through the canonical
embedding ``tau`` into real polynomials of degree < N, scaled by ``Δ``
and rounded to integer coefficients: ``m = [Δ · tau^{-1}(z)]``.

Slots are ordered along the orbit of 5 modulo 2N, so that the Galois
automorphism ``X -> X^{5^r}`` acts as a cyclic left-rotation by ``r``
slots (the ``Rot`` primitive) and ``X -> X^{-1}`` as complex
conjugation.  Both directions are computed with FFTs in O(N log N).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["CkksEncoder"]


class CkksEncoder:
    """Encode/decode between ``C^{N/2}`` slot vectors and integer polynomials."""

    def __init__(self, n: int):
        if n < 4 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 4, got {n}")
        self.n = int(n)
        self.slots = self.n // 2
        # Orbit of 5 mod 2n: logical slot j sits at primitive root
        # omega^{e_j} with e_j = 5^j mod 2n; natural FFT position is
        # t_j = (e_j - 1) / 2.
        two_n = 2 * self.n
        e = 1
        nat = np.empty(self.slots, dtype=np.int64)
        for j in range(self.slots):
            nat[j] = (e - 1) // 2
            e = (e * 5) % two_n
        self._nat_index = nat
        k = np.arange(self.n)
        self._omega_neg = np.exp(-1j * np.pi * k / self.n)  # omega^{-k}
        self._omega_pos = np.exp(1j * np.pi * k / self.n)  # omega^{+k}

    # -- core maps ---------------------------------------------------------

    def embed(self, values: np.ndarray) -> np.ndarray:
        """``tau^{-1}``: slot vector -> real coefficient vector (float64)."""
        return self.embed_many([values])[0]

    def embed_many(self, rows: "Sequence[np.ndarray]") -> np.ndarray:
        """``tau^{-1}`` of ``B`` slot vectors through one batched FFT.

        Returns ``(B, n)`` float64; row *i* is bit-identical to
        ``embed(rows[i])`` (the FFT runs per row either way).
        """
        v = np.zeros((len(rows), self.n), dtype=np.complex128)
        for i, row in enumerate(rows):
            row = np.asarray(row, dtype=np.complex128)
            if row.ndim != 1 or row.shape[0] > self.slots:
                raise ValueError(f"need a 1-D vector of at most {self.slots} slots")
            v[i, self._nat_index[: row.shape[0]]] = row
        s = np.fft.fft(v, axis=-1)  # S_k = sum_t v_t e^{-2 pi i t k / n}
        return (2.0 / self.n) * np.real(self._omega_neg * s)

    def project(self, coeffs_real: np.ndarray) -> np.ndarray:
        """``tau``: real coefficient vector -> slot vector (length N/2)."""
        coeffs_real = np.asarray(coeffs_real, dtype=np.float64)
        if coeffs_real.shape != (self.n,):
            raise ValueError(f"expected {self.n} coefficients")
        evals = self.n * np.fft.ifft(coeffs_real * self._omega_pos)
        return evals[self._nat_index]

    # -- scaled integer interface -------------------------------------------

    def encode(self, values: np.ndarray, scale: float) -> np.ndarray:
        """``[Δ · tau^{-1}(z)]`` as an ``object`` (big-int) coefficient array.

        Rounding is to nearest, ties to even.
        """
        return self.encode_many([values], scale)[0].astype(object)

    def encode_many(self, rows: "Sequence[np.ndarray]", scale: float) -> np.ndarray:
        """:meth:`encode` of ``B`` slot vectors as one ``(B, n)`` array.

        ``int64`` while every scaled coefficient stays below ``2**62``
        (``rint`` of a float64 of that size is an exact integer and the
        cast is lossless); one coefficient at or beyond it switches the
        whole batch to exact ``object`` big-ints.  Python's ``round``
        and ``np.rint`` both round half to even, so either way row *i*
        equals ``encode(rows[i], scale)``.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        real_coeffs = self.embed_many(rows) * float(scale)
        if np.max(np.abs(real_coeffs), initial=0.0) >= 2**62:
            # Stay exact beyond float64-int range.
            return np.array(
                [[int(round(c)) for c in row] for row in real_coeffs], dtype=object
            )
        return np.rint(real_coeffs).astype(np.int64)

    def decode(self, coeffs: np.ndarray, scale: float) -> np.ndarray:
        """Inverse of :meth:`encode` for *centered* integer coefficients."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        fc = np.array([float(int(c)) for c in coeffs], dtype=np.float64)
        return self.project(fc / float(scale))

    # -- diagnostics ---------------------------------------------------------

    def encoding_error(self, values: np.ndarray, scale: float) -> np.ndarray:
        """Per-slot absolute error of one encode/decode round trip.

        Reproduces the §III.C observation that small inputs near zero can
        be destroyed by rounding when ``Δ`` is small.
        """
        values = np.asarray(values, dtype=np.complex128)
        back = self.decode(self.encode(values, scale), scale)[: values.shape[0]]
        return np.abs(back - values)
