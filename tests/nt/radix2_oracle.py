"""Frozen oracle: the merged-twiddle radix-2 negacyclic NTT.

This is the stage loop :class:`repro.nt.ntt.NttPlan` ran before it
became two exact GEMM passes, kept verbatim in spirit: decimation-in-time
Cooley-Tukey forward (natural input, bit-reversed output) and
decimation-in-frequency Gentleman-Sande inverse, ``log2 n`` vectorised
butterfly sweeps.  Narrow moduli (< 2**31) multiply in int64 with lazy
butterfly reductions; wide ones recover ``floor(a*w/p)`` from a float64
Shoup ratio and correct the uint64 remainder.  Every path yields the
exact residues of plain ``(a*w) % p`` arithmetic, which is what the
differential tests in ``test_ntt.py`` hold the four-step transform to.
"""

from __future__ import annotations

import numpy as np

from repro.nt.modarith import NARROW_MODULUS_BITS, mulmod

__all__ = ["Radix2NttPlan", "primitive_2n_root"]


def _bit_reverse(n: int) -> np.ndarray:
    logn = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(logn):
        rev |= ((idx >> b) & 1) << (logn - 1 - b)
    return rev


def primitive_2n_root(p: int, n: int) -> int:
    """Smallest-witness ``psi`` with ``psi^n ≡ -1 (mod p)``."""
    exp = (p - 1) // (2 * n)
    for c in range(2, 10_000):
        psi = pow(c, exp, p)
        if pow(psi, n, p) == p - 1:
            return psi
    raise RuntimeError(f"no primitive 2n-th root found modulo {p}")


class Radix2NttPlan:
    """Radix-2 negacyclic NTT for one ``(n, p)``, along the last axis."""

    def __init__(self, n: int, p: int):
        self.n, self.p = int(n), int(p)
        psi = primitive_2n_root(self.p, self.n)
        rev = _bit_reverse(self.n)
        self._tw = self._power_table(psi)[rev]
        self._tw_inv = self._power_table(pow(psi, -1, self.p))[rev]
        self.n_inv = pow(self.n, -1, self.p)
        self._tw_f = self._tw / self.p
        self._tw_inv_f = self._tw_inv / self.p
        self._n_inv_f = self.n_inv / self.p
        stages = self.n.bit_length() - 1
        self._narrow = self.p < 1 << NARROW_MODULUS_BITS
        if self._narrow:
            self._lazy = (stages + 2) * self.p * self.p < 2**63
        else:
            self._lazy = (2 * stages + 1) * self.p < 2**51

    def _power_table(self, base: int) -> np.ndarray:
        out = np.empty(self.n, dtype=np.int64)
        out[0] = 1
        m = 1
        while m < self.n:
            out[m : 2 * m] = mulmod(out[:m], np.int64(pow(base, m, self.p)), self.p)
            m *= 2
        return out

    def _mul_const(self, a, w, wf, full: bool = True):
        p = self.p
        if self._narrow:
            return (a * w) % p
        q = (a * wf).astype(np.uint64)
        with np.errstate(over="ignore"):
            r = (
                a.astype(np.uint64) * np.asarray(w, dtype=np.int64).astype(np.uint64)
                - q * np.uint64(p)
            ).astype(np.int64)
        r = np.where(r < 0, r + p, r)
        if full:
            r = np.where(r >= p, r - p, r)
        return r

    def forward(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        shape = a.shape
        a = a.reshape(-1, self.n).copy()
        p, batch, t, m = self.p, a.shape[0], self.n, 1
        while m < self.n:
            t //= 2
            view = a.reshape(batch, m, 2 * t)
            left, right = view[:, :, :t], view[:, :, t:]
            w = self._tw[m : 2 * m].reshape(1, m, 1)
            wf = self._tw_f[m : 2 * m].reshape(1, m, 1)
            if self._lazy:
                v = self._mul_const(right, w, wf, full=False)
                view[:, :, t:] = left - v + (p if self._narrow else 2 * p)
                left += v
            else:
                v = self._mul_const(right, w, wf)
                s, d = left + v, left - v
                view[:, :, :t] = np.where(s >= p, s - p, s)
                view[:, :, t:] = np.where(d < 0, d + p, d)
            m *= 2
        if self._lazy:
            a %= p
        return a.reshape(shape)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        shape = a.shape
        a = a.reshape(-1, self.n).copy()
        p, batch, t, m = self.p, a.shape[0], 1, self.n // 2
        while m >= 1:
            view = a.reshape(batch, m, 2 * t)
            left, right = view[:, :, :t], view[:, :, t:]
            w = self._tw_inv[m : 2 * m].reshape(1, m, 1)
            wf = self._tw_inv_f[m : 2 * m].reshape(1, m, 1)
            s = left + right
            d = left - right + p
            v = self._mul_const(d, w, wf)
            view[:, :, :t] = np.where(s >= p, s - p, s)
            view[:, :, t:] = v
            t *= 2
            m //= 2
        a = self._mul_const(a, np.int64(self.n_inv), self._n_inv_f)
        return a.reshape(shape)
