"""Negacyclic Number Theoretic Transform (NTT) as two exact GEMM passes.

The forward transform of a length-``n`` coefficient vector evaluates it
at the odd powers of a primitive ``2n``-th root of unity ``psi``, in
bit-reversed order::

    out[j] = sum_i a[i] * psi^(i * (2 rev(j) + 1))  mod p

— the output order of the merged-twiddle radix-2 loop of Longa &
Naehrig, which :mod:`repro.ckksrns` calls the evaluation domain.  Dyadic
products there are negacyclic convolutions of the coefficients; the
inverse undoes the transform.

Bailey's four-step split ``n = n1 * n2`` factors that ``n x n`` matrix.
With ``i = n2 i1 + i2`` and ``rev(j) = k1 + n1 k2``::

    out = sum_i2 psi^(2 n1 i2 k2) * sum_i1 psi^((n2 i1 + i2)(2 k1 + 1)) * a[n2 i1 + i2]

The inner sum is one ``n1 x n1`` matrix per ``i2`` — the negacyclic
twist and the inter-pass twiddles are folded into its entries — and the
outer sum one ``n2 x n2`` matrix shared by every ``k1``.  Bit reversal
is folded into the row order of both, so the only data movement is one
transposing load and one transposing store per row block.  Both passes
are integer matrix products mod ``p``, run by
:func:`repro.nt.kernels.limb_gemm` as exact float64 GEMMs.  The inverse
is the mirror image (``rev(j) = n2 k1 + k2``, ``i = i1 + n1 i2``) with
``n^-1`` folded into its first pass.  Each pass returns the canonical
residues of an exact linear map, so any exact NTT of the same ``psi``
produces the same bits (``docs/KERNELS.md``, "Four-step transforms as
exact GEMMs").
"""

from __future__ import annotations

import threading

import numpy as np

from repro.nt.kernels import NTT_BLOCK_ELEMS, LimbMatrix, compile_limb_matrix, limb_gemm
from repro.nt.modarith import mulmod
from repro.nt.primes import is_prime
from repro.obs.tracer import traced

__all__ = [
    "BatchedNttPlan",
    "NttPlan",
    "bit_reverse_permutation",
]

#: Widest first pass: its weights are ``n * n1`` entries, so ``n1`` stays
#: at 32 (a few MB per prime even at ``n = 2**14``).
_MAX_N1_BITS = 5


def bit_reverse_permutation(n: int) -> np.ndarray:
    """Index permutation reversing ``log2 n`` bits (n must be a power of 2)."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    logn = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(logn):
        rev |= ((idx >> b) & 1) << (logn - 1 - b)
    return rev


def _find_primitive_2n_root(p: int, n: int) -> int:
    """Smallest-witness primitive 2n-th root of unity modulo prime *p*.

    Requires ``p ≡ 1 (mod 2n)`` with ``n`` a power of two: then any
    ``c^((p-1)/2n)`` with ``psi^n ≡ -1`` has order exactly 2n.
    """
    if (p - 1) % (2 * n) != 0:
        raise ValueError(f"prime {p} is not ≡ 1 (mod {2 * n}); NTT of length {n} unavailable")
    exp = (p - 1) // (2 * n)
    for c in range(2, 10_000):
        psi = pow(c, exp, p)
        if pow(psi, n, p) == p - 1:
            return psi
    raise RuntimeError(f"no primitive 2n-th root found modulo {p}")  # pragma: no cover


class NttPlan:
    """Precomputed negacyclic NTT for one ``(n, prime)`` pair.

    Parameters
    ----------
    n:
        Transform length (ring degree), a power of two.
    p:
        NTT-friendly prime, ``p ≡ 1 (mod 2n)``.

    Notes
    -----
    The "evaluation domain" used throughout :mod:`repro.ckksrns` is the
    bit-reversed output order of :meth:`forward`; :meth:`inverse` undoes
    it.  ``forward(inverse(x)) == x`` and dyadic products in that domain
    equal negacyclic convolution in the coefficient domain.  The plan
    holds the four compiled pass matrices (forward and inverse, first
    and second pass), built by index arithmetic on one table of ``psi``
    powers; every transform of this ``(n, p)`` shares them.
    """

    def __init__(self, n: int, p: int):
        if n < 2 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.n = int(n)
        self.p = int(p)
        self.psi = _find_primitive_2n_root(self.p, self.n)
        self.n1 = 1 << min((self.n.bit_length() - 1) // 2, _MAX_N1_BITS)
        self.n2 = self.n // self.n1
        self._passes = self._compile_passes()

    def _power_table(self, base: int) -> np.ndarray:
        """``[base^0, base^1, ..., base^(n-1)] mod p`` by vectorised doubling.

        ``log2 n`` array multiplications instead of an O(n) Python loop:
        given the first ``m`` powers, the next ``m`` are those times
        ``base^m``.
        """
        out = np.empty(self.n, dtype=np.int64)
        out[0] = 1
        m = 1
        while m < self.n:
            step = np.int64(pow(base, m, self.p))
            out[m : 2 * m] = mulmod(out[:m], step, self.p)
            m *= 2
        return out

    def _compile_passes(self) -> dict[bool, tuple[LimbMatrix, LimbMatrix]]:
        """Forward and inverse pass matrices, ``psi`` exponents by index arithmetic.

        A first pass is ``(n2, n1, n1)``: slice ``s``, output row ``r``,
        input column ``c``.  A second pass is ``(n2, n2)``.
        """
        n, n1, n2, p = self.n, self.n1, self.n2, self.p
        powers = self._power_table(self.psi)
        psi_pow = np.concatenate([powers, p - powers])  # psi^e, e < 2n: psi^n = -1
        rev1, rev2 = bit_reverse_permutation(n1), bit_reverse_permutation(n2)
        s = np.arange(n2).reshape(-1, 1, 1)
        r = np.arange(n1).reshape(1, -1, 1)
        c = np.arange(n1).reshape(1, 1, -1)
        rows2 = np.arange(n2).reshape(-1, 1)
        cols2 = np.arange(n2).reshape(1, -1)
        exponents = {
            # s = i2, r = rev(k1), c = i1; then row rev(k2), column i2
            True: (
                (n2 * c + s) * (2 * rev1[r] + 1),
                2 * n1 * cols2 * rev2[rows2],
            ),
            # s = rev(k2), r = i1, c = rev(k1); then row i2, column rev(k2)
            False: (
                -r * (2 * (n2 * rev1[c] + rev2[s]) + 1),
                -n1 * rows2 * (2 * rev2[cols2] + 1),
            ),
        }
        passes = {}
        for forward, (e1, e2) in exponents.items():
            first = psi_pow[e1 & (2 * n - 1)]
            if not forward:
                first = mulmod(first, np.int64(pow(n, -1, p)), p)
            second = psi_pow[e2 & (2 * n - 1)]
            passes[forward] = tuple(
                compile_limb_matrix(t, residue_bits=p.bit_length()) for t in (first, second)
            )
        return passes

    # -- transforms ------------------------------------------------------

    def _transform(self, rows: np.ndarray, out: np.ndarray, forward: bool) -> None:
        """Transform the ``(R, n)`` *rows* into the C-contiguous ``(R, n)`` *out*.

        Row blocks of ``NTT_BLOCK_ELEMS`` residues: a transposing load
        into ``(n2, n1, rows)``, the per-slice first pass, the shared
        second pass over ``(n2, n1 * rows)``, a transposing store.
        Stateless on purpose: registry plans are shared across contexts
        and shard threads.
        """
        n1, n2, p = self.n1, self.n2, self.p
        first, second = self._passes[forward]
        # forward rows read as (i1, i2) and are written as (rev k1, rev k2);
        # inverse rows read as (rev k2, rev k1) and are written as (i2, i1)
        view, axes = ((n1, n2), (2, 1, 0)) if forward else ((n2, n1), (1, 2, 0))
        step = max(1, NTT_BLOCK_ELEMS // self.n)
        for start in range(0, rows.shape[0], step):
            block = rows[start : start + step]
            count = block.shape[0]
            mid = limb_gemm(block.reshape(count, *view).transpose(axes), first, p)
            res = limb_gemm(mid.reshape(n2, n1 * count), second, p)
            out[start : start + count].reshape(count, *view).transpose(axes)[...] = res.reshape(
                n2, n1, count
            )

    def _apply(self, a: np.ndarray, forward: bool) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if a.shape[-1] != self.n:
            raise ValueError(f"last axis must have length {self.n}, got {a.shape[-1]}")
        out = np.empty(a.shape, dtype=np.int64)
        self._transform(a.reshape(-1, self.n), out.reshape(-1, self.n), forward)
        return out

    @traced("nt.ntt.forward")
    def forward(self, a: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT along the last axis (returns a new array)."""
        return self._apply(a, True)

    @traced("nt.ntt.inverse")
    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT along the last axis (returns a new array)."""
        return self._apply(a, False)

    # -- convenience -----------------------------------------------------

    def negacyclic_convolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a * b mod (X^n + 1, p)`` via forward/dyadic/inverse."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(mulmod(fa, fb, self.p))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NttPlan(n={self.n}, p={self.p})"

    # -- shared registry -------------------------------------------------

    @classmethod
    def get(cls, n: int, p: int) -> "NttPlan":
        """The process-shared plan for ``(n, p)``, built at most once.

        Contexts, engines, batched plans and resilience executors all
        transform under the same ``(n, prime)`` pairs; the registry means
        the pass matrices are computed and held once per process instead
        of once per consumer or moduli tuple.  Fork-started worker
        processes inherit the registry populated so far for free.
        Thread-safe; a rare duplicate build under contention is
        discarded, never observed.
        """
        key = (int(n), int(p))
        plan = _PLAN_REGISTRY.get(key)
        if plan is not None:
            return plan
        plan = cls(n, p)
        with _PLAN_LOCK:
            return _PLAN_REGISTRY.setdefault(key, plan)


#: Process-global ``(n, p) -> NttPlan`` store behind :meth:`NttPlan.get`.
_PLAN_REGISTRY: dict[tuple[int, int], NttPlan] = {}
_PLAN_LOCK = threading.Lock()


class BatchedNttPlan:
    """NTT of a whole residue stack: every channel through its prime's plan.

    A CKKS-RNS polynomial is a ``(k, n)`` stack of channels.  Channel
    *i* runs the shared :class:`NttPlan` of ``(n, moduli[i])`` — one
    transform path for every modulus width — and a batched plan holds
    nothing but references to those, so moduli tuples that share primes
    (every level's prefix of the chain) share their pass matrices.

    Accepts stacks of shape ``(k, n)`` or ``(k, ..., n)`` (extra batch
    axes between channel and coefficient axes transform together).
    """

    def __init__(self, n: int, moduli: tuple[int, ...]):
        self.n = int(n)
        self.moduli = tuple(int(m) for m in moduli)
        self.plans = [NttPlan.get(self.n, m) for m in self.moduli]

    def _apply(self, stack: np.ndarray, forward: bool) -> np.ndarray:
        stack = np.asarray(stack, dtype=np.int64)
        k = len(self.moduli)
        if stack.shape[0] != k or stack.shape[-1] != self.n:
            raise ValueError(f"expected ({k}, ..., {self.n}) stack, got {stack.shape}")
        out = np.empty(stack.shape, dtype=np.int64)
        rows, dest = stack.reshape(k, -1, self.n), out.reshape(k, -1, self.n)
        for plan, x, o in zip(self.plans, rows, dest):
            plan._transform(x, o, forward)
        return out

    @traced("nt.ntt.batched.forward")
    def forward(self, stack: np.ndarray) -> np.ndarray:
        """Forward NTT of every channel (new array, input untouched)."""
        return self._apply(stack, True)

    @traced("nt.ntt.batched.inverse")
    def inverse(self, stack: np.ndarray) -> np.ndarray:
        """Inverse NTT of every channel (new array, input untouched)."""
        return self._apply(stack, False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchedNttPlan(n={self.n}, k={len(self.moduli)})"

    @classmethod
    def get(cls, n: int, moduli: tuple[int, ...]) -> "BatchedNttPlan":
        """The process-shared plan for ``(n, moduli)``, built at most once."""
        key = (int(n), tuple(int(m) for m in moduli))
        plan = _BATCHED_REGISTRY.get(key)
        if plan is not None:
            return plan
        plan = cls(n, key[1])
        with _PLAN_LOCK:
            return _BATCHED_REGISTRY.setdefault(key, plan)


#: Process-global ``(n, moduli) -> BatchedNttPlan`` store.
_BATCHED_REGISTRY: dict[tuple[int, tuple[int, ...]], BatchedNttPlan] = {}
