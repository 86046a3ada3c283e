"""Chinese Remainder Theorem over pairwise co-prime moduli.

This is the mathematical heart of the paper's Fig. 2: a large integer
``x`` is represented by its residues ``(x mod q_1, ..., x mod q_k)``;
addition and multiplication act componentwise; :meth:`CrtBasis.compose`
recovers ``x mod Q`` with ``Q = prod(q_i)``.

Recomposition is **Garner's mixed-radix lifting**, fully vectorised over
NumPy ``int64`` arrays (see ``docs/KERNELS.md`` for the derivation):

1. the mixed-radix digits ``v_i in [0, q_i)`` with
   ``x = v_1 + v_2 q_1 + v_3 q_1 q_2 + ...`` are extracted with
   O(k^2) word-sized modular vector ops — no Python big integers;
2. the leading digits whose positional weights fit ``int64`` fold into
   one exact int64 Horner pass; only the (few) remaining digits touch
   Python-integer arithmetic, one multiply-add per digit, and **no**
   final ``mod Q`` is needed (mixed-radix values are canonical);
3. the signed variant decides ``x >= Q/2`` by comparing digit vectors
   against the precomputed digits of ``Q // 2`` — int64 comparisons,
   never big-int ones.

Decomposition and the componentwise ring operations stay in machine
words too: an integer array is reduced with one ``int64`` ``mod`` per
channel when every modulus fits 62 bits, and :meth:`CrtBasis.add` /
:meth:`CrtBasis.mul` run :func:`~repro.nt.modarith.addmod` /
:func:`~repro.nt.modarith.mulmod` per channel.  Wider moduli take the
exact object-dtype path; bases beyond the vectorised-arithmetic bound
(:data:`repro.nt.modarith.MAX_MODULUS_BITS`) compose with the classical
big-integer formula ``x = sum_i r_i * e_i mod Q``, kept as
:meth:`CrtBasis.compose_bigint` — which is also the oracle the property
tests check the Garner path against.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from repro.nt.modarith import MAX_MODULUS_BITS, addmod, mulmod, submod
from repro.obs.tracer import traced

__all__ = ["CrtBasis"]

#: Largest bit-width the exact int64 Horner fold of leading digits allows.
_INT64_SAFE_BITS = 62


class _GarnerTables:
    """Per-basis lift constants, built once and cached on the basis.

    ``weights[j] = q_1 * ... * q_j`` (with ``weights[0] = 1``) are the
    mixed-radix positional weights; ``prefix_mod[i][j] = weights[j] mod
    q_i`` and ``inv[i] = weights[i]^{-1} mod q_i`` drive the digit
    recurrence; ``split`` is the number of leading digits whose Horner
    fold provably stays below ``2**62``; ``half_digits`` are the
    mixed-radix digits of ``Q // 2`` used for signed centering.
    """

    __slots__ = (
        "moduli",
        "k",
        "modulus",
        "half",
        "vector_ok",
        "weights",
        "prefix_mod",
        "inv",
        "fused_ok",
        "split",
        "half_digits",
    )

    def __init__(self, moduli: list[int]):
        self.moduli = [int(m) for m in moduli]
        self.k = len(self.moduli)
        self.weights = [1]
        for m in self.moduli[:-1]:
            self.weights.append(self.weights[-1] * m)
        self.modulus = self.weights[-1] * self.moduli[-1]
        self.half = self.modulus // 2
        self.vector_ok = all(m.bit_length() <= MAX_MODULUS_BITS for m in self.moduli)
        if not self.vector_ok:
            return
        self.prefix_mod = [
            np.array([w % q for w in self.weights[: i + 1]], dtype=np.int64)
            for i, q in enumerate(self.moduli)
        ]
        self.inv = [1] + [
            pow(self.weights[i] % q, -1, q)
            for i, q in enumerate(self.moduli)
            if i > 0
        ]
        # fused_ok[i]: the whole Garner step for digit i fits raw int64
        # accumulation with a single trailing %, avoiding per-op where()
        # corrections.  Needs sum_j (q_j-1)(q_i-1) and (2q_i-1)*inv_i to
        # stay below 2**63 — always true for the paper's narrow chains.
        self.fused_ok = [False] + [
            q.bit_length() < 31
            and sum((qj - 1) * (q - 1) for qj in self.moduli[:i]).bit_length()
            <= _INT64_SAFE_BITS
            for i, q in enumerate(self.moduli)
            if i > 0
        ]
        split = 1
        while (
            split < self.k
            and (self.weights[split] * self.moduli[split]).bit_length()
            <= _INT64_SAFE_BITS
        ):
            split += 1
        self.split = split
        self.half_digits = [
            int((self.half // w) % q) for w, q in zip(self.weights, self.moduli)
        ]

    # -- digit extraction --------------------------------------------------

    def digits(self, residues: list[np.ndarray]) -> list[np.ndarray]:
        """Mixed-radix digits ``v_i in [0, q_i)`` of the encoded value.

        Garner's recurrence: ``v_i = (r_i - (v_1 + v_2 q_1 + ... )) *
        (q_1 ... q_{i-1})^{-1} mod q_i`` — every step an ``int64``
        vector op over the whole tensor.  Inputs are reduced mod
        ``q_i`` on entry, so unreduced or ``object``-dtype residues are
        accepted.
        """
        v: list[np.ndarray] = []
        for i, q in enumerate(self.moduli):
            r = np.asarray(residues[i])
            if r.dtype == object:
                r = np.mod(r, q).astype(np.int64)
            else:
                r = np.mod(r.astype(np.int64, copy=False), np.int64(q))
            if i == 0:
                v.append(r)
                continue
            pm = self.prefix_mod[i]
            if self.fused_ok[i]:
                # Raw int64 accumulation; the precomputed bound on
                # sum_j (q_j-1)(q_i-1) guarantees no overflow, so one
                # trailing % replaces per-op reduction entirely.
                acc = v[0].astype(np.int64, copy=True)
                for j in range(1, i):
                    acc += v[j] * np.int64(pm[j])
                t = acc % np.int64(q)
                v.append((r - t + np.int64(q)) * np.int64(self.inv[i]) % np.int64(q))
                continue
            t = np.mod(v[0], np.int64(q))
            for j in range(1, i):
                vj = np.mod(v[j], np.int64(q))
                t = addmod(t, mulmod(vj, np.int64(pm[j]), q), q)
            v.append(mulmod(submod(r, t, q), np.int64(self.inv[i]), q))
        return v

    # -- lifting -----------------------------------------------------------

    def _horner(self, digits: list[np.ndarray]) -> np.ndarray:
        """Exact int64 positional fold of the leading ``split`` digits."""
        acc = digits[-1].astype(np.int64, copy=True)
        for j in range(len(digits) - 2, -1, -1):
            acc *= np.int64(self.moduli[j])
            acc += digits[j]
        return acc

    def lift(self, v: list[np.ndarray], centered: bool) -> np.ndarray:
        """Positional sum of the digits: the exact value (optionally signed).

        The first ``split`` digits fold with an exact ``int64`` Horner
        pass.  For the signed variant the *magnitude* digits (mixed-radix
        complement for values above ``Q//2``) are folded instead, so any
        value with ``|x| < q_1 ... q_split`` — in practice every real
        CNN-RNS tensor, whose entries are tiny compared to ``Q`` — stays
        entirely in int64.  Only elements with nonzero tail digits touch
        Python-integer arithmetic, one multiply-add per tail digit, and
        no final ``mod Q`` is needed (mixed-radix values are canonical).
        """
        s = self.split
        if not centered:
            acc = self._horner(v[:s])
            if s == self.k:
                return acc
            big = np.zeros(np.asarray(v[0]).shape, dtype=bool)
            for j in range(s, self.k):
                big |= v[j] != 0
            if not big.any():
                return acc
            out = acc.astype(object)
            for j in range(s, self.k):
                out = out + v[j].astype(object) * self.weights[j]
            return out
        if s == self.k:
            acc = self._horner(v)
            return np.where(
                acc >= np.int64(self.half), acc - np.int64(self.modulus), acc
            )
        # low = x mod W_s.  Tail digits all zero  =>  x = low (positive,
        # < W_s <= Q/2).  Tail digits all maximal =>  x = low + Q - W_s
        # (negative), so x - Q = low - W_s — still exact int64.  Every
        # real CNN-RNS tensor (entries tiny vs Q) hits one of these.
        low = self._horner(v[:s])
        w_s = self.weights[s]
        pos_small = np.ones(low.shape, dtype=bool)
        neg_small = np.ones(low.shape, dtype=bool)
        for j in range(s, self.k):
            pos_small &= v[j] == 0
            neg_small &= v[j] == np.int64(self.moduli[j] - 1)
        if (pos_small | neg_small).all():
            return np.where(neg_small, low - np.int64(w_s), low)
        neg = self.ge_half(v)
        out = low.astype(object)
        for j in range(s, self.k):
            out = out + v[j].astype(object) * self.weights[j]
        return np.where(neg, out - self.modulus, out)

    def ge_half(self, v: list[np.ndarray]) -> np.ndarray:
        """``x >= Q//2`` decided digit-wise, most-significant first."""
        gt = np.zeros(np.asarray(v[0]).shape, dtype=bool)
        eq = np.ones_like(gt)
        for j in range(self.k - 1, -1, -1):
            h = np.int64(self.half_digits[j])
            gt |= eq & (v[j] > h)
            eq &= v[j] == h
        return gt | eq


class CrtBasis:
    """Precomputed CRT data for a fixed list of pairwise co-prime moduli."""

    def __init__(self, moduli: list[int]):
        moduli = [int(m) for m in moduli]
        if not moduli:
            raise ValueError("need at least one modulus")
        if any(m < 2 for m in moduli):
            raise ValueError("moduli must be >= 2")
        for i in range(len(moduli)):
            for j in range(i + 1, len(moduli)):
                if math.gcd(moduli[i], moduli[j]) != 1:
                    raise ValueError(
                        f"moduli {moduli[i]} and {moduli[j]} are not co-prime"
                    )
        self.moduli = moduli
        self.k = len(moduli)
        #: Dynamic range Q = prod(q_i).
        self.modulus = reduce(lambda a, b: a * b, moduli, 1)
        #: Q / q_i ("hat" values).
        self.hats = [self.modulus // m for m in moduli]
        #: (Q/q_i)^{-1} mod q_i.
        self.hat_invs = [pow(h, -1, m) for h, m in zip(self.hats, moduli)]
        #: Garner-free reconstruction coefficients e_i = hat_i * hat_inv_i mod Q.
        self.recomb = [h * hi % self.modulus for h, hi in zip(self.hats, self.hat_invs)]
        self._garner: _GarnerTables | None = None

    @property
    def garner(self) -> _GarnerTables:
        """Cached mixed-radix lift tables (built on first recomposition)."""
        if self._garner is None:
            self._garner = _GarnerTables(self.moduli)
        return self._garner

    # -- scalar / array decomposition -------------------------------------

    @traced("nt.crt.decompose")
    def decompose(self, x: np.ndarray | int) -> list[np.ndarray]:
        """Residues of the integer array *x* per modulus.

        Negative inputs are mapped to the canonical representative in
        ``[0, q_i)``; recomposition restores them via :meth:`compose_centered`.
        An ``int64``-castable array over moduli that fit 62 bits is reduced
        in ``int64``; anything else (Python big ints, wider moduli) takes
        the exact object path.  Raises :class:`TypeError` for float or
        complex input, or an object array holding a non-integer.
        """
        arr = np.asarray(x)
        if arr.dtype.kind in "fc" or (
            arr.dtype == object
            and not all(isinstance(v, (int, np.integer)) for v in arr.flat)
        ):
            raise TypeError(f"CRT decomposition needs integers, got dtype {arr.dtype}")
        word_sized = max(self.moduli).bit_length() <= _INT64_SAFE_BITS
        if arr.dtype != object and word_sized and np.can_cast(arr.dtype, np.int64):
            arr = arr.astype(np.int64, copy=False)
            return [np.mod(arr, np.int64(m)) for m in self.moduli]
        arr = arr.astype(object)
        out = []
        for m in self.moduli:
            res = np.mod(arr, m)
            out.append(res.astype(np.int64) if m.bit_length() <= _INT64_SAFE_BITS else res)
        return out

    @traced("nt.crt.compose")
    def compose(self, residues: list[np.ndarray]) -> np.ndarray:
        """Inverse of :meth:`decompose`: canonical value in ``[0, Q)``.

        Vectorised Garner lifting (see module docstring): ``O(k^2)``
        int64 vector ops for digit extraction, one exact int64 Horner
        fold, and one Python-int multiply-add per digit whose positional
        weight exceeds ``int64``.  Returns ``int64`` when ``Q`` fits 62
        bits, ``object`` (Python ints) otherwise.
        """
        self._check_channels(residues)
        g = self.garner
        if not g.vector_ok:
            return self.compose_bigint(residues)
        return g.lift(g.digits(residues), centered=False)

    def compose_centered(self, residues: list[np.ndarray]) -> np.ndarray:
        """Like :meth:`compose` but returns values in ``[-Q/2, Q/2)``.

        This is the representation needed to recover *signed* integers —
        e.g. negative convolution outputs in the paper's CNN-RNS layers.
        The sign decision compares mixed-radix digits against the digits
        of ``Q//2`` in int64, avoiding big-integer comparisons.
        """
        self._check_channels(residues)
        g = self.garner
        if not g.vector_ok:
            v = self.compose_bigint(residues)
            half = self.modulus // 2
            return np.where(v >= half, v - self.modulus, v)
        return g.lift(g.digits(residues), centered=True)

    def compose_bigint(self, residues: list[np.ndarray]) -> np.ndarray:
        """Classical big-integer CRT: ``sum_i r_i e_i mod Q`` (object dtype).

        Reference implementation: exact for any modulus width.  Used as
        the fallback for bases beyond the vectorised bound
        (:data:`repro.nt.modarith.MAX_MODULUS_BITS`) and as the oracle
        in ``tests/nt/test_crt.py`` property tests.
        """
        self._check_channels(residues)
        acc = np.zeros(np.asarray(residues[0]).shape, dtype=object)
        for res, e in zip(residues, self.recomb):
            acc = acc + np.asarray(res, dtype=object) * e
        return np.mod(acc, self.modulus)

    def _check_channels(self, residues: list[np.ndarray]) -> None:
        if len(residues) != self.k:
            raise ValueError(f"expected {self.k} residue channels, got {len(residues)}")

    # -- componentwise ring operations ------------------------------------

    def add(self, a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
        """Componentwise addition of canonical residues (Fig. 2 semantics)."""
        return self._componentwise(addmod, np.add, a, b)

    def mul(self, a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
        """Componentwise multiplication of canonical residues (Fig. 2 semantics)."""
        return self._componentwise(mulmod, np.multiply, a, b)

    def _componentwise(self, word_op, object_op, a, b) -> list[np.ndarray]:
        """``word_op`` per channel whose modulus fits ``MAX_MODULUS_BITS``,
        exact object arithmetic (``object_op`` then ``mod``) beyond it."""
        self._check_channels(a)
        self._check_channels(b)
        out = []
        for x, y, m in zip(a, b, self.moduli):
            if m.bit_length() <= MAX_MODULUS_BITS:
                r = word_op(np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64), m)
            else:
                r = np.mod(object_op(np.asarray(x, dtype=object), np.asarray(y, dtype=object)), m)
                r = r.astype(np.int64) if m.bit_length() <= _INT64_SAFE_BITS else r
            out.append(r)
        return out

    def __len__(self) -> int:
        return self.k

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CrtBasis(k={self.k}, log2(Q)~{self.modulus.bit_length()})"
