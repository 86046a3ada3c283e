"""Hybrid key switching: ModUp, the key inner product, ModDown.

With α special primes ``P = p_0 ⋯ p_{α-1}`` the chain is grouped α
primes at a time, ``Q_g = q_{gα} ⋯ q_{gα+α-1}`` (last group partial),
and digit *g* of ``x`` is ``D_g(x) = [x * (Q_top/Q_g)^{-1}]_{Q_g}``;
the key for digit *g* encodes ``P * (Q_top/Q_g) * s'``.  Reconstruction
``sum_g D_g(x) * (Q_top/Q_g) ≡ x (mod q_i)`` holds for every active
channel *i*, at every level (a group is cut to its active primes),
because each omitted factor contains ``q_i``.  A switch runs three
stages:

* :meth:`HybridKeySwitch.mod_up` raises each digit to the other active
  primes and the specials by one exact centered base conversion and
  transforms the raised digits forward;
* :meth:`HybridKeySwitch.inner` takes the digit-wise product with the
  key in the evaluation domain, into a ``Q·P`` accumulator;
* :meth:`HybridKeySwitch.mod_down` divides the special channels out
  exactly (:func:`divide_exact`, the kernel of the rescale too),
  leaving noise ``≈ ⌈k/α⌉ * Q_g * e / P``.

α = 1 is the classic one-digit-per-prime gadget.  See docs/KERNELS.md
"Hybrid key switching".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ckks.sampling import sample_gaussian
from repro.nt.crt import CrtBasis
from repro.nt.modarith import addmod, mulmod, submod
from repro.nt.ntt import BatchedNttPlan
from repro.obs.tracer import traced
from repro.rns.convert import approx_base_convert

__all__ = ["KEYSWITCH_CHUNK_ELEMS", "HybridKeySwitch", "SwitchKey", "divide_exact"]

#: Batch-axis chunk budget of :meth:`HybridKeySwitch.switch`, in elements
#: of the ``(k+α, D, B_chunk, ..., n)`` raised-digit tensor (int64).
#: 1 << 21 elements = 16 MB keeps the decomposition temporaries
#: cache-friendly; large position batches otherwise scale super-linearly
#: (measured ~2x worse than linear at 16x the positions unchunked).
#: Latency is flat from 2^18 to 2^22 (docs/PERFORMANCE.md), so this is a
#: constant, not a knob; chunking never changes a result bit.
KEYSWITCH_CHUNK_ELEMS = 1 << 21


@dataclass
class SwitchKey:
    """Grouped-digit key switching ``s' -> s`` (NTT domain).

    ``b[g], a[g]`` (each ``(k_top + α, n)``) encode ``P * (Q_top/Q_g) * s'``
    for digit *g* — one digit per group of α ciphertext moduli, ``P``
    the product of the α special primes.  ``s'`` is ``s²`` or ``s³``
    for relinearisation and ``s(X^g)`` for a Galois key.  A switch at a
    lower level uses the leading ``⌈k/α⌉`` digits.
    """

    b: np.ndarray  # (digits, k_top + α, n)
    a: np.ndarray


def divide_exact(
    comps: list[np.ndarray],
    keep: list[int],
    drop: CrtBasis,
    inv: np.ndarray,
    *,
    ntt: bool = True,
) -> list[np.ndarray]:
    """Exact division of every component by the product ``D`` of its trailing channels.

    Each component is a ``(len(keep) + drop.k, ..., n)`` stack over the
    moduli *keep* then *drop*; the result is ``(c − lift([c]_D)) · D⁻¹``
    over *keep*, where ``inv[i] = D⁻¹ mod keep[i]`` and the lift is the
    centered representative (:func:`~repro.rns.convert.approx_base_convert`).
    ModDown calls it with the α special primes, the rescale with
    ``q_last``.

    With *ntt* the components are in the evaluation domain and only
    the dropped channels leave it: their lift is transformed forward
    under the kept moduli and subtracted there.  The NTT is a ring
    isomorphism, so this is bit-identical to the whole coefficient-
    domain round trip at one ``drop.k``-channel inverse instead of
    ``len(keep) + drop.k`` (see docs/KERNELS.md).  Without *ntt* the
    components are in coefficient form and no transform runs.
    """
    k, n = len(keep), comps[0].shape[-1]
    dropped = np.stack([c[k:] for c in comps], axis=1)  # (drop.k, C, ..., n)
    if ntt:
        dropped = BatchedNttPlan.get(n, tuple(drop.moduli)).inverse(dropped)
    lift = approx_base_convert(dropped, drop, keep)
    if ntt:
        lift = BatchedNttPlan.get(n, tuple(keep)).forward(lift)
    out = [np.empty((k,) + c.shape[1:], dtype=np.int64) for c in comps]
    for i, m in enumerate(keep):
        for o, c, low in zip(out, comps, lift[i]):
            o[i] = mulmod(submod(c[i], low, m), inv[i], m)
    return out


class HybridKeySwitch:
    """The digit tables of one chain and the three stages of a switch.

    Every stage is shape-generic over batch axes between channel and
    coefficient, so a ``(k, B, n)`` switch is *B* switches, each computed
    exactly as alone.

    Parameters
    ----------
    n:
        Ring degree.
    moduli:
        The ciphertext chain ``q_0 .. q_top``.
    special_moduli:
        The α special primes.
    """

    def __init__(self, n: int, moduli: list[int], special_moduli: list[int]):
        self.n = n
        self.moduli = list(moduli)
        self.special_moduli = list(special_moduli)
        self.special = CrtBasis(self.special_moduli)
        self.alpha = alpha = len(special_moduli)
        ext = self.moduli + self.special_moduli
        # Digit groups: α chain primes each (last one partial), Q_g their
        # product at the top level and hat_g = Q_top / Q_g.
        q_top = math.prod(self.moduli)
        group_hats = [
            q_top // math.prod(self.moduli[s : s + alpha])
            for s in range(0, len(self.moduli), alpha)
        ]
        #: digit_hat_inv[i] = hat_g^{-1} mod q_i for the group g holding q_i
        self.digit_hat_inv = [
            pow(group_hats[i // alpha], -1, m) for i, m in enumerate(self.moduli)
        ]
        #: factor_table[g][i] = (P * hat_g) mod ext[i]
        self.factor_table = [
            np.array([(self.special.modulus * hg) % m for m in ext], dtype=np.int64)
            for hg in group_hats
        ]
        #: p_inv[i] = P^{-1} mod q_i, the ModDown's divisor
        self.p_inv = np.array(
            [pow(self.special.modulus % m, -1, m) for m in self.moduli], dtype=np.int64
        )
        #: groups[k] = the groups cut to k active primes, each ``(own
        #: channels, their base, rows of the (k+α)-row raised stack the
        #: digit is raised to)``.
        self.groups: dict[int, list[tuple[range, CrtBasis, list[int]]]] = {
            k: [
                (
                    own,
                    CrtBasis(self.moduli[own.start : own.stop]),
                    [t for t in range(k + alpha) if t not in own],
                )
                for own in (range(s, min(s + alpha, k)) for s in range(0, k, alpha))
            ]
            for k in range(1, len(self.moduli) + 1)
        }

    def digits(self, level: int) -> int:
        """Active digits of one source polynomial at *level*: ``⌈k/α⌉``."""
        return len(self.groups[level + 1])

    def gen_key(
        self,
        s_ext: np.ndarray,
        target_ext: np.ndarray,
        rng: np.random.Generator,
        sigma: float,
    ) -> SwitchKey:
        """Digit keys encoding ``P * hat_g * target`` under ``s`` (NTT domain)."""
        ext = self.moduli + self.special_moduli
        forward = BatchedNttPlan.get(self.n, tuple(ext)).forward
        digits_b, digits_a = [], []
        for factors in self.factor_table:
            a_j = np.stack([rng.integers(0, m, size=self.n, dtype=np.int64) for m in ext])
            noise = sample_gaussian(self.n, rng, sigma)
            e_j = forward(np.stack([np.mod(noise, np.int64(m)) for m in ext]))
            rows_b = []
            for i, m in enumerate(ext):
                t = mulmod(target_ext[i], factors[i], m)
                t = addmod(t, e_j[i], m)
                t = submod(t, mulmod(a_j[i], s_ext[i], m), m)
                rows_b.append(t)
            digits_b.append(np.stack(rows_b))
            digits_a.append(a_j)
        return SwitchKey(b=np.stack(digits_b), a=np.stack(digits_a))

    def mod_up(self, x_coeff: np.ndarray, level: int) -> np.ndarray:
        """ModUp: the ``(k+α, D, ..., n)`` raised digit tensor, evaluation domain.

        ``x_coeff`` is ``(p·k, ..., n)`` in coefficient form: *p* source
        polynomials stacked along the leading axis, row ``s·k + i`` being
        channel *i* of source *s*; digit ``s·G + g`` of the result is
        digit *g* of source *s*.  Digit *g* of a source is
        ``[x * hat_g^{-1}]_{Q_g}`` over the group's active primes: on its
        own channels that is just ``x_i * hat_g^{-1} mod q_i``; every
        other active prime and the α specials get the residue of its
        centered representative through one exact base conversion (with
        α = 1, the centered lift ``d - q·[d > q/2]``).  All digits go
        through one batched forward transform.
        """
        k = level + 1
        groups = self.groups[k]
        ext = self.moduli[:k] + self.special_moduli
        batch = x_coeff.shape[1:]
        x = x_coeff.reshape((-1, k) + batch)  # (p, k, ..., n)
        lifted = np.empty((len(ext), x.shape[0], len(groups)) + batch, dtype=np.int64)
        for g, (own, base, dst) in enumerate(groups):
            for i in own:
                lifted[i, :, g] = mulmod(
                    x[:, i], np.int64(self.digit_hat_inv[i]), self.moduli[i]
                )
            approx_base_convert(
                [lifted[i, :, g] for i in own],
                base,
                [ext[t] for t in dst],
                out=[lifted[t, :, g] for t in dst],
            )
        raised = lifted.reshape((len(ext), -1) + batch)
        return BatchedNttPlan.get(self.n, tuple(ext)).forward(raised)

    def inner(
        self, raised: np.ndarray, kb: np.ndarray, ka: np.ndarray, level: int
    ) -> list[np.ndarray]:
        """Key inner product: the ``Q·P`` accumulator ``[Σ_d raised_d·b_d, Σ_d raised_d·a_d]``.

        ``raised`` is a ``(k+α, D, ..., n)`` :meth:`mod_up` result, the
        keys ``(D, k_top+α, ..., n)`` pre-sliced to the active digit rows.
        The keys' axes between channel and coefficient align with the
        trailing batch axes of ``raised`` and broadcast over the leading
        ones it lacks: a hoisted rotation stacks one key per step
        against the permuted copies of one raised stack.  Returns two
        ``(k+α, ..., n)`` stacks.
        """
        k = level + 1
        ext = self.moduli[:k] + self.special_moduli
        d_rows = kb.shape[0]
        pad = (1,) * (raised.ndim - kb.ndim)
        acc = [np.empty((len(ext),) + raised.shape[2:], dtype=np.int64) for _ in range(2)]
        for i, m in enumerate(ext):
            key_idx = i if i < k else len(self.moduli) + i - k
            for out, key in zip(acc, (kb, ka)):
                row = key[:, key_idx].reshape((d_rows,) + pad + key.shape[2:])
                if d_rows * m * m < 2**63:
                    # Narrow modulus: raw products fit int64 even summed
                    # over all D digits, so skip the per-product
                    # reduction and fold one modulo at the end — exact,
                    # same ints as the reduced path.
                    out[i] = np.multiply(raised[i], row, dtype=np.int64).sum(axis=0) % m
                else:
                    out[i] = mulmod(raised[i], row, m).sum(axis=0) % m
        return acc

    def mod_down(self, acc: list[np.ndarray], level: int) -> list[np.ndarray]:
        """ModDown: both accumulator stacks divided by ``P`` (:func:`divide_exact`)."""
        return divide_exact(acc, self.moduli[: level + 1], self.special, self.p_inv)

    @traced("ckksrns.keyswitch")
    def switch(
        self, x_coeff: np.ndarray, kb: np.ndarray, ka: np.ndarray, level: int
    ) -> list[np.ndarray]:
        """Whole key switch of a coefficient-domain stack; returns two eval stacks.

        ``x_coeff`` and the keys are as :meth:`mod_up` and :meth:`inner`
        take them: *p* stacked sources against ``(p·G, k_top+α, n)`` keys,
        row ``s·G + g`` — the merged s²/s³ sweep of degree-3
        relinearisation shares one transform sweep and one ModDown.

        Large batches are processed in batch-axis chunks of
        :data:`KEYSWITCH_CHUNK_ELEMS` raised-digit elements: unchunked,
        a batch of many positions would allocate hundreds of MB of
        temporaries and fall out of cache.  Chunking only splits the
        batch axis, so results stay bit-identical.
        """
        if x_coeff.ndim >= 3:
            per_b = (level + 1 + self.alpha) * kb.shape[0] * int(np.prod(x_coeff.shape[2:]))
            b = x_coeff.shape[1]
            chunk = max(1, KEYSWITCH_CHUNK_ELEMS // per_b) if per_b else b
            if b > chunk:
                parts = [
                    self.switch(x_coeff[:, s : s + chunk], kb, ka, level)
                    for s in range(0, b, chunk)
                ]
                return [np.concatenate(p, axis=1) for p in zip(*parts)]
        return self.mod_down(self.inner(self.mod_up(x_coeff, level), kb, ka, level), level)
