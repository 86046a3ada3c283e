"""Base conversion between RNS bases.

:func:`approx_base_convert` is the fast basis conversion of the full-RNS
CKKS paper [9]: residues over a base ``Q`` become residues over other
moduli up to a small multiple of ``Q`` (the well-known ``v``-overflow),
which a float estimate of ``v`` removes — leaving the **centered**
representative.  It is the one base-conversion implementation in the
repo: hybrid key switching (:mod:`repro.ckksrns.keyswitch`) raises every
digit group (ModUp) and divides the special primes out (ModDown)
through it, and the rescale lifts its dropped prime with it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nt.modarith import mulmod
from repro.nt.crt import CrtBasis

__all__ = ["approx_base_convert"]

#: Raw int64 accumulation budget: partial sums stay below this, leaving
#: one bit for the overflow-correction term subtracted at the end.
_ACC_LIMIT = 1 << 62


def approx_base_convert(
    channels: np.ndarray,
    src: CrtBasis,
    dst: "CrtBasis | Sequence[int]",
    *,
    correct_overflow: bool = True,
    out: Sequence[np.ndarray] | None = None,
) -> np.ndarray | None:
    """Fast basis conversion ``Conv_{Q->P}(x)`` of [9], vectorised.

    Computes ``sum_i [x_i * (Q/q_i)^{-1}]_{q_i} * (Q/q_i) mod p_j`` for
    every destination modulus ``p_j``.  Without correction the result
    represents ``x + v*Q`` for ``0 <= v < k``; with ``correct_overflow``
    the overflow count ``v = round(sum_i y_i / q_i)`` is taken in
    float64 and subtracted, so the result is the residue of the centered
    representative ``x_c in (-Q/2, Q/2]``.  The float sum carries about
    ``k * 2**-53`` of error, so ``v`` can only be off (by one, i.e. the
    result by one ``Q``) for ``|x_c|`` within ``k * 2**-52 * Q`` of
    ``Q/2``.  A single-prime source skips the estimate: its centered
    representative is the lift ``x − q·[x > q//2]``, exact.

    Parameters
    ----------
    channels:
        ``(src.k, ...)`` residues (an array, or one array per source
        modulus), reduced per source modulus.
    src:
        Source base.
    dst:
        Destination moduli (a base or a plain list).
    out:
        Optional per-destination arrays to write into (e.g. rows of a
        preallocated digit tensor); the function then returns ``None``.

    Any mix of widths is handled: products that provably fit int64 are
    accumulated raw and reduced once, everything else is reduced into
    ``[0, p_j)`` first and goes through :func:`~repro.nt.modarith.mulmod`.
    """
    if len(channels) != src.k:
        raise ValueError(f"expected {src.k} source channels, got {len(channels)}")
    dst_moduli = [int(p) for p in getattr(dst, "moduli", dst)]
    if src.k == 1 and correct_overflow:
        q = src.moduli[0]
        lifted = np.where(channels[0] > q // 2, channels[0] - q, channels[0])
        rows = [
            np.mod(lifted, np.int64(p), out=None if out is None else out[j])
            for j, p in enumerate(dst_moduli)
        ]
        return None if out is not None else np.stack(rows)
    # y_i = [x_i * hat_inv_i]_{q_i}
    ys = [
        channels[i] if src.hat_invs[i] == 1
        else mulmod(channels[i], np.int64(src.hat_invs[i]), src.moduli[i])
        for i in range(src.k)
    ]
    v = None
    if correct_overflow:
        frac = ys[0] / float(src.moduli[0])
        for y, q in zip(ys[1:], src.moduli[1:]):
            frac += y / float(q)
        v = np.rint(frac).astype(np.int64)
    rows = []
    for j, pj in enumerate(dst_moduli):
        acc, bound = None, 0
        for y, q, hat in zip(ys, src.moduli, src.hats):
            c = hat % pj
            if q * pj < _ACC_LIMIT:
                term, term_bound = y * np.int64(c), q * pj
            else:
                # mulmod needs operands below p_j: a wide source residue
                # is reduced into a narrow destination first.
                term = mulmod(y % pj if q > pj else y, np.int64(c), pj)
                term_bound = pj
            if acc is None:
                acc = term
            else:
                if bound + term_bound >= _ACC_LIMIT:
                    acc %= pj
                    bound = pj
                acc += term
            bound += term_bound
        if v is not None:
            # |v| <= k/2 + 1, so the correction is below (k + 1) * p_j.
            if bound + (src.k + 1) * pj >= _ACC_LIMIT:
                acc %= pj
            acc = acc - v * np.int64(src.modulus % pj)
        if out is not None:
            np.mod(acc, pj, out=out[j])
        else:
            rows.append(acc % pj)
    return None if out is not None else np.stack(rows)
