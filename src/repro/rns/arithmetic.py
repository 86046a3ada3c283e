"""Componentwise arithmetic on stacked residue tensors.

All functions take a residue stack of shape ``(k, ...)`` (as produced by
:func:`repro.rns.decompose.rns_decompose`) and apply the ring operation
channel by channel.  Channels are independent — exactly the property the
paper exploits for parallelism.  The place that runs channels concurrently
is the hybrid conv stage (:mod:`repro.henn.rnscnn`), through a
:mod:`repro.parallel` executor; these helpers loop serially.
"""

from __future__ import annotations

import numpy as np

from repro.nt.modarith import addmod, mulmod, negmod
from repro.rns.base import RnsBase

__all__ = ["channel_add", "channel_mul", "channel_neg", "channel_scalar_mul", "channel_matmul"]


def _check(a: np.ndarray, base: RnsBase) -> np.ndarray:
    a = np.asarray(a)
    if a.shape[0] != base.k:
        raise ValueError(f"expected {base.k} channels, got {a.shape[0]}")
    return a


def channel_add(a: np.ndarray, b: np.ndarray, base: RnsBase) -> np.ndarray:
    """``(a + b) mod q_i`` per channel."""
    a, b = _check(a, base), _check(b, base)
    return np.stack([addmod(a[i], b[i], m) for i, m in enumerate(base.moduli)])


def channel_mul(a: np.ndarray, b: np.ndarray, base: RnsBase) -> np.ndarray:
    """``(a * b) mod q_i`` per channel."""
    a, b = _check(a, base), _check(b, base)
    return np.stack([mulmod(a[i], b[i], m) for i, m in enumerate(base.moduli)])


def channel_neg(a: np.ndarray, base: RnsBase) -> np.ndarray:
    """``(-a) mod q_i`` per channel."""
    a = _check(a, base)
    return np.stack([negmod(a[i], m) for i, m in enumerate(base.moduli)])


def channel_scalar_mul(a: np.ndarray, c: int, base: RnsBase) -> np.ndarray:
    """Multiply every channel by the integer scalar *c* (reduced per modulus)."""
    a = _check(a, base)
    return np.stack(
        [mulmod(a[i], np.int64(int(c) % m), m) for i, m in enumerate(base.moduli)]
    )


def channel_matmul(a: np.ndarray, w: np.ndarray, base: RnsBase) -> np.ndarray:
    """Residue matrix product: per channel ``a[i] @ (w mod q_i) mod q_i``.

    *w* is a plain signed-integer matrix (e.g. quantised convolution
    weights); it is reduced into each channel's modulus on the fly.
    ``a[i]`` has shape ``(..., d)`` and *w* ``(d, e)``.

    The accumulation is performed in ``object`` precision when the
    channel modulus is too wide for exact int64 dot products; for narrow
    (< 2**26) moduli it uses the fast int64 path with periodic reduction.
    """
    a = _check(a, base)
    w = np.asarray(w)
    out = []
    for i, m in enumerate(base.moduli):
        wm = np.mod(w.astype(object), m).astype(np.int64)
        if 2 * m.bit_length() + int(np.log2(max(w.shape[0], 1)) + 1) <= 62:
            out.append((a[i].astype(np.int64) @ wm) % m)
        else:
            acc = a[i].astype(object) @ wm.astype(object)
            out.append(np.mod(acc, m).astype(np.int64))
    return np.stack(out)
