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

from repro.nt.modarith import mulmod
from repro.rns.base import RnsBase

__all__ = ["channel_mul"]


def _check(a: np.ndarray, base: RnsBase) -> np.ndarray:
    a = np.asarray(a)
    if a.shape[0] != base.k:
        raise ValueError(f"expected {base.k} channels, got {a.shape[0]}")
    return a


def channel_mul(a: np.ndarray, b: np.ndarray, base: RnsBase) -> np.ndarray:
    """``(a * b) mod q_i`` per channel."""
    a, b = _check(a, base), _check(b, base)
    return np.stack([mulmod(a[i], b[i], m) for i, m in enumerate(base.moduli)])
