"""Residue decomposition of integer tensors (paper Fig. 2 / Fig. 5).

The CNN-RNS architectures decompose the (scaled-integer) input image into
one residue tensor per modulus; convolution then acts on each channel
independently — they "can be processed independently in parallel" — and
the channels are recombined by CRT after the convolutional stage.

Functions here operate on whole NumPy tensors at once: the residue stack
has shape ``(k, *x.shape)`` and stays in ``int64`` whenever the moduli
allow it (they always do for the paper's <= 60-bit chains).

Recomposition delegates to :meth:`repro.nt.crt.CrtBasis.compose`, whose
Garner mixed-radix lift runs in O(k^2) word-sized vector operations
with at most a handful of big-int multiply-adds per element — the
derivation and the measured ~10x over the classical big-int CRT sum
are in ``docs/KERNELS.md``.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import traced
from repro.rns.base import RnsBase

__all__ = ["rns_decompose", "rns_recompose_signed"]


@traced("rns.decompose")
def rns_decompose(x: np.ndarray, base: RnsBase) -> np.ndarray:
    """Decompose an integer tensor into residue channels.

    Parameters
    ----------
    x:
        Integer tensor (any shape).  Signed values are allowed as long as
        ``|x| < Q/2``; they are stored as canonical residues and recovered
        by :func:`rns_recompose_signed`.
    base:
        The moduli chain.

    Returns
    -------
    ``int64`` array of shape ``(k, *x.shape)`` — channel *i* holds
    ``x mod q_i``.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer) and x.dtype != object:
        raise TypeError(f"rns_decompose needs an integer tensor, got dtype {x.dtype}")
    chans = []
    for m in base.moduli:
        if x.dtype == object:
            chans.append(np.mod(x, m).astype(np.int64))
        else:
            chans.append(np.mod(x.astype(np.int64, copy=False), np.int64(m)))
    return np.stack(chans, axis=0)


@traced("rns.recompose_signed")
def rns_recompose_signed(channels: np.ndarray, base: RnsBase) -> np.ndarray:
    """CRT recomposition to signed values in ``[-Q/2, Q/2)``.

    The CNN-RNS pipeline recomposes with it after convolution, where
    outputs may be negative.

    Parameters
    ----------
    channels:
        ``(k, ...)`` residue stack, channel *i* holding values mod ``q_i``.
    base:
        The moduli chain the stack was decomposed against.

    Returns
    -------
    Array of centered representatives — ``int64`` when ``Q`` fits 62
    bits, else ``object``.

    Notes
    -----
    Vectorised Garner lift (``docs/KERNELS.md``): O(k^2) int64 vector
    ops for the mixed-radix digits plus one exact int64 Horner fold
    over the leading digits.  The sign decision (``x >= Q/2``) compares
    mixed-radix digit vectors against the precomputed digits of
    ``Q // 2``, so it never leaves int64 either.  Property-tested
    against the big-int oracle in ``tests/nt/test_crt.py``.
    """
    _check(channels, base)
    out = base.compose_centered([channels[i] for i in range(base.k)])
    if base.modulus.bit_length() <= 62:
        return out.astype(np.int64)
    return out


def _check(channels: np.ndarray, base: RnsBase) -> None:
    channels = np.asarray(channels)
    if channels.shape[0] != base.k:
        raise ValueError(
            f"residue stack has {channels.shape[0]} channels, base expects {base.k}"
        )
