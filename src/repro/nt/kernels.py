"""Fused residue-channel kernels shared by the HE weighted sums.

These are the hot inner loops of encrypted convolution: a neuron is a
plaintext-weighted sum of tap ciphertexts, which in RNS form is

    ``out[i, :] = (sum_t stack[t, i, :] * w[t, i]) mod m_i``

for residue channels ``i`` with pairwise moduli ``m_i``.  The kernels
here evaluate that whole expression in a handful of NumPy calls over the
stacked ``(taps, k, n)`` block instead of a per-tap ``mul_plain`` +
``add`` chain — the fusion the inference-plan layer
(:mod:`repro.henn.plan`) relies on, also routed through by
:class:`repro.henn.rnscnn.RnsIntegerConv` for its word-sized channels.

Exactness contract (same as :func:`repro.nt.modarith.mulmod`): inputs
reduced to ``[0, m)``, per-tap products reduced before summation, and
``taps * m < 2**62`` so int64 partial sums cannot overflow.  Channels
with narrow moduli (< 2**31) additionally fuse *across channels*: one
``(taps, k, n)`` multiply + one modulo, with the modulus broadcast per
channel — numerically identical to the per-channel path because both
reduce to ``(a * b) % m`` in int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.nt.modarith import NARROW_MODULUS_BITS, mulmod

__all__ = [
    "weighted_accumulate",
    "fused_weighted_sum",
    "scale_channels",
    "scale_positions",
    "PolyProgram",
    "compile_poly_program",
    "MAX_POLY_DEGREE",
]

#: Highest polynomial degree the BSGS evaluator compiles programs for.
MAX_POLY_DEGREE = 8


def _check_tap_budget(taps: int, m: int) -> None:
    if taps * m > 2**62:  # pragma: no cover - parameter guard
        raise ValueError("too many taps for exact int64 accumulation")


def weighted_accumulate(stack: np.ndarray, w_mod: np.ndarray, m: int) -> np.ndarray:
    """``(sum_t stack[t] * w_mod[t]) mod m`` along the leading tap axis.

    Parameters
    ----------
    stack:
        ``(taps, ...)`` int64 residues reduced mod *m*.
    w_mod:
        ``(taps,)`` weight residues reduced mod *m* (broadcast over the
        trailing axes).
    m:
        The channel modulus.
    """
    _check_tap_budget(stack.shape[0], m)
    w = np.asarray(w_mod, dtype=np.int64).reshape((-1,) + (1,) * (stack.ndim - 1))
    return mulmod(stack, w, m).sum(axis=0) % m


def fused_weighted_sum(stack: np.ndarray, w_res: np.ndarray, moduli: list[int]) -> np.ndarray:
    """All residue channels of a weighted sum in one sweep.

    Parameters
    ----------
    stack:
        ``(taps, k, ..., n)`` int64 ciphertext-component residues,
        channel ``i`` reduced mod ``moduli[i]``.  Extra axes between the
        channel and coefficient axes (e.g. a position batch) ride
        through untouched.
    w_res:
        ``(taps, k)`` int64 weight residues, column ``i`` reduced mod
        ``moduli[i]`` (broadcast over any trailing batch axes).
    moduli:
        The ``k`` channel moduli.

    Returns
    -------
    ``(k, ..., n)`` int64 stack of the accumulated channels.

    Notes
    -----
    Narrow channels (moduli below ``2**31``) are evaluated together with
    the modulus broadcast along the channel axis; wide channels fall
    back to the float-Barrett path one at a time.  Both produce the
    exact ints of :func:`weighted_accumulate` per channel.
    """
    taps, k = stack.shape[:2]
    if w_res.shape != (taps, k):
        raise ValueError(f"weight residues must be ({taps}, {k}), got {w_res.shape}")
    if len(moduli) != k:
        raise ValueError(f"expected {k} moduli, got {len(moduli)}")
    out = np.empty(stack.shape[1:], dtype=np.int64)
    mods = np.asarray(moduli, dtype=np.int64)
    narrow = mods < (1 << NARROW_MODULUS_BITS)
    tail = (1,) * (stack.ndim - 2)  # broadcast over batch/coefficient axes
    if narrow.any():
        for m in mods[narrow]:
            _check_tap_budget(taps, int(m))
        sub = stack[:, narrow]
        w = w_res[:, narrow].reshape(w_res[:, narrow].shape + tail)
        mb = mods[narrow].reshape((1, -1) + tail)
        prod = np.multiply(sub, w, dtype=np.int64) % mb
        out[narrow] = prod.sum(axis=0) % mb[0]
    for i in np.nonzero(~narrow)[0]:
        out[i] = weighted_accumulate(stack[:, i], w_res[:, i], int(mods[i]))
    return out


def scale_channels(stack: np.ndarray, residues: np.ndarray, moduli: list[int]) -> np.ndarray:
    """Per-channel scalar multiply: ``out[i] = (stack[i] * residues[i]) mod m_i``.

    The broadcast form of :meth:`CkksRnsContext.mul_plain_scalar`: the
    scalar's residues are computed once by the caller and applied to all
    channels here — narrow channels in one fused multiply, wide ones via
    float-Barrett.
    """
    k = stack.shape[0]
    if residues.shape[0] != k or len(moduli) != k:
        raise ValueError("stack/residues/moduli channel counts differ")
    out = np.empty_like(stack)
    mods = np.asarray(moduli, dtype=np.int64)
    narrow = mods < (1 << NARROW_MODULUS_BITS)
    if narrow.any():
        shape = (-1,) + (1,) * (stack.ndim - 1)
        mb = mods[narrow].reshape(shape)
        rb = residues[narrow].reshape(shape)
        out[narrow] = np.multiply(stack[narrow], rb, dtype=np.int64) % mb
    for i in np.nonzero(~narrow)[0]:
        out[i] = mulmod(stack[i], np.int64(residues[i]), int(mods[i]))
    return out


def scale_positions(stack: np.ndarray, residues: np.ndarray, moduli: list[int]) -> np.ndarray:
    """Position-wise scalar multiply over a batched component stack.

    The batched sibling of :func:`scale_channels`: position *b* of the
    stack is multiplied by *its own* scalar's residues — the kernel the
    BSGS activation path uses to apply per-channel SLAF coefficients to
    every feature-map position in one sweep.

    Parameters
    ----------
    stack:
        ``(k, B, ..., n)`` int64 component stack, channel *i* reduced
        mod ``moduli[i]``.  Extra axes between the position and
        coefficient axes broadcast the position's scalar across them.
    residues:
        ``(k, B)`` int64 scalar residues: column *b* holds the residues
        of position *b*'s scalar across the chain.
    moduli:
        The ``k`` channel moduli.

    Returns
    -------
    ``(k, B, ..., n)`` int64 stack, bit-identical per position to
    :func:`scale_channels` with that position's scalar.
    """
    k = stack.shape[0]
    if residues.shape[:2] != stack.shape[:2] or len(moduli) != k:
        raise ValueError("stack/residues/moduli shapes differ")
    out = np.empty_like(stack)
    mods = np.asarray(moduli, dtype=np.int64)
    narrow = mods < (1 << NARROW_MODULUS_BITS)
    tail = (1,) * (stack.ndim - 2)  # broadcast over batch/coefficient axes
    if narrow.any():
        mb = mods[narrow].reshape((-1, 1) + tail)
        rb = residues[narrow].reshape(residues[narrow].shape + tail)
        out[narrow] = np.multiply(stack[narrow], rb, dtype=np.int64) % mb
    for i in np.nonzero(~narrow)[0]:
        out[i] = mulmod(stack[i], residues[i].reshape((-1,) + tail), int(mods[i]))
    return out


# --------------------------------------------------------------------- BSGS programs


@dataclass(frozen=True)
class PolyProgram:
    """Compiled baby-step/giant-step plan for one polynomial degree.

    A degree-*d* polynomial splits into ``giants`` blocks of width
    ``baby_m``: ``p(x) = sum_g B_g(x) * y^g`` with ``y = x^baby_m`` and
    ``deg B_g < baby_m``.  Baby powers ``x^2 .. x^baby_top`` are built
    once (ciphertext–ciphertext multiplications) and every block is then
    a *plaintext*-weighted combination of them; the giant dimension
    folds by Horner in ``y``.  Backends interpret the program via
    ``HeBackend.poly_eval_bsgs`` — see ``docs/KERNELS.md`` for the
    mult/depth accounting table.

    Attributes
    ----------
    degree:
        Polynomial degree *d* (coefficient count ``d + 1``).
    baby_m:
        Block width *m* (the giant step is ``y = x^m``).
    giants:
        Number of blocks *G*; 1 means plain power-basis evaluation.
    baby_top:
        Highest baby power actually built (``m`` when ``G > 1``, else *d*).
    block_degrees:
        Degree of each block, low block first; the top block may be
        degree 0 (a constant), which costs no ciphertext multiply.
    ct_mults:
        Ciphertext–ciphertext multiplications consumed
        (``baby_top - 1`` baby steps plus the non-trivial Horner folds).
    depth:
        Rescaling levels consumed, counted by walking the interpreter's
        schedule: the accumulator is rescaled *before* each Horner fold,
        so a fold costs one level on top of ``max(accumulator, y)`` and
        a cubic meets the ``ceil(log2(degree + 1)) = 2`` lower bound.
    relins:
        Relinearisations (key-switch sweeps) performed by the *lazy*
        interpreter, ``~ ceil(degree / baby_m)``.  The eager interpreter
        relinearises after every product, i.e. exactly ``ct_mults``
        times.  Lazy keeps the giant power ``y = x^m`` raw (degree 2),
        folds blocks in extended space and relinearises each accumulator
        once, post-rescale, with a single merged degree-3 sweep.
    """

    degree: int
    baby_m: int
    giants: int
    baby_top: int
    block_degrees: tuple[int, ...]
    ct_mults: int
    depth: int
    relins: int = 0


@lru_cache(maxsize=None)
def compile_poly_program(degree: int) -> PolyProgram:
    """Compile the BSGS evaluation plan for a polynomial degree.

    Parameters
    ----------
    degree:
        Polynomial degree, ``1 <= degree <= MAX_POLY_DEGREE``.

    Returns
    -------
    The (cached, immutable) :class:`PolyProgram`.  Complexity of the
    compiled plan: ``ct_mults ~ 2*sqrt(degree)`` ciphertext multiplies
    and ``depth ~ log2(degree) + 1`` levels (2, 2, 3, 3, 4, 4, 4 for
    degrees 2..8), versus ``degree - 1`` multiplies and ``degree``
    levels for power-basis/Horner evaluation.
    """
    if degree < 1 or degree > MAX_POLY_DEGREE:
        raise ValueError(
            f"poly programs support degrees 1..{MAX_POLY_DEGREE}, got {degree}"
        )
    m = math.isqrt(degree)
    if m * m < degree + 1:
        m += 1  # ceil(sqrt(degree + 1))
    giants = -(-(degree + 1) // m)
    if giants <= 1:
        block_degrees = (degree,)
        baby_top = max(degree, 1)
        horner_mults = 0
    else:
        block_degrees = tuple(
            min(m - 1, degree - g * m) for g in range(giants)
        )
        baby_top = m
        # A constant-only top block folds into the first Horner step as a
        # plaintext multiply, saving one ciphertext multiplication.
        horner_mults = giants - 1 - (1 if block_degrees[-1] == 0 else 0)
    ct_mults = (baby_top - 1) + horner_mults
    # Levels below the input at which the block sum forms: a degree-j
    # baby power sits j - 1 levels down, and a constant top block rides
    # on y = x^m.  Each Horner fold rescales the sum (one level) and
    # multiplies it with y, landing on the lower of the two operands;
    # one final rescale returns the result to ~Δ.
    top = block_degrees[-1]
    level = top - 1 if top else m - 1
    for _ in range(horner_mults):
        level = max(level + 1, m - 1)
    depth = level + 1
    if giants <= 1:
        # Power basis: every baby product must be relinearised.
        relins = max(baby_top - 1, 0)
    else:
        # Lazy BSGS: y = x^m stays raw, so one baby relin is saved; each
        # Horner fold (plus the constant-top-block plaintext product)
        # costs exactly one merged sweep of its degree-3 accumulator.
        relins = (baby_top - 2) + horner_mults + (
            1 if block_degrees[-1] == 0 else 0
        )
    return PolyProgram(
        degree=degree,
        baby_m=m,
        giants=giants,
        baby_top=baby_top,
        block_degrees=block_degrees,
        ct_mults=ct_mults,
        depth=depth,
        relins=relins,
    )
