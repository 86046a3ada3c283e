"""Residue-channel kernels of the HE linear maps and activations.

A linear map (conv, dense, pooling) is, per residue channel ``i``, one
integer matrix product ``out = (W @ x_i) mod m_i``.  :func:`limb_gemm`
computes it *exactly* with float64 BLAS: the signed weights are split
into limbs (:func:`compile_limb_matrix`, once per map) and the residues
into limbs of at most ``RESIDUE_LIMB_BITS`` bits, sized so that every
partial sum is an integer below ``2**53`` — exact in float64 whatever
order or fused multiply-adds the BLAS uses — and the limb products
recombine mod ``m_i`` in int64 (``docs/KERNELS.md``, "Linear maps as
exact limb GEMMs").  :class:`repro.henn.rnscnn.RnsIntegerConv` computes
the paper's conv stage with its own limb matmul.  The scalar kernel
:func:`scale_channels` and the BSGS polynomial programs live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.nt.modarith import NARROW_MODULUS_BITS, mulmod

__all__ = [
    "MapBoundError",
    "LimbMatrix",
    "compile_limb_matrix",
    "limb_gemm",
    "scale_channels",
    "PolyProgram",
    "compile_poly_program",
    "MAX_POLY_DEGREE",
]

#: Highest polynomial degree the BSGS evaluator compiles programs for.
MAX_POLY_DEGREE = 8

#: float64 holds every integer below ``2**EXACT_BITS`` exactly.
EXACT_BITS = 53
#: Widest residue limb (the 26-bit chain primes fit one).
RESIDUE_LIMB_BITS = 26
#: Widest quantised weight a limb matrix takes (int64 with headroom).
MAX_WEIGHT_BITS = 62


class MapBoundError(ValueError):
    """A weight matrix whose limb GEMM cannot be exact, found at compile time:
    a weight wider than ``MAX_WEIGHT_BITS``, or a row too long for even
    one-bit limbs to keep its partial sums below ``2**53``."""


@dataclass(frozen=True)
class LimbMatrix:
    """Signed integer weights ``W = sum_a limbs[a] * 2**(a * width)``.

    Every limb carries the sign of its weight and ``width`` bits of its
    magnitude; ``residue_bits`` is the residue limb width for which
    every row of every limb keeps ``sum |limb| * (2**residue_bits - 1)``
    below ``2**53``.  ``l1`` is the largest row sum of ``|W|``: while
    ``l1 * (m - 1) < 2**63`` every partial recombination of the limb
    products fits int64 too, and one reduction mod ``m`` suffices.
    """

    limbs: np.ndarray  #: ``(L, out, in)`` float64, exact small integers
    width: int
    residue_bits: int
    l1: int


def _max_row_l1(a: np.ndarray, bits: int) -> int:
    """Largest row sum of ``|a|`` (entries below ``2**bits``), exactly."""
    if bits + a.shape[-1].bit_length() >= 63:  # an int64 sum could wrap
        a = a.astype(object)
    return int(np.abs(a).sum(axis=-1).max(initial=0))


def compile_limb_matrix(weights: np.ndarray) -> LimbMatrix:
    """Size the limb split of an ``(out, in)`` signed integer matrix.

    Each count of weight limbs fixes the widest residue limb that keeps
    the partial sums below ``2**53``; the fewest GEMMs per 26-bit channel
    win, ties to fewer residue limbs (the input is the wider operand),
    then to fewer weight limbs.
    """
    w = np.asarray(weights, dtype=object)
    if w.ndim != 2:
        raise ValueError(f"weight matrix must be (out, in), got shape {w.shape}")
    top = max((abs(int(v)) for v in w.flat), default=0).bit_length()
    if top > MAX_WEIGHT_BITS:
        raise MapBoundError(
            f"a quantised weight needs {top} bits; the limb GEMM takes at most "
            f"{MAX_WEIGHT_BITS}"
        )
    w = w.astype(np.int64)
    sign, mag = np.sign(w), np.abs(w)
    l1 = _max_row_l1(mag, top)
    wbits = max(top, 1)
    best: tuple[tuple[int, int], LimbMatrix] | None = None
    for count in range(1, wbits + 1):
        if best is not None and count > best[0][0]:
            break  # a GEMM per limb at the least: no larger count can win
        width = -(-wbits // count)
        limbs = np.stack(
            [sign * ((mag >> (a * width)) & ((1 << width) - 1)) for a in range(count)]
        )
        limb_l1 = _max_row_l1(limbs, width)
        rbits = RESIDUE_LIMB_BITS
        if limb_l1:
            rbits = min(rbits, ((2**EXACT_BITS - 1) // limb_l1 + 1).bit_length() - 1)
        if rbits < 1:
            continue
        residue_limbs = -(-RESIDUE_LIMB_BITS // rbits)
        cost = count * residue_limbs, residue_limbs
        if best is None or cost < best[0]:
            best = cost, LimbMatrix(limbs.astype(np.float64), width, rbits, l1)
    if best is None:
        raise MapBoundError(
            f"a row of {w.shape[1]} weights cannot keep its partial sums below "
            f"2**{EXACT_BITS}"
        )
    return best[1]


def _shift_mod(r: np.ndarray, shift: int, m: int) -> np.ndarray:
    """``(r * 2**shift) mod m`` for ``r`` in ``[0, m)``, in int64 steps."""
    step = 63 - m.bit_length()  # r << step stays below 2**63
    while shift:
        t = min(shift, step)
        r = (r << t) % m
        shift -= t
    return r


def limb_gemm(x: np.ndarray, weights: LimbMatrix, m: int) -> np.ndarray:
    """``(W @ x) mod m`` exactly, for one residue channel.

    Parameters
    ----------
    x:
        ``(in, cols)`` int64 residues in ``[0, m)``.
    weights:
        The compiled ``(out, in)`` :class:`LimbMatrix`.
    m:
        The channel modulus, below ``2**62``.

    Returns
    -------
    ``(out, cols)`` int64 canonical residues.  Each limb product is one
    float64 GEMM whose partial sums are integers below ``2**53``, hence
    exact.  The products recombine in int64: shifted and summed as they
    are when ``l1 * (m - 1) < 2**63`` (every partial sum is bounded by
    the full one), else each reduced mod *m* first.
    """
    rb = weights.residue_bits
    wide = weights.l1 * (m - 1) >= 2**63
    acc = prod = None
    for b in range(-(-(m - 1).bit_length() // rb)):
        xb = x >> (b * rb) if b else x
        if (m - 1) >> ((b + 1) * rb):  # not the top limb
            xb = xb & ((1 << rb) - 1)
        xf = xb.astype(np.float64)
        for a, w in enumerate(weights.limbs):
            prod = np.matmul(w, xf, out=prod)
            term = prod.astype(np.int64)
            shift = a * weights.width + b * rb
            if wide:
                term = _shift_mod(np.remainder(term, m, out=term), shift, m)
            elif shift:
                term <<= shift
            if acc is None:
                acc = term
            else:
                acc += term
                if wide:
                    np.subtract(acc, m, out=acc, where=acc >= m)
    return acc if wide else np.remainder(acc, m, out=acc)


def scale_channels(stack: np.ndarray, residues: np.ndarray, moduli: list[int]) -> np.ndarray:
    """Scalar multiply per channel, or per channel and position.

    ``out[i] = (stack[i] * residues[i]) mod m_i`` with ``residues`` of
    shape ``(k,)`` — :meth:`CkksRnsContext.mul_plain_scalar`, the
    scalar's residues computed once by the caller — or ``(k, B)`` for a
    ``(k, B, ..., n)`` stack whose position *b* takes its own scalar (the
    per-channel SLAF coefficients of a whole feature map in one sweep,
    bit-identical per position to the ``(k,)`` form).  Narrow channels
    run in one fused multiply, wide ones via float-Barrett.
    """
    k = stack.shape[0]
    if residues.shape != stack.shape[: residues.ndim] or len(moduli) != k:
        raise ValueError("stack/residues/moduli shapes differ")
    out = np.empty_like(stack)
    mods = np.asarray(moduli, dtype=np.int64)
    narrow = mods < (1 << NARROW_MODULUS_BITS)
    tail = (1,) * (stack.ndim - residues.ndim)  # broadcast over the remaining axes
    if narrow.any():
        mb = mods[narrow].reshape((-1,) + (1,) * (stack.ndim - 1))
        rb = residues[narrow].reshape(residues[narrow].shape + tail)
        out[narrow] = np.multiply(stack[narrow], rb, dtype=np.int64) % mb
    for i in np.nonzero(~narrow)[0]:
        out[i] = mulmod(stack[i], residues[i].reshape(residues[i].shape + tail), int(mods[i]))
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
    ``HeBackend.poly_eval`` — see ``docs/KERNELS.md`` for the
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
        once, post-rescale, with a single merged degree-3 sweep — the
        last one run by the consumer (the next linear map).
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
