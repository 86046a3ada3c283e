"""Residue-channel kernels of the HE linear maps, transforms and activations.

A linear map (conv, dense, pooling) is, per residue channel ``i``, one
integer matrix product ``out = (W @ x_i) mod m_i``; so are the two passes
of every negacyclic NTT (:mod:`repro.nt.ntt`).  :func:`limb_gemm`
computes it *exactly* with float64 BLAS: the signed weights are split
into limbs (:func:`compile_limb_matrix`, once per map or per transform
table) and the residues into limbs, sized so that every partial sum is
an integer below ``2**53`` — exact in float64 whatever order or fused
multiply-adds the BLAS uses — and the limb products recombine mod
``m_i`` in int64 (``docs/KERNELS.md``, "Linear maps as exact limb
GEMMs").  Every BLAS call stays below ``GEMM_MAX_MACS`` multiply-adds,
so OpenBLAS runs it on the calling thread.
:class:`repro.henn.rnscnn.RnsIntegerConv` computes the paper's conv
stage with its own limb matmul.  The scalar kernel
:func:`scale_channels` and the BSGS polynomial programs live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.nt.modarith import NARROW_MODULUS_BITS, _reduce, mulmod

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
#: Multiply-adds per BLAS call.  OpenBLAS hands a GEMM above roughly
#: 2**20 of them to its worker thread, which then spins on the core the
#: position shards need (``docs/KERNELS.md``, "Four-step transforms as
#: exact GEMMs"); :func:`limb_gemm` splits larger products into column
#: blocks below this cap.  Blocking never changes a result bit.
GEMM_MAX_MACS = 1 << 18
#: Row block of every NTT, in residues per channel: it bounds the
#: transform's temporaries (a float copy, the limb products, the int64
#: terms).  Speed measured flat from 2**13 to 2**20; blocking never
#: changes a result bit.
NTT_BLOCK_ELEMS = 1 << 16


class MapBoundError(ValueError):
    """A weight matrix whose limb GEMM cannot be exact, found at compile time:
    a weight wider than ``MAX_WEIGHT_BITS``, or a row too long for even
    one-bit limbs to keep its partial sums below ``2**53``."""


@dataclass(frozen=True)
class LimbMatrix:
    """Signed integer weights ``W = sum_a limbs[..., a, :, :] * 2**(a * width)``.

    Every limb carries the sign of its weight and ``width`` bits of its
    magnitude; ``residue_bits`` is the residue limb width for which
    every row of every limb keeps ``sum |limb| * (2**residue_bits - 1)``
    below ``2**53``.  ``l1`` is the largest row sum of ``|W|``: while
    ``l1 * (m - 1) < 2**63`` every partial recombination of the limb
    products fits int64 too, and one reduction mod ``m`` suffices.
    Leading axes stack independent matrices (the slices of a transform
    pass), applied to the matching leading axes of the residues.
    """

    limbs: np.ndarray  #: ``(..., L, out, in)`` float64, exact small integers
    width: int
    residue_bits: int
    l1: int


def _max_row_l1(a: np.ndarray, bits: int) -> int:
    """Largest row sum of ``|a|`` (entries below ``2**bits``), exactly."""
    if bits + a.shape[-1].bit_length() >= 63:  # an int64 sum could wrap
        a = a.astype(object)
    return int(np.abs(a).sum(axis=-1).max(initial=0))


def compile_limb_matrix(
    weights: np.ndarray, residue_bits: int = RESIDUE_LIMB_BITS
) -> LimbMatrix:
    """Size the limb split of an ``(..., out, in)`` signed integer matrix.

    Each count of weight limbs fixes the widest residue limb that keeps
    the partial sums below ``2**53``; the fewest GEMMs per channel of
    *residue_bits*-bit residues win, ties to fewer residue limbs (the
    input is the wider operand), then to fewer weight limbs.  An integer
    array compiles in vectorised int64; an object array of Python ints
    (the quantised maps) is range-checked entry by entry first.
    """
    w = np.asarray(weights)
    if w.ndim < 2:
        raise ValueError(f"weight matrix must be (..., out, in), got shape {w.shape}")
    if w.dtype.kind in "iu" and w.size:
        top = max(abs(int(w.min())), abs(int(w.max()))).bit_length()
    else:
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
            [sign * ((mag >> (a * width)) & ((1 << width) - 1)) for a in range(count)],
            axis=-3,
        )
        limb_l1 = _max_row_l1(limbs, width)
        rbits = residue_bits
        if limb_l1:
            rbits = min(rbits, ((2**EXACT_BITS - 1) // limb_l1 + 1).bit_length() - 1)
        if rbits < 1:
            continue
        residue_limbs = -(-residue_bits // rbits)
        cost = count * residue_limbs, residue_limbs
        if best is None or cost < best[0]:
            best = cost, LimbMatrix(limbs.astype(np.float64), width, rbits, l1)
    if best is None:
        raise MapBoundError(
            f"a row of {w.shape[-1]} weights cannot keep its partial sums below "
            f"2**{EXACT_BITS}"
        )
    return best[1]


def _gemm(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x`` in float64, no BLAS call above :data:`GEMM_MAX_MACS`.

    A larger product runs as row-and-column blocks written into one
    result, each block a separate (stacked) ``matmul``.
    """
    rows, inner = w.shape[-2:]
    cols = x.shape[-1]
    if rows * inner * cols <= GEMM_MAX_MACS:
        return np.matmul(w, x)
    out = np.empty(np.broadcast_shapes(w.shape[:-2], x.shape[:-2]) + (rows, cols))
    r_step = min(rows, max(1, GEMM_MAX_MACS // inner))
    c_step = max(1, GEMM_MAX_MACS // (r_step * inner))
    for r in range(0, rows, r_step):
        for c in range(0, cols, c_step):
            np.matmul(
                w[..., r : r + r_step, :], x[..., c : c + c_step],
                out=out[..., r : r + r_step, c : c + c_step],
            )
    return out


def limb_gemm(x: np.ndarray, weights: LimbMatrix, m: int) -> np.ndarray:
    """``(W @ x) mod m`` exactly, for one residue channel.

    Parameters
    ----------
    x:
        ``(..., in, cols)`` int64 residues in ``[0, m)``, any strides;
        leading axes pair with the stacked matrices of *weights*.
    weights:
        The compiled ``(..., out, in)`` :class:`LimbMatrix`.
    m:
        The channel modulus, below ``2**62``.

    Returns
    -------
    ``(..., out, cols)`` int64 canonical residues.  All weight limbs of
    one residue limb run as one float64 GEMM (below
    :data:`GEMM_MAX_MACS` multiply-adds per BLAS call), whose partial
    sums are integers below ``2**53``, hence exact.  The products
    recombine in int64 by Horner's rule over their bit offsets, highest
    first: shifted and summed as they are when ``l1 * (m - 1) < 2**63``
    (every partial sum is bounded by the full one), else reduced mod *m*
    wherever the next shift could leave int64.
    """
    *stack, count, rows, inner = weights.limbs.shape
    w = weights.limbs.reshape(*stack, count * rows, inner)
    rb = weights.residue_bits
    terms: dict[int, list[np.ndarray]] = {}
    for b in range(-(-(m - 1).bit_length() // rb)):
        xb = x >> (b * rb) if b else x
        if (m - 1) >> ((b + 1) * rb):  # not the top limb
            xb = xb & ((1 << rb) - 1)
        prod = _gemm(w, np.asarray(xb, dtype=np.float64, order="C"))
        for a in range(count):
            shift = a * weights.width + b * rb
            terms.setdefault(shift, []).append(prod[..., a * rows : (a + 1) * rows, :])
    wide = weights.l1 * (m - 1) >= 2**63
    step = 63 - m.bit_length()  # (m - 1) << step stays below 2**63
    acc = None
    for shift in sorted(terms, reverse=True):
        group = [t.astype(np.int64) for t in terms[shift]]
        t_bound = len(group) << EXACT_BITS
        if acc is None:
            acc, bound = group[0], t_bound
        else:
            d = prev - shift
            if wide and (bound << d) + t_bound >= 2**63:
                _reduce(acc, m)
                bound = m - 1
                while (bound << d) + t_bound >= 2**63:
                    acc <<= step
                    _reduce(acc, m)
                    d -= step
            acc <<= d
            acc += group[0]
            bound = (bound << d) + t_bound
        for t in group[1:]:
            acc += t
        prev = shift
    return _reduce(acc, m)


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
        Relinearisations (key-switch sweeps) performed by the
        interpreter, ``~ ceil(degree / baby_m)`` where relinearising
        every product would take ``ct_mults``.  It keeps the giant power
        ``y = x^m`` raw (degree 2), folds blocks in extended space and
        relinearises each accumulator once, post-rescale, with a single
        merged degree-3 sweep — the last one run by the consumer (the
        next linear map).
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
