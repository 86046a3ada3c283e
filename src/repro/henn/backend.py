"""HE evaluation backends behind one small interface.

A *handle* is one ciphertext (or its mock) holding a vector of scalars:
slot *i* belongs to image *i* of the batch (SIMD packing).  The network
layers in :mod:`repro.henn.layers` are written against this interface
only, so the same compiled model runs under:

* :class:`MockBackend` — plaintext simulation with identical
  scale/level bookkeeping and weight quantisation; used for
  full-test-set accuracy (verified against real HE by the
  backend-agreement tests).
* :class:`CkksBackend` — multiprecision CKKS (the paper's CNN-HE).
* :class:`CkksRnsBackend` — full-RNS CKKS (CNN-HE-RNS), whose
  ``weighted_sum_encoded`` evaluates a whole linear map as one exact
  limb GEMM per residue channel, and whose grouping hook packs like
  handles for the batch entry points and splits the packed position
  axis over the cores.

An activation leaves its outputs unrelinearised; the linear map behind
it weights every component and relinearises its own, fewer, outputs
(``docs/KERNELS.md``, "Where the sweep runs").
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro import obs
from repro.ckks import CkksContext, CkksParams
from repro.ckks.ciphertext import Ciphertext, require_degree1, with_components
from repro.ckksrns import CkksRnsContext, CkksRnsParams, RnsCiphertext
from repro.nt.kernels import (
    MAX_POLY_DEGREE,
    PolyProgram,
    compile_limb_matrix,
    compile_poly_program,
)
from repro.obs.metrics import get_registry, isolate_thread
from repro.utils.rng import derive_rng

__all__ = [
    "HeBackend", "MockBackend", "CkksBackend", "CkksRnsBackend", "EncodedTaps", "EncodedMap",
]


# ----------------------------------------------------------------- BSGS interpreter
#
# One interpreter serves every backend and every handle shape: a lone
# handle with a scalar (or per-slot vector) constant column, or a packed
# (k, B, n) RNS group with one constant per position.  It calls the
# backend's primitives — rescale / add, the raw products and
# ``relinearize_ext``, each on a handle of any degree it is defined on —
# plus ``_mul_consts(h, consts, ps)`` and ``_add_consts(h, consts)``,
# the two ops whose constants follow the handle's shape.


def _run_poly_program(b: "HeBackend", prog: PolyProgram, x: Any, coeffs: np.ndarray) -> Any:
    """Interpret a compiled BSGS program on backend *b* over one (possibly packed) handle.

    ``coeffs`` is ``(B, degree + 1)`` with one coefficient row per packed
    position (``B == 1`` for a lone handle).  Baby powers are
    computed once; blocks are folded from the top giant down (Horner in
    ``y = x^baby_m``), their terms aligned to a common scale by per-term
    plain-scale compensation.  A constant-only top block is deferred and
    folded into the first giant step as a plaintext multiply.  Each fold
    rescales the block sum *before* the product (Δ·Δ, one rescale), which
    is what makes ``prog.depth`` the level count.  Products stay in
    extended degree-2/3 space and relinearise *after* summing:

    * the giant power ``y`` is kept raw (degree 2), saving its keyswitch
      entirely;
    * each Horner fold ``rescale(acc) * y`` produces a degree-3
      accumulator; block terms (degree-1 plaintext products) are added
      into it componentwise, and one *merged* keyswitch (s² and s³
      digits in a single sweep) relinearises the whole block sum,
      post-rescale.  There is one accumulator: ``add`` / ``add_plain`` /
      ``rescale`` take a ciphertext of any degree and relinearising a
      degree-1 one is the identity (no sweep, no counter);
    * the *last* block sum is only rescaled (high components to the
      coefficient domain): its merged sweep belongs to whoever consumes
      the result — the next linear map relinearises its outputs after
      weighting all components, over far fewer positions.

    ``prog.relins`` counts the sweeps, the consumer's included:
    ``~ceil(degree / baby_m)`` against ``prog.ct_mults ~ 2*sqrt(degree)``
    for a fold that relinearises every product.  That fold is frozen in
    ``tests/henn/eager_oracle.py``; it lands on the same level and scale
    and agrees to within the scheme's approximation error (deferring the
    keyswitch noise past rescales moves the last few bits).
    """
    powers = {1: x}
    y_raw = None
    for j in range(2, prog.baby_top + 1):
        prev = powers[j - 1]
        raw = b.square_raw(prev) if j == 2 else b.mul_raw(prev, x)
        if j == prog.baby_m and prog.giants > 1:
            # The giant power stays extended (no keyswitch) and must keep
            # its high component in the NTT domain: it feeds dyadic
            # ct x ext products in the Horner folds below.
            y_raw = b.rescale(raw)
        else:
            powers[j] = b.relinearize_ext(b.rescale(raw, defer_high=True))
    m = prog.baby_m
    acc = None  # block-sum accumulator, degree 1 until the first fold
    pending = None  # constants of a deferred degree-0 top block
    for g in range(prog.giants - 1, -1, -1):
        base = g * m
        bd = prog.block_degrees[g]
        if acc is None and pending is None:
            if bd == 0:
                pending = coeffs[:, base]
                continue
            target = powers[bd].scale * b.scale
        elif pending is not None:
            acc = b._mul_consts(y_raw, pending, b.scale)
            pending = None
            target = acc.scale
        else:
            # The accumulator must be degree 1 before folding with the
            # raw giant power (degree 1 x 2 -> 3 is the ceiling the
            # merged sweep handles): relinearise the block sum now (the
            # identity on the first, still degree-1, block sum).
            acc = b.relinearize_ext(b.rescale(acc, defer_high=True))
            acc = b.mul_raw(acc, y_raw)
            target = acc.scale
        for j in range(bd, 0, -1):
            ps = target / powers[j].scale
            term = b._mul_consts(powers[j], coeffs[:, base + j], ps)
            acc = term if acc is None else b.add(acc, term)
        acc = b._add_consts(acc, coeffs[:, base])
    return b.rescale(acc, defer_high=True)


@dataclass
class EncodedTaps:
    """Compile-once constants for one weighted sum (a conv/linear neuron).

    Produced by :meth:`HeBackend.encode_taps`; the rows of an
    :class:`EncodedMap`.  The encoded form is bit-identical to encoding
    the float weights on every call because quantization
    (``round(w * Δp)``) is deterministic.
    """

    plain_scale: float
    weights: np.ndarray  #: original float weights (generic fallback path)
    consts: list[int]  #: quantized integers ``round(w * plain_scale)`` (scalar taps)
    keep: list[int]  #: indices of taps with nonzero quantized weight
    #: Slot-vector taps (``encode_taps(..., level=)``, ``weights`` of shape
    #: ``(taps, slots)``): each tap's scheme plaintext at that level.
    plain: list | None = None


class EncodedMap:
    """Every output row of one linear map, encoded once (a lone weighted sum is one row).

    ``rows[r]`` is output *r*'s ``(flat input indices or None for all,
    EncodedTaps)``; ``matrix`` the same map as a dense ``(rows, inputs)``
    :class:`~repro.nt.kernels.LimbMatrix` for the exact limb GEMM — a
    weight too wide for it raises :class:`~repro.nt.kernels.MapBoundError`
    here, at compile time, never at evaluation.  A map of slot-vector
    taps (the packed layout's diagonal products) has no ``matrix``.
    """

    def __init__(self, rows: "list[tuple[list[int] | None, EncodedTaps]]", inputs: int):
        if not rows or inputs < 1:
            raise ValueError("a linear map needs at least one row and one input")
        self.rows = rows
        self.inputs = inputs
        self.plain_scale = rows[0][1].plain_scale
        self.matrix = None
        if rows[0][1].plain is not None:
            return
        dense = np.zeros((len(rows), inputs), dtype=object)
        for r, (idxs, enc) in enumerate(rows):
            for t, c in zip(range(inputs) if idxs is None else idxs, enc.consts, strict=True):
                dense[r, t] += c
        self.matrix = compile_limb_matrix(dense)

    def gather(self, handles: Sequence[Any]) -> "list[tuple[list[Any], EncodedTaps]]":
        """Per row: its tap handles out of *handles* (one per input) and taps."""
        if len(handles) != self.inputs:
            raise ValueError(f"map over {self.inputs} inputs given {len(handles)} handles")
        handles = list(handles)
        return [
            (handles if idxs is None else [handles[t] for t in idxs], enc)
            for idxs, enc in self.rows
        ]


class HeBackend(ABC):
    """Minimal homomorphic-evaluation interface used by the HE layers.

    A handle is one ciphertext of *any* degree: ``square_raw`` /
    ``mul_raw`` return handles that still carry their ``s²``/``s³``
    components, the linear ops below accept them like any other handle,
    and ``relinearize_ext`` brings them back to degree 1 — a relinearised
    product is spelled ``relinearize_ext(mul_raw(a, b))``.  A handle
    carries its own ``scale`` and ``level``.  The 22 public names, by
    role:

    **Primitives** (16; what a scheme implements)

    * parameters — ``scale``, ``max_batch``;
    * client side — ``encrypt``, ``encrypt_many``, ``decrypt`` (degree 1);
    * linear, any degree — ``add``, ``add_plain``, ``mul_plain_scalar``,
      ``rescale``;
    * ct × ct — ``square_raw``, ``mul_raw`` (left operand degree 1) and
      ``relinearize_ext``;
    * single-image packing — ``rotate`` (degree 1, one step or a hoisted
      sequence);
    * request packing, degree 1 — ``concat_slots``, ``slice_slots``;
    * compile-once constants — ``encode_taps``.

    **Derived composites** (6; defined here on top of the primitives),
    what the engine's plan calls: ``weighted_sum_encoded`` (the real
    schemes override it with fused kernels), ``poly_eval`` and the four
    batch entry points ``poly_eval_many``, ``rescale_many``,
    ``add_plain_each`` and ``relinearize_many``, one call per group of
    :meth:`_shard_plan` — here every handle alone; CKKS-RNS packs like
    handles, overriding only that hook and the interpreter's
    :meth:`_mul_consts` / :meth:`_add_consts` and the BSGS fold :meth:`_rotate_sum`.

    Degree-1-only entry points raise
    :class:`~repro.ckks.ciphertext.CiphertextDegreeError` on an
    unrelinearised handle instead of dropping its high components.
    """

    name: str = "abstract"

    #: Whether :meth:`concat_slots` packs requests into genuinely shared
    #: ciphertexts (SIMD slot stacking).  True only where packing is
    #: *exact*: the mock backend concatenates plaintext slot vectors
    #: bit-identically.  The raw CKKS schemes keep this False — moving a
    #: payload to a different slot range would need a Galois rotation,
    #: whose keyswitch noise breaks bit-identity with the serial run —
    #: so :func:`repro.henn.inference.evaluate_batch` runs their batches
    #: member by member.
    native_slot_concat: bool = False

    @property
    @abstractmethod
    def scale(self) -> float:
        """Base plaintext scale Δ."""

    @property
    @abstractmethod
    def max_batch(self) -> int:
        """Number of SIMD slots (images per ciphertext)."""

    @abstractmethod
    def encrypt(self, values: np.ndarray) -> Any:
        """Encrypt a 1-D value vector into one ciphertext handle (SIMD slots)."""

    @abstractmethod
    def decrypt(self, handle: Any, count: int | None = None) -> np.ndarray:
        """Decrypt *handle*, returning the first *count* slots (all if None)."""

    #: Forward-transform rows one fresh encryption costs (0: no NTT on
    #: this backend); tags the ``henn.stage.encrypt`` span.
    encrypt_transform_rows = 0

    def encrypt_many(self, rows: Sequence[np.ndarray]) -> list[Any]:
        """Encrypt many slot vectors, one handle each.

        The generic implementation loops :meth:`encrypt` (mock,
        multiprecision CKKS); the RNS backend runs all rows through one
        batched transform (same randomness order, so same ciphertexts).
        """
        return [self.encrypt(v) for v in rows]

    @abstractmethod
    def add(self, a: Any, b: Any) -> Any:
        """Ciphertext + ciphertext (scales must match; degrees may differ)."""

    @abstractmethod
    def add_plain(self, a: Any, value: "float | np.ndarray") -> Any:
        """Ciphertext + plaintext scalar (broadcast over slots) or slot vector, any degree."""

    @abstractmethod
    def mul_plain_scalar(self, a: Any, scalar: float, plain_scale: float | None = None) -> Any:
        """Ciphertext × plaintext scalar encoded at *plain_scale* (default Δ), any degree."""

    @abstractmethod
    def rescale(self, a: Any, defer_high: bool = False) -> Any:
        """Drop one modulus level, dividing the scale back toward Δ.

        Works componentwise on a handle of any degree (an unrelinearised
        one comes back marked deferred).  ``defer_high`` hints that its
        high components will only ever be relinearised, letting RNS
        backends hold them in coefficient domain; it means nothing for a
        degree-1 handle or a backend without that optimisation.
        """

    def rotate(self, a: Any, steps: "int | Sequence[int]") -> Any:
        """Left-rotate slots by *steps*; a sequence returns one handle per step.

        A real scheme needs the Galois key of every nonzero step, generated
        ahead of time (the packed plan does it when it compiles); a
        missing one raises :class:`KeyError`.  A sequence shares one
        hoisted digit decomposition where the scheme has it (CKKS-RNS).
        """
        raise NotImplementedError(f"{self.name} backend has no rotations")

    # -- ct x ct products (relinearisation deferred) ------------------------------

    @abstractmethod
    def square_raw(self, a: Any) -> Any:
        """``a * a`` without relinearisation: a degree-2 handle."""

    @abstractmethod
    def mul_raw(self, a: Any, b: Any) -> Any:
        """``a * b`` without relinearisation; scale multiplies.

        *b* may be a degree-1 handle (result degree 2) or a raw degree-2
        one (result degree 3 — the Horner fold against the raw giant
        power).
        """

    @abstractmethod
    def relinearize_ext(self, e: Any) -> Any:
        """Key-switch a handle back to degree 1.

        Degree 3 uses the s³ evaluation key merged with the s² key into
        a single sweep; a degree-1 handle is returned as is (no sweep,
        no ``relin.count``).
        """

    # -- slot packing (serving gateway) -----------------------------------------

    def concat_slots(self, handles: Sequence[Any], counts: Sequence[int]) -> Any:
        """Stack independent request ciphertexts along the slot axis.

        Handle *j* contributes slots ``[offset_j, offset_j + counts[j])``
        of the packed result, where ``offset_j = sum(counts[:j])`` — the
        batching gateway's assembly primitive.  Only backends that can
        do this exactly implement it (``native_slot_concat``); the base
        class refuses, and batches on the real schemes are evaluated
        member by member instead.
        """
        raise NotImplementedError(f"{self.name} backend has no native slot packing")

    def slice_slots(self, a: Any, start: int, count: int) -> Any:
        """Inverse of :meth:`concat_slots`: one request's slot range."""
        raise NotImplementedError(f"{self.name} backend has no native slot packing")

    # -- composite operations (overridable fast paths) -------------------------

    def encode_taps(
        self, weights: np.ndarray, plain_scale: float | None = None, level: int | None = None
    ) -> EncodedTaps:
        """Quantize the weights of one weighted sum once.

        The returned :class:`EncodedTaps` is one row of an
        :class:`EncodedMap`, replayed against fresh tap handles by
        :meth:`weighted_sum_encoded` without re-quantizing.  With a
        *level*, *weights* is ``(taps, slots)``: every tap weighs its
        handle by a slot vector (a diagonal of the packed layout's matrix
        product), encoded once as a plaintext at that level (``plain``).
        """
        ps = float(plain_scale or self.scale)
        weights = np.asarray(weights, dtype=np.float64)
        if level is not None:
            plain = [self._encode_vector(w, ps, level) for w in weights]
            keep = [t for t, w in enumerate(weights) if np.any(np.round(w * ps))] or [0]
            return EncodedTaps(plain_scale=ps, weights=weights, consts=[], keep=keep, plain=plain)
        consts = [int(round(float(w) * ps)) for w in weights]
        # Taps whose weight quantizes to zero contribute exactly nothing
        # (their encoded multiplier is the zero plaintext): skipped.
        keep = [t for t, c in enumerate(consts) if c != 0] or [0]
        return EncodedTaps(plain_scale=ps, weights=weights, consts=consts, keep=keep)

    def _encode_vector(self, values: np.ndarray, plain_scale: float, level: int) -> Any:
        """The scheme's plaintext of a slot vector at *level*."""
        raise NotImplementedError(f"{self.name} backend has no vector plaintexts")

    def _mul_encoded(self, a: Any, plain: Any, plain_scale: float) -> Any:
        """*a* times a plaintext of :meth:`_encode_vector`, every component."""
        raise NotImplementedError(f"{self.name} backend has no vector plain-multiply")

    def weighted_sum_encoded(self, handles: Sequence[Any], emap: EncodedMap) -> list[Any]:
        """Every output row of a precompiled linear map over fresh handles.

        *handles* holds one handle per map input; the result one per
        row.  Every component of an unrelinearised handle is weighted.
        The generic implementation multiplies and adds pairwise, row by
        row; the real schemes override it (this is where convolutions
        spend their time).
        """
        with obs.span("henn.weighted_sum", backend=self.name, taps=len(handles)):
            out = []
            for row, enc in emap.gather(handles):
                ws, ps = enc.weights, enc.plain_scale
                if enc.plain is None:
                    terms = [self.mul_plain_scalar(row[t], float(ws[t]), ps) for t in enc.keep]
                else:
                    terms = [self._mul_encoded(row[t], enc.plain[t], ps) for t in enc.keep]
                acc = terms[0]
                for term in terms[1:]:
                    acc = self.add(acc, term)
                out.append(acc)
            return out

    def poly_eval(self, x: Any, coeffs: np.ndarray) -> Any:
        """Evaluate ``sum_k coeffs[k] x^k`` homomorphically.

        Interprets the baby-step/giant-step
        :class:`~repro.nt.kernels.PolyProgram` of
        :func:`repro.nt.kernels.compile_poly_program`: baby powers once,
        plaintext-weighted blocks, Horner fold over the giant step, all
        terms aligned to a common scale by per-term plain-scale
        compensation — ``program.ct_mults ~ 2*sqrt(d)`` ciphertext
        multiplies and ``program.depth`` levels for degree *d* (2 for a
        cubic, 4 for degree 8; the paper's §V.B accounting charges *d*,
        per-degree table in ``docs/KERNELS.md``).  One final rescale
        returns the result to ~Δ, unrelinearised: :meth:`relinearize_ext`,
        or the next linear map, brings it to degree 1.

        Parameters
        ----------
        x:
            Input ciphertext handle (degree 1).
        coeffs:
            Polynomial coefficients, constant term first (length
            ``2 .. MAX_POLY_DEGREE + 1``) — or one such row per slot
            (``(max_batch, degree + 1)``), slot *s* evaluating row *s*:
            the packed layout's per-channel activation, applied as
            plaintext slot vectors.

        Returns
        -------
        Handle for ``p(x)`` rescaled back to ~Δ.
        """
        per_slot = np.ndim(coeffs) == 2 and len(coeffs) == self.max_batch
        coeffs = self._check_poly_rows(coeffs, self.max_batch if per_slot else 1)
        program = compile_poly_program(coeffs.shape[1] - 1)
        with obs.span("henn.poly_eval", backend=self.name, degree=program.degree):
            reg = get_registry()
            reg.counter("poly.bsgs.evals").inc()
            reg.counter("poly.bsgs.ct_mults").inc(program.ct_mults)
            return _run_poly_program(self, program, x, coeffs)

    def poly_eval_many(self, handles: Sequence[Any], rows: np.ndarray) -> list[Any]:
        """Evaluate one polynomial per handle (``rows[i]`` on ``handles[i]``).

        ``rows`` may be a single row (broadcast) or one row per handle.
        Each group of :meth:`_shard_plan` runs through *one* BSGS
        program: on CKKS-RNS a ``(k, B, n)`` stack of like handles, one
        NTT / keyswitch sweep per ciphertext multiply instead of *B*.
        Bit-identical per position to :meth:`poly_eval` on the lone
        handle: every context primitive is slot-parallel over the packed
        axis, which is also why a group may run as position shards (the
        span's ``shards`` tag counts them).
        """
        handles = list(handles)
        rows = self._check_poly_rows(rows, len(handles))
        program = compile_poly_program(rows.shape[1] - 1)
        plan = self._shard_plan(handles)
        reg = get_registry()
        reg.counter("poly.bsgs.evals").inc(len(handles))
        reg.counter("poly.bsgs.batches").inc(len(plan))
        reg.counter("poly.bsgs.ct_mults").inc(program.ct_mults * len(plan))
        with obs.span(
            "henn.poly_eval_many", backend=self.name, positions=len(handles),
            degree=program.degree, shards=sum(map(len, plan)),
        ):
            return _run_shards(
                handles, plan, lambda x, part: _run_poly_program(self, program, x, rows[part])
            )

    def rescale_many(self, handles: Sequence[Any]) -> list[Any]:
        """:meth:`rescale` of each handle, one call per group of :meth:`_shard_plan`.

        Bit-identical per handle, every component included — the
        context's rescale is slot-parallel over the packed position axis.
        """
        handles = list(handles)
        return _run_shards(handles, self._shard_plan(handles), lambda x, _: self.rescale(x))

    def add_plain_each(self, handles: Sequence[Any], values: np.ndarray) -> list[Any]:
        """``handles[i] + values[i]`` per handle, one call per group."""
        handles = list(handles)
        values = np.asarray(values, dtype=np.float64)
        return _run_shards(
            handles, self._shard_plan(handles), lambda x, part: self._add_consts(x, values[part])
        )

    def relinearize_many(self, handles: Sequence[Any]) -> list[Any]:
        """:meth:`relinearize_ext` of each handle (degree 1 passes through).

        One merged key-switch sweep per group of extended handles
        (``relin.count`` + 1 per group, however many shards run it) —
        on CKKS-RNS, the sweep a linear map pays for its outputs.
        """
        handles = list(handles)
        plan = [s for s in self._shard_plan(handles) if handles[int(s[0][0])].degree > 1]
        return _run_shards(handles, plan, lambda x, _: self.relinearize_ext(x))

    def _shard_plan(self, handles: list[Any]) -> "list[list[Sequence[int]]]":
        """The groups the batch entry points run, each as its shards of handle indices.

        Here every handle is a group of one shard, ``[i]``; a backend
        whose kernels stack like handles (CKKS-RNS) groups them.
        """
        return [[[i]] for i in range(len(handles))]

    def _mul_consts(self, h: Any, consts: np.ndarray, ps: float) -> Any:
        """*h* times one constant per packed position, encoded at *ps*: on
        a lone handle a scalar, or a slot vector for per-slot rows."""
        if len(consts) == 1:
            return self.mul_plain_scalar(h, float(consts[0]), ps)
        return self._mul_encoded(h, self._encode_vector(consts, ps, h.level), ps)

    def _add_consts(self, h: Any, consts: np.ndarray) -> Any:
        """*h* plus one constant per packed position (as :meth:`_mul_consts`)."""
        return self.add_plain(h, float(consts[0]) if len(consts) == 1 else consts)

    def _rotate_sum(self, handles: Sequence[Any], steps: Sequence[int]) -> Any:
        """``Σ_t rot_{steps[t]}(handles[t])``, a BSGS product's giant-step fold:
        a :meth:`rotate` / :meth:`add` loop here, one key switch on CKKS-RNS."""
        acc = None
        for h, g in zip(handles, steps):
            h = self.rotate(h, g) if g else h
            acc = h if acc is None else self.add(acc, h)
        return acc

    @staticmethod
    def _check_poly_rows(rows: np.ndarray, count: int) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[0] == 1 and count > 1:
            rows = np.broadcast_to(rows, (count, rows.shape[1]))
        if rows.shape[0] != count:
            raise ValueError(f"{rows.shape[0]} coefficient rows for {count} handles")
        degree = rows.shape[1] - 1
        if degree < 1 or degree > MAX_POLY_DEGREE:
            raise ValueError(f"poly_eval supports degrees 1..{MAX_POLY_DEGREE}")
        return rows


# --------------------------------------------------------------------------- mock

#: log2 of the mock scheme's scale Δ (the CKKS presets' 26-bit scale).
MOCK_SCALE_BITS = 26


@dataclass
class _MockHandle:
    """Plaintext slot vector with ciphertext bookkeeping.

    Relinearisation is the identity on tracked values, so where a sweep
    runs moves no bit — ``degree`` / ``deferred`` only mirror the
    bookkeeping (and the relin counters) of the real schemes.
    """

    values: np.ndarray
    scale: float
    level: int
    degree: int = 1
    deferred: bool = False


class MockBackend(HeBackend):
    """Plaintext simulation with CKKS bookkeeping.

    Tracks scale and level like the RNS scheme (every rescale divides by
    exactly Δ = 2^:data:`MOCK_SCALE_BITS`) and quantises plaintext
    multipliers to the encoding grid, so results match real-HE
    evaluation to within the scheme's approximation noise.
    """

    name = "mock"

    def __init__(
        self,
        batch: int = 64,
        levels: int = 16,
        quantize: bool = True,
        fault_injector: "Any | None" = None,
    ):
        self._scale = float(1 << MOCK_SCALE_BITS)
        self._batch = batch
        self.levels = levels
        self.quantize = quantize
        #: Resilience-harness hook; perturbs tracked scales when armed.
        self.fault_injector = fault_injector

    @property
    def scale(self) -> float:
        return self._scale

    @property
    def max_batch(self) -> int:
        return self._batch

    def _q(self, v: np.ndarray | float, s: float) -> np.ndarray | float:
        if not self.quantize:
            return v
        return np.round(np.asarray(v, dtype=np.float64) * s) / s

    def encrypt(self, values: np.ndarray) -> _MockHandle:
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] > self._batch:
            raise ValueError(f"batch {values.shape[0]} exceeds backend capacity {self._batch}")
        scale = self._scale
        if self.fault_injector is not None:
            scale = self.fault_injector.next_scale(scale)
        return _MockHandle(np.array(self._q(values, self._scale)), scale, self.levels)

    def decrypt(self, handle: _MockHandle, count: int | None = None) -> np.ndarray:
        require_degree1(handle, "decrypt")
        v = handle.values
        return v[:count] if count is not None else v

    def add(self, a: _MockHandle, b: _MockHandle) -> _MockHandle:
        # math.isclose, not numpy's: on two Python floats the array
        # machinery of np.isclose was ~60 % of a mock batch evaluation.
        if not math.isclose(a.scale, b.scale, rel_tol=1e-3):
            raise ValueError(f"scale mismatch in add: {a.scale} vs {b.scale}")
        return _MockHandle(
            a.values + b.values,
            a.scale,
            min(a.level, b.level),
            max(a.degree, b.degree),
            a.deferred or b.deferred,
        )

    def add_plain(self, a: _MockHandle, value: "float | np.ndarray") -> _MockHandle:
        plain = self._q(value if isinstance(value, np.ndarray) else float(value), a.scale)
        values = a.values
        if np.ndim(value) == 1 and len(value) > len(values):
            values = _zero_extend(values, len(value))  # the slots past a handle's values hold 0
        return _MockHandle(values + plain, a.scale, a.level, a.degree, a.deferred)

    def mul_plain_scalar(self, a: _MockHandle, scalar: float, plain_scale: float | None = None) -> _MockHandle:
        ps = float(plain_scale or self._scale)
        w = round(float(scalar) * ps) / ps  # same quantisation as encode
        return _MockHandle(a.values * w, a.scale * ps, a.level, a.degree, a.deferred)

    def rescale(self, a: _MockHandle, defer_high: bool = False) -> _MockHandle:
        if a.level <= 0:
            raise ValueError("mock level budget exhausted (depth overflow)")
        scale = a.scale / self._scale
        if self.fault_injector is not None:
            scale = self.fault_injector.next_scale(scale)
        return _MockHandle(a.values, scale, a.level - 1, a.degree, a.degree > 1)

    def _encode_vector(self, values: np.ndarray, plain_scale: float, level: int) -> np.ndarray:
        return np.asarray(self._q(values, plain_scale))

    def _mul_encoded(self, a: _MockHandle, plain: np.ndarray, plain_scale: float) -> _MockHandle:
        v = plain[: a.values.shape[0]]
        return _MockHandle(a.values * v, a.scale * plain_scale, a.level, a.degree, a.deferred)

    def rotate(self, a: _MockHandle, steps: "int | Sequence[int]") -> "_MockHandle | list[_MockHandle]":
        require_degree1(a, "rotate")
        if not isinstance(steps, (int, np.integer)):
            return [self.rotate(a, r) for r in steps]
        return _MockHandle(np.roll(_zero_extend(a.values, self._batch), -steps), a.scale, a.level)

    # -- ct x ct products (relinearisation deferred) ------------------------------

    def square_raw(self, a: _MockHandle) -> _MockHandle:
        require_degree1(a, "square_raw")
        return _MockHandle(a.values * a.values, a.scale * a.scale, a.level, 2)

    def mul_raw(self, a: _MockHandle, b: _MockHandle) -> _MockHandle:
        require_degree1(a, "mul_raw (left operand)")
        return _MockHandle(
            a.values * b.values, a.scale * b.scale, min(a.level, b.level), b.degree + 1, b.deferred
        )

    def relinearize_ext(self, e: _MockHandle) -> _MockHandle:
        if e.degree == 1:
            return e
        reg = get_registry()
        reg.counter("relin.count").inc()
        if e.deferred:
            reg.counter("relin.deferred").inc()
        return _MockHandle(e.values, e.scale, e.level)

    # -- slot packing ------------------------------------------------------------

    native_slot_concat = True

    def concat_slots(self, handles: Sequence[_MockHandle], counts: Sequence[int]) -> _MockHandle:
        """Exact SIMD packing: slot vectors concatenate bit-identically.

        Every mock operation is slotwise over ``values``, so evaluating
        the packed handle restricted to one request's slot range equals
        evaluating that request alone — the bit-identity the batching
        gateway's tests assert.  Requests must agree on scale and level
        exactly (fresh encryptions do; a drifted ciphertext is the
        caller's admission-validation problem, reported here as
        :class:`ValueError`).  The tail is zero-padded to the
        :class:`~repro.henn.packing.BatchLayout` alignment width, so the
        physical slot cost matches the pad-waste the layout accounts.
        """
        if len(handles) != len(counts) or not handles:
            raise ValueError("bad concat_slots arguments")
        from repro.henn.packing import BatchLayout  # deferred: packing imports us

        head = handles[0]
        for h, c in zip(handles, counts):
            require_degree1(h, "concat_slots")
            if h.values.shape[0] != c:
                raise ValueError(f"handle holds {h.values.shape[0]} slots, declared {c}")
            if h.level != head.level or h.scale != head.scale:
                raise ValueError("concat_slots requires identical scales and levels")
        layout = BatchLayout(tuple(int(c) for c in counts), self._batch)
        return _MockHandle(
            layout.pad_values(np.concatenate([h.values for h in handles])),
            head.scale,
            head.level,
        )

    def slice_slots(self, a: _MockHandle, start: int, count: int) -> _MockHandle:
        require_degree1(a, "slice_slots")
        if start < 0 or count < 1 or start + count > a.values.shape[0]:
            raise ValueError(f"slot range [{start}, {start + count}) out of bounds")
        return _MockHandle(a.values[start : start + count].copy(), a.scale, a.level)


def _zero_extend(values: np.ndarray, width: int) -> np.ndarray:
    """*values* padded with zeros to *width* slots, as a ciphertext holds them."""
    return np.pad(values, (0, width - len(values)))


# --------------------------------------------------------------------------- multiprecision CKKS


class CkksBackend(HeBackend):
    """The non-RNS baseline (paper "CNN-HE"): multiprecision coefficients."""

    name = "ckks"

    def __init__(self, params: CkksParams, seed: int | np.random.Generator | None = 0):
        self.ctx = CkksContext(params)
        rng = derive_rng(seed)
        self.keys = self.ctx.keygen(rng)
        self._rng = rng
        self._key_rng = rng.spawn(1)[0]

    @property
    def scale(self) -> float:
        return self.ctx.params.scale

    @property
    def max_batch(self) -> int:
        return self.ctx.slots

    def encrypt(self, values: np.ndarray):
        return self.ctx.encrypt(self.keys.pk, np.asarray(values, dtype=np.float64), self._rng)

    def decrypt(self, handle, count: int | None = None) -> np.ndarray:
        return self.ctx.decrypt_real(self.keys.sk, handle, count)

    def add(self, a, b):
        return self.ctx.add(a, b)

    def add_plain(self, a, value):
        return self.ctx.add_plain(a, value if isinstance(value, np.ndarray) else float(value))

    def mul_plain_scalar(self, a, scalar: float, plain_scale: float | None = None):
        return self.ctx.mul_plain_scalar(a, scalar, plain_scale)

    def rescale(self, a, defer_high: bool = False):
        return self.ctx.rescale_ext(a) if a.degree > 1 else self.ctx.rescale(a)

    # -- ct x ct products (relinearisation deferred) ------------------------------

    def square_raw(self, a):
        return self.ctx.square_raw(a)

    def mul_raw(self, a, b):
        return self.ctx.mul_raw(a, b)

    def relinearize_ext(self, e):
        if e.degree == 1:
            return e
        return self.ctx.relinearize(e, self.keys.relin, self.keys.relin3)

    def _encode_vector(self, values: np.ndarray, plain_scale: float, level: int) -> np.ndarray:
        return self.ctx._cached_encode(values, plain_scale)  # one integer polynomial for every level

    def _mul_encoded(self, a, plain: np.ndarray, plain_scale: float):
        return self.ctx.mul_plain(a, plain, plain_scale)

    def rotate(self, a, steps):
        return self.ctx.rotate(a, steps, self.keys.galois)

    def add_rotation_keys(self, steps: Sequence[int]) -> None:
        """Generate the Galois keys of *steps* (existing ones are kept).

        Draws from a key stream of its own, so provisioning rotations
        never moves the encryption randomness.
        """
        for r in steps:
            self.ctx.add_galois_key(self.keys, int(r), self._key_rng)

    def weighted_sum_encoded(self, handles, emap: EncodedMap):
        """Per row, accumulate every big-int component lazily, reducing mod q once."""
        if emap.matrix is None:
            return super().weighted_sum_encoded(handles, emap)
        with obs.span("henn.weighted_sum", backend=self.name, taps=len(handles)):
            out = []
            for row, enc in emap.gather(handles):
                scales = [h.scale for h in row]
                if not np.isclose(scales, scales[0], rtol=1e-9).all():  # CkksContext.add's rule
                    raise ValueError(f"scale mismatch in weighted_sum: {min(scales)} vs {max(scales)}")
                level = min(h.level for h in row)
                q = self.ctx.ring(level).q
                accs = [np.zeros(self.ctx.n, dtype=object)] * (max(h.degree for h in row) + 1)
                for h, c in zip(row, enc.consts):
                    if c == 0:
                        continue
                    comps = self.ctx.mod_switch_to(h, level).components()
                    accs = [a + comp * c for a, comp in zip(accs, comps)] + accs[len(comps):]
                c0, c1, *high = (np.mod(a, q) for a in accs)
                out.append(
                    Ciphertext(
                        c0, c1, level, row[0].scale * enc.plain_scale, self.ctx.n, *high,
                        deferred=any(h.deferred for h in row),
                    )
                )
            return out


# --------------------------------------------------------------------------- full-RNS CKKS


class CkksRnsBackend(HeBackend):
    """The paper's CNN-HE-RNS backend: residue channels, position shards over the cores.

    It only chooses the groups of the base class's batch entry points
    (:meth:`_shard_plan`): each group of like handles packs into one
    ``(k, B, n)`` ciphertext, its positions split into contiguous
    shards, one per usable core while each keeps
    ``ctx.shard_min_elems`` elements.  Every context primitive is
    slot-parallel over the packed axis, so a shard computes exactly what
    the whole group computes on its positions; only the per-position
    constants of a packed group need the context's ``*_many`` ops
    (:meth:`_mul_consts`, :meth:`_add_consts`).
    """

    name = "ckks-rns"

    def __init__(
        self,
        params: CkksRnsParams,
        seed: int | np.random.Generator | None = 0,
        fault_injector: "Any | None" = None,
    ):
        self.ctx = CkksRnsContext(params)
        rng = derive_rng(seed)
        self.keys = self.ctx.keygen(rng)
        self._rng = rng
        self._key_rng = rng.spawn(1)[0]
        #: Resilience-harness hook; corrupts limbs / scales when armed.
        self.fault_injector = fault_injector

    @property
    def scale(self) -> float:
        return self.ctx.params.scale

    @property
    def max_batch(self) -> int:
        return self.ctx.slots

    #: zo, m + e0 and e1 (docs/KERNELS.md "Transform the sum").
    encrypt_transform_rows = 3

    def encrypt(self, values: np.ndarray):
        return self.encrypt_many([values])[0]

    def encrypt_many(self, rows: Sequence[np.ndarray]) -> list[RnsCiphertext]:
        """Batched encryption: one fused NTT sweep for all rows."""
        cts = self.ctx.encrypt_many(
            self.keys.pk, [np.asarray(v, dtype=np.float64) for v in rows], self._rng
        )
        if self.fault_injector is not None:
            for j, ct in enumerate(cts):
                cts[j] = ct = self.fault_injector.apply_ciphertext_faults(ct)
                ct.scale = self.fault_injector.next_scale(ct.scale)
        return cts

    def decrypt(self, handle, count: int | None = None) -> np.ndarray:
        return self.ctx.decrypt_real(self.keys.sk, handle, count)

    def add(self, a, b):
        return self.ctx.add(a, b)

    def add_plain(self, a, value):
        return self.ctx.add_plain(a, value if isinstance(value, np.ndarray) else float(value))

    def mul_plain_scalar(self, a, scalar: float, plain_scale: float | None = None):
        return self.ctx.mul_plain_scalar(a, scalar, plain_scale)

    def rescale(self, a, defer_high: bool = False):
        if a.degree > 1:
            out = self.ctx.rescale_ext(a, defer_high=defer_high)
        else:
            out = self.ctx.rescale(a)
        if self.fault_injector is not None:
            out.scale = self.fault_injector.next_scale(out.scale)
        return out

    # -- ct x ct products (relinearisation deferred) ------------------------------

    def square_raw(self, a):
        return self.ctx.square_raw(a)

    def mul_raw(self, a, b):
        return self.ctx.mul_raw(a, b)

    def relinearize_ext(self, e):
        if e.degree == 1:
            return e
        return self.ctx.relinearize(e, self.keys.relin, self.keys.relin3)

    def _encode_vector(self, values: np.ndarray, plain_scale: float, level: int):
        return self.ctx._cached_plain(values, plain_scale, level)

    def _mul_encoded(self, a, plain, plain_scale: float):
        return self.ctx.mul_plain(a, plain)

    def rotate(self, a, steps):
        """One step, or a sequence sharing one hoisted ModUp (:meth:`CkksRnsContext.rotate`)."""
        return self.ctx.rotate(a, steps, self.keys.galois)

    def _rotate_sum(self, handles, steps):
        """One ModUp sweep and one ModDown (:meth:`CkksRnsContext.rotate_sum`)."""
        return self.ctx.rotate_sum(list(handles), list(steps), self.keys.galois)

    add_rotation_keys = CkksBackend.add_rotation_keys

    def weighted_sum_encoded(self, handles, emap: EncodedMap) -> list[RnsCiphertext]:
        """The whole map at once: one exact limb GEMM per residue channel.

        Channel *i* computes ``(rows x taps) @ (taps x components·n)``
        over the dense integer weight matrix compiled with the map
        (:meth:`CkksRnsContext.weighted_sum`).  Bit-identical to the
        per-row ``mul_plain_scalar`` / ``add`` chain: both produce the
        canonical residue of the exact integer sum.  A map of
        slot-vector taps (no ``matrix``) sums its
        dyadic products per row instead
        (:meth:`CkksRnsContext.weighted_sum_plain`), bit-identical to
        the generic ``_mul_encoded`` / ``add`` chain.
        """
        with obs.span("henn.weighted_sum", backend=self.name, taps=len(handles)):
            if emap.matrix is None:
                rows = []
                for idxs, enc in emap.rows:
                    taps = range(len(handles)) if idxs is None else idxs
                    rows.append(([taps[t] for t in enc.keep], [enc.plain[t] for t in enc.keep]))
                return self.ctx.weighted_sum_plain(list(handles), rows)
            return self.ctx.weighted_sum(list(handles), emap.matrix, emap.plain_scale)

    def _shard_plan(self, handles: list[RnsCiphertext]) -> "list[list[np.ndarray]]":
        """Per packed group (:func:`_rns_groups`), its contiguous position shards.

        One shard per usable core, while each keeps
        ``ctx.shard_min_elems`` elements of its ``c0`` stack.  An armed
        fault injector keeps every group whole: its hooks draw from one
        stateful sequence, and a shard drawing its own would compute
        something else.
        """
        cores = 1 if self.fault_injector is not None else len(os.sched_getaffinity(0))
        plan = []
        for idxs in _rns_groups(handles):
            elems = len(idxs) * handles[int(idxs[0])].c0.size
            count = min(cores, len(idxs), elems // self.ctx.shard_min_elems)
            plan.append(np.array_split(idxs, max(1, count)))
        return plan

    # A packed (k, B, n) group takes one constant per position.

    def _mul_consts(self, h, consts: np.ndarray, ps: float):
        if h.c0.ndim == 3:
            return self.ctx.mul_plain_scalar_many(h, consts, ps)
        return super()._mul_consts(h, consts, ps)

    def _add_consts(self, h, consts: np.ndarray):
        if h.c0.ndim == 3:
            return self.ctx.add_plain_many(h, consts)
        return super()._add_consts(h, consts)


# --------------------------------------------------------------------------- groups and shards


def _run_shards(handles: list[Any], plan: "list[list[Sequence[int]]]", fn: Callable) -> list[Any]:
    """``fn(shard, its indices)`` for every shard of *plan*, one fork-join per
    group (:func:`_fork_join`); handles of no group pass through.

    A one-handle shard is the handle itself; a wider one (CKKS-RNS) is
    packed into ``(k, B, n)`` components and sliced back afterwards.
    """
    out = list(handles)

    def run(part: Sequence[int]) -> None:
        if len(part) == 1:
            i = part[0]
            out[i] = fn(handles[i], part)
        else:
            _unpack_rns(fn(_pack_rns(handles, part), part), part, out)

    for shards in plan:
        _fork_join(run, shards)
    return out


#: The position-shard pools by process id: a pool inherited across
#: ``fork()`` has no threads, and ``submit`` on it would wait forever.
_SHARD_POOLS: dict[int, ThreadPoolExecutor] = {}


def _fork_join(fn: Callable[[np.ndarray], None], shards: "list[np.ndarray]") -> None:
    """``fn`` of every shard: the calling thread runs the first, the pool the rest.

    One shard starts no thread.  The pool is created on first use with
    a thread per usable core but the caller's; its threads keep their
    metrics to themselves (:func:`~repro.obs.metrics.isolate_thread`),
    so counters see each logical operation once, from the caller.
    """
    if len(shards) == 1:
        return fn(shards[0])
    pool = _SHARD_POOLS.get(os.getpid())
    if pool is None:
        # Two racing callers both build one; setdefault keeps the first,
        # and the other, never submitted to, never starts a thread.
        workers = max(1, len(os.sched_getaffinity(0)) - 1)
        pool = _SHARD_POOLS.setdefault(
            os.getpid(), ThreadPoolExecutor(workers, "he-shard", initializer=isolate_thread)
        )
    futures = [pool.submit(fn, part) for part in shards[1:]]
    try:
        fn(shards[0])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _rns_groups(handles: Sequence[RnsCiphertext]) -> "list[np.ndarray]":
    """Indices of *handles* grouped for exact packing.

    A group shares level, scale, degree and the domain of its high
    components, so stacking them loses nothing.
    """
    groups: dict[tuple, list[int]] = {}
    for i, h in enumerate(handles):
        groups.setdefault((h.level, float(h.scale), h.degree, h.coeff_high), []).append(i)
    return [np.asarray(idxs, dtype=np.int64) for idxs in groups.values()]


def _pack_rns(handles: Sequence[RnsCiphertext], idxs: np.ndarray) -> RnsCiphertext:
    """Stack one group's handles into a ciphertext with ``(k, B, n)`` components."""
    members = [handles[int(i)].components() for i in idxs]
    comps = [np.stack(column, axis=1) for column in zip(*members)]
    return with_components(handles[int(idxs[0])], comps)


def _unpack_rns(res: RnsCiphertext, idxs: np.ndarray, out: "list[RnsCiphertext | None]") -> None:
    """Slice a packed result back into per-position ciphertexts."""
    for b, i in enumerate(idxs):
        out[int(i)] = with_components(
            res, [np.ascontiguousarray(c[:, b]) for c in res.components()]
        )
