"""Batch assembly for the serving gateway: exact slot packing.

Two packing strategies sit behind one interface
(:meth:`repro.henn.backend.HeBackend.concat_slots` /
:meth:`~repro.henn.backend.HeBackend.slice_slots`):

* **Native SIMD packing** — backends whose slot concatenation is exact
  (``native_slot_concat``) stack N requests into genuinely shared
  ciphertexts; the engine then evaluates the network **once** for the
  whole batch.  The mock backend does this (its handles are plaintext
  slot vectors), which is where the near-``max_batch``× serving
  throughput gain comes from.
* **Lane packing** — the real CKKS backends get the same
  one-evaluation-per-batch behaviour from :class:`SlotPackedBackend`:
  the members' ciphertext components are stacked along a new *lane*
  axis (``(k, B, n)`` residues on CKKS-RNS, ``(B, n)`` big-int
  coefficients on CKKS) described by a
  :class:`~repro.henn.packing.BatchLayout`, and every primitive issues
  **one** inner-backend call on the stacked components — the NTT plans,
  key switch, rescale and fused weighted-sum kernels are all
  shape-generic over the lane axis, so per-op cost is amortized across
  the batch while each lane's arithmetic stays instruction-identical to
  its serial evaluation (bit-identity by construction, asserted per
  backend).  Rotation-based *slot-range* concatenation is deliberately
  not used: a Galois rotation's key-switch noise would break
  bit-identity with the serial run.

:func:`serving_backend_for` picks the strategy — a backend that is
neither refuses with :class:`~repro.serving.errors.PackingError`; the
gateway and the engine's
:meth:`~repro.henn.inference.HeInferenceEngine.assemble_batch` /
:meth:`~repro.henn.inference.HeInferenceEngine.split_scores` hooks are
agnostic to which one is active.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.ckks.ciphertext import require_degree1, with_components
from repro.henn.backend import (
    CkksBackend,
    CkksRnsBackend,
    EncodedTaps,
    HeBackend,
)
from repro.henn.packing import BatchLayout
from repro.serving.errors import LaneSliceError, PackingError, PackingNestingError

__all__ = ["LaneHandle", "SlotPackedBackend", "serving_backend_for"]


class LaneHandle:
    """A lane-stacked batch ciphertext plus the layout describing it.

    ``ct`` is a single inner-backend ciphertext whose components carry
    an extra *lane* axis (one lane per packed request); ``layout`` is
    the :class:`~repro.henn.packing.BatchLayout` mapping request *b* to
    lane *b* with its slot count, so slot-range slices resolve back to
    members without touching ciphertext data.
    """

    __slots__ = ("ct", "layout")

    def __init__(self, ct: Any, layout: BatchLayout):
        self.ct = ct
        self.layout = layout

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LaneHandle(lanes={self.layout.lanes}, counts={self.layout.counts})"


def _unwrap_lane(a: Any) -> LaneHandle:
    if not isinstance(a, LaneHandle):
        raise TypeError(
            f"expected a LaneHandle, got {type(a).__name__} — slot-packed "
            "backends only evaluate batches assembled via concat_slots"
        )
    return a


class _Lanes:
    """Stack member ciphertexts of any degree along a lane axis and back.

    The two schemes differ in where the lane axis sits and in whether a
    ciphertext–ciphertext product is defined on the stacked form; both
    facts live in the subclasses and nowhere else.
    """

    axis: int
    #: Whether the inner ``poly_eval_many`` accepts lane-stacked handles
    #: (it does where :meth:`ct_op` is one call on the stack).
    batches_positions: bool

    def stack(self, cts: Sequence[Any]) -> Any:
        comps = zip(*(c.components() for c in cts))
        return with_components(cts[0], [np.stack(cs, axis=self.axis) for cs in comps])

    def extract(self, ct: Any, lane: int) -> Any:
        index = (slice(None),) * self.axis + (lane,)
        return with_components(
            ct, [np.ascontiguousarray(c[index]) for c in ct.components()]
        )

    def ct_op(self, fn: Callable[..., Any], lanes: int, *cts: Any) -> Any:
        """Apply an inner ct × ct primitive (product, key switch) to lane stacks."""
        raise NotImplementedError


class _RnsLanes(_Lanes):
    """Lane adapter for CKKS-RNS: stack ``(k, n)`` components to ``(k, B, n)``.

    The lane axis sits where the batched BSGS machinery already packs
    positions (axis 1), so every context kernel — NTT plans, keyswitch,
    rescale, fused weighted sums — rides over it unchanged, and
    ciphertext–ciphertext multiplication is native on the stacked form.
    """

    axis = 1
    batches_positions = True

    def ct_op(self, fn: Callable[..., Any], lanes: int, *cts: Any) -> Any:
        return fn(*cts)


class _CkksLanes(_Lanes):
    """Lane adapter for multiprecision CKKS: stack ``(n,)`` rows to ``(B, n)``.

    The big-int coefficientwise operations (add, plain multiply,
    centered lift, rounded division, modulus switch) broadcast over the
    leading lane axis; Kronecker multiplication is inherently 1-D, so
    ciphertext–ciphertext products and key switches loop lanes.
    """

    axis = 0
    batches_positions = False

    def ct_op(self, fn: Callable[..., Any], lanes: int, *cts: Any) -> Any:
        return self.stack(
            [fn(*(self.extract(ct, i) for ct in cts)) for i in range(lanes)]
        )


class SlotPackedBackend(HeBackend):
    """True SIMD lane packing: B member ciphertexts in one stacked handle.

    Wraps a real CKKS backend so a packed batch is a *single*
    :class:`LaneHandle` whose ciphertext components carry a lane axis.
    Every primitive issues **one** inner-backend call on the stacked
    components (two lane loops excepted: big-int CKKS ct–ct products /
    key switches and decryption), so conv / SLAF / dense evaluation cost
    per layer is constant in the batch size — the amortized per-image
    win the serving benchmarks record.

    Exactness: all stacked arithmetic is elementwise or
    coefficientwise-broadcast over the lane axis, so lane *b*'s residues
    (or big-int coefficients) after any operation equal the serial
    evaluation of member *b* bit for bit — the packing-equivalence tests
    assert this against the serial engine on both real schemes.

    Plaintext-side work is shared, not duplicated: :meth:`encode_taps`
    delegates to the inner backend, encoded taps broadcast across lanes,
    and :func:`repro.henn.plan._backend_sig` resolves through ``inner``
    so packed and serial engines share one
    :class:`~repro.utils.cache.PlaintextCache` (zero fresh encodes on
    the warm path, count-asserted in CI).

    Every public :class:`~repro.henn.backend.HeBackend` method is either
    overridden here or a composite the base class builds from this
    wrapper's own primitives, hence lane-correct as it stands
    (``tests/serving/test_packing.py`` lists those and fails when a new
    backend method is neither).

    Attribute access falls through to the inner backend (``ctx``,
    ``keys``, …), so health telemetry and parameter introspection keep
    working unchanged.
    """

    native_slot_concat = True  # lane-stacked, still exact

    def __init__(self, inner: HeBackend):
        if isinstance(inner, SlotPackedBackend):
            raise PackingNestingError(
                "refusing to nest packing wrappers: "
                f"{inner.name} is already batch-packed"
            )
        if isinstance(inner, CkksRnsBackend):
            self._lanes: _Lanes = _RnsLanes()
        elif isinstance(inner, CkksBackend):
            self._lanes = _CkksLanes()
        else:
            raise PackingError(
                f"no lane adapter for backend {inner.name!r}: slot packing "
                "needs lane-generic ciphertext components (CKKS or CKKS-RNS)"
            )
        self.inner = inner
        self.name = f"slotpack+{inner.name}"

    def __getattr__(self, item: str) -> Any:
        if item in ("inner", "_lanes"):  # guard unpickling / partial construction
            raise AttributeError(item)
        return getattr(self.inner, item)

    # -- packing -----------------------------------------------------------------

    def concat_slots(self, handles: Sequence[Any], counts: Sequence[int]) -> LaneHandle:
        """Stack member ciphertexts along the lane axis (exact, no rotation).

        Members must agree on level and scale exactly — fresh
        encryptions do; a drifted ciphertext is the gateway's
        admission-validation problem, reported here as
        :class:`~repro.serving.errors.PackingError` so it can never
        silently corrupt lane-mates.
        """
        if len(handles) != len(counts) or not len(handles):
            raise PackingError("bad concat_slots arguments")
        layout = BatchLayout(tuple(counts), self.inner.max_batch)
        head = handles[0]
        for h in handles:
            require_degree1(h, "concat_slots")
            if self.inner.level_of(h) != self.inner.level_of(head) or float(
                self.inner.scale_of(h)
            ) != float(self.inner.scale_of(head)):
                raise PackingError(
                    "concat_slots requires identical scales and levels"
                )
        return LaneHandle(self._lanes.stack(list(handles)), layout)

    def slice_slots(self, a: LaneHandle, start: int, count: int) -> Any:
        """One member's ciphertext back out of the lane stack."""
        a = _unwrap_lane(a)
        require_degree1(a.ct, "slice_slots")
        try:
            lane = a.layout.lane_for_range(start, count)
        except ValueError as exc:
            raise LaneSliceError(str(exc)) from None
        return self._lanes.extract(a.ct, lane)

    # -- scalars / capacity --------------------------------------------------------

    @property
    def scale(self) -> float:
        return self.inner.scale

    @property
    def max_batch(self) -> int:
        return self.inner.max_batch

    @property
    def encrypt_transform_rows(self) -> int:
        return self.inner.encrypt_transform_rows

    @property
    def relin_mode(self) -> str:
        return self.inner.relin_mode

    @relin_mode.setter
    def relin_mode(self, mode: str) -> None:
        self.inner.relin_mode = mode

    def scale_of(self, a: Any) -> float:
        return self.inner.scale_of(_unwrap_lane(a).ct)

    def level_of(self, a: Any) -> int:
        return self.inner.level_of(_unwrap_lane(a).ct)

    # -- stacked primitives --------------------------------------------------------

    def encrypt(self, values: np.ndarray) -> Any:
        return self.inner.encrypt(values)

    def encrypt_many(self, rows: Sequence[np.ndarray]) -> list[Any]:
        return self.inner.encrypt_many(rows)

    def decrypt(self, handle: Any, count: int | None = None) -> np.ndarray:
        if not isinstance(handle, LaneHandle):
            return self.inner.decrypt(handle, count)
        require_degree1(handle.ct, "decrypt")
        parts = [
            np.asarray(
                self.inner.decrypt(self._lanes.extract(handle.ct, b), count=c)
            )
            for b, c in enumerate(handle.layout.counts)
        ]
        values = np.concatenate(parts)
        return values[:count] if count is not None else values

    @staticmethod
    def _common_layout(a: LaneHandle, b: LaneHandle) -> BatchLayout:
        if a.layout.counts != b.layout.counts:
            raise PackingError(
                f"lane layouts differ: {a.layout.counts} vs {b.layout.counts}"
            )
        return a.layout

    def _ct_op(self, fn: Callable[..., Any], a: Any, b: Any = None) -> LaneHandle:
        """One ct × ct primitive over lane handles (see :meth:`_Lanes.ct_op`)."""
        a = _unwrap_lane(a)
        if b is None:
            return LaneHandle(self._lanes.ct_op(fn, a.layout.lanes, a.ct), a.layout)
        b = _unwrap_lane(b)
        layout = self._common_layout(a, b)
        return LaneHandle(self._lanes.ct_op(fn, layout.lanes, a.ct, b.ct), layout)

    def add(self, a: Any, b: Any) -> LaneHandle:
        a, b = _unwrap_lane(a), _unwrap_lane(b)
        return LaneHandle(self.inner.add(a.ct, b.ct), self._common_layout(a, b))

    def add_plain(self, a: Any, value: float) -> LaneHandle:
        a = _unwrap_lane(a)
        return LaneHandle(self.inner.add_plain(a.ct, value), a.layout)

    def mul_plain_scalar(
        self, a: Any, scalar: float, plain_scale: float | None = None
    ) -> LaneHandle:
        a = _unwrap_lane(a)
        return LaneHandle(self.inner.mul_plain_scalar(a.ct, scalar, plain_scale), a.layout)

    def rescale(self, a: Any, defer_high: bool = False) -> LaneHandle:
        a = _unwrap_lane(a)
        return LaneHandle(self.inner.rescale(a.ct, defer_high=defer_high), a.layout)

    def mul(self, a: Any, b: Any) -> LaneHandle:
        return self._ct_op(self.inner.mul, a, b)

    def square(self, a: Any) -> LaneHandle:
        return self._ct_op(self.inner.square, a)

    def square_raw(self, a: Any) -> LaneHandle:
        return self._ct_op(self.inner.square_raw, a)

    def mul_raw(self, a: Any, b: Any) -> LaneHandle:
        return self._ct_op(self.inner.mul_raw, a, b)

    def relinearize_ext(self, e: Any) -> LaneHandle:
        return self._ct_op(self.inner.relinearize_ext, e)

    def rotate(self, a: Any, r: int) -> Any:
        raise NotImplementedError(
            "packed handles do not rotate: lanes belong to distinct requests"
        )

    # -- composite fast paths ------------------------------------------------------

    def weighted_sum(
        self, handles: Sequence[Any], weights: np.ndarray, plain_scale: float | None = None
    ) -> LaneHandle:
        packed = [_unwrap_lane(h) for h in handles]
        layout = packed[0].layout
        return LaneHandle(
            self.inner.weighted_sum([p.ct for p in packed], weights, plain_scale),
            layout,
        )

    def encode_taps(self, weights: np.ndarray, plain_scale: float | None = None) -> EncodedTaps:
        return self.inner.encode_taps(weights, plain_scale)

    def weighted_sum_encoded(self, handles: Sequence[Any], enc: EncodedTaps) -> LaneHandle:
        packed = [_unwrap_lane(h) for h in handles]
        layout = packed[0].layout
        return LaneHandle(
            self.inner.weighted_sum_encoded([p.ct for p in packed], enc), layout
        )

    def poly_eval_many(
        self,
        handles: Sequence[Any],
        rows: np.ndarray,
        program: Any = None,
    ) -> list[Any]:
        """All positions × all lanes through the inner batched BSGS path.

        On CKKS-RNS the inner backend stacks positions on axis 1 of each
        handle's ``(k, B, n)`` components, giving ``(k, P, B, n)`` packs
        — one BSGS program run covers every feature-map position *and*
        every lane.  On big-int CKKS the generic per-position loop runs,
        with each primitive lane-stacked through this wrapper.
        """
        packed = [_unwrap_lane(h) for h in handles]
        if not self._lanes.batches_positions:
            return super().poly_eval_many(handles, rows, program)
        layout = packed[0].layout
        res = self.inner.poly_eval_many([p.ct for p in packed], rows, program)
        return [LaneHandle(ct, layout) for ct in res]

    def rescale_many(self, handles: Sequence[Any]) -> list[Any]:
        packed = [_unwrap_lane(h) for h in handles]
        res = self.inner.rescale_many([p.ct for p in packed])
        return [LaneHandle(ct, p.layout) for ct, p in zip(res, packed)]

    def add_plain_each(self, handles: Sequence[Any], values: np.ndarray) -> list[Any]:
        packed = [_unwrap_lane(h) for h in handles]
        res = self.inner.add_plain_each([p.ct for p in packed], values)
        return [LaneHandle(ct, p.layout) for ct, p in zip(res, packed)]


def serving_backend_for(backend: HeBackend) -> HeBackend:
    """The backend a batching gateway should run its engine on.

    * Already-wrapped backends are **rejected** with
      :class:`~repro.serving.errors.PackingNestingError` — stacking
      packing wrappers would double-pack lanes and corrupt slot
      accounting.
    * Backends with exact native slot concatenation serve as-is (mock).
    * The real CKKS schemes get :class:`SlotPackedBackend` lane packing
      — one evaluation per batch, amortized per-image cost.
    * Anything else has no exact packing and raises
      :class:`~repro.serving.errors.PackingError`.
    """
    if isinstance(backend, SlotPackedBackend):
        raise PackingNestingError(
            f"{backend.name} is already a packing wrapper; wrap the raw backend"
        )
    if backend.native_slot_concat:
        return backend
    return SlotPackedBackend(backend)
