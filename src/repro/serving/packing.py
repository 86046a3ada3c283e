"""Batch assembly for the serving gateway: exact slot packing.

Three packing strategies sit behind one interface
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
* **Structural packing** — the fallback for unknown backends:
  :class:`MemberwiseBackend` wraps the backend so a "packed handle" is
  the tuple of member ciphertexts and every primitive fans out
  memberwise (per-image cost flat in batch size, correctness
  preserved).  It remains the baseline the packed-vs-memberwise
  benchmarks compare against.

:func:`serving_backend_for` picks the strategy; the gateway and the
engine's :meth:`~repro.henn.inference.HeInferenceEngine.assemble_batch`
/ :meth:`~repro.henn.inference.HeInferenceEngine.split_scores` hooks
are agnostic to which one is active.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.ckks.ciphertext import Ciphertext, CiphertextExt
from repro.ckksrns import RnsCiphertext
from repro.henn.backend import (
    CkksBackend,
    CkksRnsBackend,
    EncodedTaps,
    HeBackend,
)
from repro.henn.packing import BatchLayout
from repro.serving.errors import LaneSliceError, PackingError, PackingNestingError

__all__ = [
    "PackedHandle",
    "LaneHandle",
    "MemberwiseBackend",
    "SlotPackedBackend",
    "serving_backend_for",
]


class PackedHandle:
    """A batch-of-requests ciphertext: one member handle per request.

    ``counts[j]`` is the number of SIMD slots (images) member *j*
    claims, so the packed handle presents the same "slot axis" contract
    as a natively packed ciphertext: request *j* owns slot range
    ``[sum(counts[:j]), sum(counts[:j+1]))``.
    """

    __slots__ = ("members", "counts")

    def __init__(self, members: Sequence[Any], counts: Sequence[int]):
        if len(members) != len(counts) or not len(members):
            raise ValueError("bad PackedHandle arguments")
        self.members = list(members)
        self.counts = [int(c) for c in counts]

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PackedHandle(members={len(self.members)}, counts={self.counts})"


def _unwrap(a: Any) -> PackedHandle:
    if not isinstance(a, PackedHandle):
        raise TypeError(
            f"expected a PackedHandle, got {type(a).__name__} — memberwise "
            "backends only evaluate batches assembled via concat_slots"
        )
    return a


class MemberwiseBackend(HeBackend):
    """Structural packing: every primitive fans out over the members.

    Wraps an inner :class:`~repro.henn.backend.HeBackend` so the
    inference engine sees a backend whose handles are
    :class:`PackedHandle` tuples.  Each operation applies the inner
    backend's operation to every member with identical arguments, so
    the evaluation of member *j* is instruction-for-instruction the
    serial evaluation of request *j* — bit-identical results by
    construction (the packing-equivalence tests assert this on both
    real schemes).

    Plaintext-side work is *not* duplicated: :meth:`encode_taps`
    delegates to the inner backend once, and the replayed
    :class:`~repro.henn.backend.EncodedTaps` are shared by all members
    (and by the compiled inference plan).

    Attribute access falls through to the inner backend (``ctx``,
    ``levels``, …), so health telemetry and parameter introspection
    keep working unchanged.
    """

    native_slot_concat = True  # packs structurally, still exact

    def __init__(self, inner: HeBackend):
        if isinstance(inner, (MemberwiseBackend, SlotPackedBackend)):
            raise PackingNestingError(
                "refusing to nest packing wrappers: "
                f"{inner.name} is already batch-packed"
            )
        self.inner = inner
        self.name = f"packed+{inner.name}"

    def __getattr__(self, item: str) -> Any:
        if item == "inner":  # guard unpickling / partial construction
            raise AttributeError(item)
        return getattr(self.inner, item)

    # -- packing -----------------------------------------------------------------

    def concat_slots(self, handles: Sequence[Any], counts: Sequence[int]) -> PackedHandle:
        return PackedHandle(handles, counts)

    def slice_slots(self, a: PackedHandle, start: int, count: int) -> Any:
        """Member lookup: slices are only defined at request boundaries."""
        a = _unwrap(a)
        offset = 0
        for member, c in zip(a.members, a.counts):
            if offset == start and c == count:
                return member
            offset += c
        raise LaneSliceError(
            f"slot range [{start}, {start + count}) does not match a member "
            f"boundary of counts {a.counts}"
        )

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

    def scale_of(self, a: Any) -> float:
        return self.inner.scale_of(_unwrap(a).members[0])

    def level_of(self, a: Any) -> int:
        return self.inner.level_of(_unwrap(a).members[0])

    # -- memberwise primitives -----------------------------------------------------

    def encrypt(self, values: np.ndarray) -> Any:
        return self.inner.encrypt(values)

    def encrypt_many(self, rows: Sequence[np.ndarray]) -> list[Any]:
        return self.inner.encrypt_many(rows)

    def decrypt(self, handle: Any, count: int | None = None) -> np.ndarray:
        if not isinstance(handle, PackedHandle):
            return self.inner.decrypt(handle, count)
        parts = [
            np.asarray(self.inner.decrypt(m, count=c))
            for m, c in zip(handle.members, handle.counts)
        ]
        values = np.concatenate(parts)
        return values[:count] if count is not None else values

    def add(self, a: Any, b: Any) -> PackedHandle:
        a, b = _unwrap(a), _unwrap(b)
        return PackedHandle(
            [self.inner.add(x, y) for x, y in zip(a.members, b.members)], a.counts
        )

    def add_plain(self, a: Any, value: float) -> PackedHandle:
        a = _unwrap(a)
        return PackedHandle([self.inner.add_plain(m, value) for m in a.members], a.counts)

    def mul_plain_scalar(
        self, a: Any, scalar: float, plain_scale: float | None = None
    ) -> PackedHandle:
        a = _unwrap(a)
        return PackedHandle(
            [self.inner.mul_plain_scalar(m, scalar, plain_scale) for m in a.members],
            a.counts,
        )

    def mul(self, a: Any, b: Any) -> PackedHandle:
        a, b = _unwrap(a), _unwrap(b)
        return PackedHandle(
            [self.inner.mul(x, y) for x, y in zip(a.members, b.members)], a.counts
        )

    def square(self, a: Any) -> PackedHandle:
        a = _unwrap(a)
        return PackedHandle([self.inner.square(m) for m in a.members], a.counts)

    def rescale(self, a: Any) -> PackedHandle:
        a = _unwrap(a)
        return PackedHandle([self.inner.rescale(m) for m in a.members], a.counts)

    def mul_plain_vector(self, a: Any, values: np.ndarray) -> PackedHandle:
        """Slotwise plain multiply: each member sees its own slot range."""
        a = _unwrap(a)
        values = np.asarray(values)
        out, offset = [], 0
        for member, c in zip(a.members, a.counts):
            out.append(self.inner.mul_plain_vector(member, values[offset : offset + c]))
            offset += c
        return PackedHandle(out, a.counts)

    def rotate(self, a: Any, r: int) -> Any:
        raise NotImplementedError(
            "packed handles do not rotate: slot ranges belong to distinct requests"
        )

    # -- raw / extended ops (lazy relinearisation) --------------------------------
    #
    # An extended packed handle is simply a PackedHandle of inner
    # extended handles; every raw primitive fans out memberwise, so the
    # lazy evaluation of member *j* stays instruction-identical to its
    # serial lazy evaluation.

    @property
    def supports_lazy_relin(self) -> bool:  # type: ignore[override]
        return self.inner.supports_lazy_relin

    def _use_lazy(self) -> bool:
        return self.inner._use_lazy()

    def square_raw(self, a: Any) -> PackedHandle:
        a = _unwrap(a)
        return PackedHandle([self.inner.square_raw(m) for m in a.members], a.counts)

    def mul_raw(self, a: Any, b: Any) -> PackedHandle:
        a, b = _unwrap(a), _unwrap(b)
        return PackedHandle(
            [self.inner.mul_raw(x, y) for x, y in zip(a.members, b.members)], a.counts
        )

    def rescale_ext(self, e: Any, defer_high: bool = False) -> PackedHandle:
        e = _unwrap(e)
        return PackedHandle(
            [self.inner.rescale_ext(m, defer_high=defer_high) for m in e.members],
            e.counts,
        )

    def relinearize_ext(self, e: Any) -> PackedHandle:
        e = _unwrap(e)
        return PackedHandle([self.inner.relinearize_ext(m) for m in e.members], e.counts)

    def add_ext(self, a: Any, b: Any) -> PackedHandle:
        a, b = _unwrap(a), _unwrap(b)
        return PackedHandle(
            [self.inner.add_ext(x, y) for x, y in zip(a.members, b.members)], a.counts
        )

    def mul_plain_scalar_ext(
        self, e: Any, scalar: float, plain_scale: float | None = None
    ) -> PackedHandle:
        e = _unwrap(e)
        return PackedHandle(
            [self.inner.mul_plain_scalar_ext(m, scalar, plain_scale) for m in e.members],
            e.counts,
        )

    def add_plain_ext(self, e: Any, value: float) -> PackedHandle:
        e = _unwrap(e)
        return PackedHandle([self.inner.add_plain_ext(m, value) for m in e.members], e.counts)

    def scale_of_ext(self, e: Any) -> float:
        return self.inner.scale_of_ext(_unwrap(e).members[0])

    # -- composite fast paths ------------------------------------------------------

    def weighted_sum(
        self, handles: Sequence[Any], weights: np.ndarray, plain_scale: float | None = None
    ) -> PackedHandle:
        packed = [_unwrap(h) for h in handles]
        counts = packed[0].counts
        return PackedHandle(
            [
                self.inner.weighted_sum([p.members[j] for p in packed], weights, plain_scale)
                for j in range(len(counts))
            ],
            counts,
        )

    def encode_taps(self, weights: np.ndarray, plain_scale: float | None = None) -> EncodedTaps:
        return self.inner.encode_taps(weights, plain_scale)

    def weighted_sum_encoded(self, handles: Sequence[Any], enc: EncodedTaps) -> PackedHandle:
        packed = [_unwrap(h) for h in handles]
        counts = packed[0].counts
        return PackedHandle(
            [
                self.inner.weighted_sum_encoded([p.members[j] for p in packed], enc)
                for j in range(len(counts))
            ],
            counts,
        )


# --------------------------------------------------------------------- lane packing


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


class _RnsLanes:
    """Lane adapter for CKKS-RNS: stack ``(k, n)`` components to ``(k, B, n)``.

    The lane axis sits where the batched BSGS machinery already packs
    positions (axis 1), so every context kernel — NTT plans, keyswitch,
    rescale, fused weighted sums — rides over it unchanged, and
    ciphertext–ciphertext multiplication is native on the stacked form.
    """

    native_ct_mul = True

    @staticmethod
    def stack(cts: Sequence[RnsCiphertext]) -> RnsCiphertext:
        first = cts[0]
        return RnsCiphertext(
            np.stack([c.c0 for c in cts], axis=1),
            np.stack([c.c1 for c in cts], axis=1),
            first.level,
            first.scale,
        )

    @staticmethod
    def extract(ct: RnsCiphertext, lane: int) -> RnsCiphertext:
        return RnsCiphertext(
            np.ascontiguousarray(ct.c0[:, lane]),
            np.ascontiguousarray(ct.c1[:, lane]),
            ct.level,
            ct.scale,
        )


class _CkksLanes:
    """Lane adapter for multiprecision CKKS: stack ``(n,)`` rows to ``(B, n)``.

    The big-int coefficientwise operations (add, plain multiply,
    centered lift, rounded division, modulus switch) broadcast over the
    leading lane axis; Kronecker multiplication is inherently 1-D, so
    ciphertext–ciphertext products loop lanes (``native_ct_mul`` False).
    """

    native_ct_mul = False

    @staticmethod
    def stack(cts: Sequence[Ciphertext]) -> Ciphertext:
        first = cts[0]
        return Ciphertext(
            np.stack([c.c0 for c in cts], axis=0),
            np.stack([c.c1 for c in cts], axis=0),
            first.level,
            first.scale,
            first.n,
        )

    @staticmethod
    def extract(ct: Ciphertext, lane: int) -> Ciphertext:
        return Ciphertext(
            np.ascontiguousarray(ct.c0[lane]),
            np.ascontiguousarray(ct.c1[lane]),
            ct.level,
            ct.scale,
            ct.n,
        )

    @staticmethod
    def stack_ext(cts: Sequence[CiphertextExt]) -> CiphertextExt:
        first = cts[0]
        return CiphertextExt(
            np.stack([c.c0 for c in cts], axis=0),
            np.stack([c.c1 for c in cts], axis=0),
            np.stack([c.c2 for c in cts], axis=0),
            first.level,
            first.scale,
            first.n,
            c3=(
                np.stack([c.c3 for c in cts], axis=0) if first.c3 is not None else None
            ),
            deferred=first.deferred,
        )

    @staticmethod
    def extract_ext(ct: CiphertextExt, lane: int) -> CiphertextExt:
        return CiphertextExt(
            np.ascontiguousarray(ct.c0[lane]),
            np.ascontiguousarray(ct.c1[lane]),
            np.ascontiguousarray(ct.c2[lane]),
            ct.level,
            ct.scale,
            ct.n,
            c3=(np.ascontiguousarray(ct.c3[lane]) if ct.c3 is not None else None),
            deferred=ct.deferred,
        )

    @classmethod
    def extract_any(cls, ct: "Ciphertext | CiphertextExt", lane: int):
        if isinstance(ct, CiphertextExt):
            return cls.extract_ext(ct, lane)
        return cls.extract(ct, lane)


class SlotPackedBackend(HeBackend):
    """True SIMD lane packing: B member ciphertexts in one stacked handle.

    Wraps a real CKKS backend so a packed batch is a *single*
    :class:`LaneHandle` whose ciphertext components carry a lane axis.
    Every primitive issues **one** inner-backend call on the stacked
    components (two lane loops excepted: big-int CKKS ct–ct multiply and
    decryption), so conv / SLAF / dense evaluation cost per layer is
    constant in the batch size — the amortized per-image win the
    serving benchmarks record.

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

    Attribute access falls through to the inner backend (``ctx``,
    ``keys``, …), so health telemetry and parameter introspection keep
    working unchanged.
    """

    native_slot_concat = True  # lane-stacked, still exact

    def __init__(self, inner: HeBackend):
        if isinstance(inner, (MemberwiseBackend, SlotPackedBackend)):
            raise PackingNestingError(
                "refusing to nest packing wrappers: "
                f"{inner.name} is already batch-packed"
            )
        if isinstance(inner, CkksRnsBackend):
            self._lanes = _RnsLanes()
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
        layout = handle.layout
        parts = [
            np.asarray(
                self.inner.decrypt(self._lanes.extract(handle.ct, b), count=c)
            )
            for b, c in enumerate(layout.counts)
        ]
        values = np.concatenate(parts)
        return values[:count] if count is not None else values

    def _rewrap(self, a: LaneHandle, ct: Any) -> LaneHandle:
        return LaneHandle(ct, a.layout)

    @staticmethod
    def _common_layout(a: LaneHandle, b: LaneHandle) -> BatchLayout:
        if a.layout.counts != b.layout.counts:
            raise PackingError(
                f"lane layouts differ: {a.layout.counts} vs {b.layout.counts}"
            )
        return a.layout

    def add(self, a: Any, b: Any) -> LaneHandle:
        a, b = _unwrap_lane(a), _unwrap_lane(b)
        return LaneHandle(self.inner.add(a.ct, b.ct), self._common_layout(a, b))

    def add_plain(self, a: Any, value: float) -> LaneHandle:
        a = _unwrap_lane(a)
        return self._rewrap(a, self.inner.add_plain(a.ct, value))

    def mul_plain_scalar(
        self, a: Any, scalar: float, plain_scale: float | None = None
    ) -> LaneHandle:
        a = _unwrap_lane(a)
        return self._rewrap(a, self.inner.mul_plain_scalar(a.ct, scalar, plain_scale))

    def mul(self, a: Any, b: Any) -> LaneHandle:
        a, b = _unwrap_lane(a), _unwrap_lane(b)
        layout = self._common_layout(a, b)
        if self._lanes.native_ct_mul:
            return LaneHandle(self.inner.mul(a.ct, b.ct), layout)
        # Kronecker multiplication is single-polynomial: loop lanes.
        return LaneHandle(
            self._lanes.stack(
                [
                    self.inner.mul(
                        self._lanes.extract(a.ct, i), self._lanes.extract(b.ct, i)
                    )
                    for i in range(layout.lanes)
                ]
            ),
            layout,
        )

    def square(self, a: Any) -> LaneHandle:
        a = _unwrap_lane(a)
        if self._lanes.native_ct_mul:
            return self._rewrap(a, self.inner.square(a.ct))
        return self._rewrap(
            a,
            self._lanes.stack(
                [
                    self.inner.square(self._lanes.extract(a.ct, i))
                    for i in range(a.layout.lanes)
                ]
            ),
        )

    def rescale(self, a: Any) -> LaneHandle:
        a = _unwrap_lane(a)
        return self._rewrap(a, self.inner.rescale(a.ct))

    def rotate(self, a: Any, r: int) -> Any:
        raise NotImplementedError(
            "packed handles do not rotate: lanes belong to distinct requests"
        )

    # -- raw / extended ops (lazy relinearisation) --------------------------------
    #
    # An extended lane handle stacks the members' extended ciphertexts
    # along the lane axis.  Componentwise primitives (rescale, add,
    # plain ops) are lane-generic and issue one inner call; the Kronecker
    # products and keyswitch of big-int CKKS loop lanes, exactly like
    # the eager ``mul`` / ``square`` above.

    @property
    def supports_lazy_relin(self) -> bool:  # type: ignore[override]
        return self.inner.supports_lazy_relin

    def _use_lazy(self) -> bool:
        return self.inner._use_lazy()

    def square_raw(self, a: Any) -> LaneHandle:
        a = _unwrap_lane(a)
        if self._lanes.native_ct_mul:
            return self._rewrap(a, self.inner.square_raw(a.ct))
        return self._rewrap(
            a,
            self._lanes.stack_ext(
                [
                    self.inner.square_raw(self._lanes.extract(a.ct, i))
                    for i in range(a.layout.lanes)
                ]
            ),
        )

    def mul_raw(self, a: Any, b: Any) -> LaneHandle:
        a, b = _unwrap_lane(a), _unwrap_lane(b)
        layout = self._common_layout(a, b)
        if self._lanes.native_ct_mul:
            return LaneHandle(self.inner.mul_raw(a.ct, b.ct), layout)
        return LaneHandle(
            self._lanes.stack_ext(
                [
                    self.inner.mul_raw(
                        self._lanes.extract(a.ct, i), self._lanes.extract_any(b.ct, i)
                    )
                    for i in range(layout.lanes)
                ]
            ),
            layout,
        )

    def rescale_ext(self, e: Any, defer_high: bool = False) -> LaneHandle:
        e = _unwrap_lane(e)
        return self._rewrap(e, self.inner.rescale_ext(e.ct, defer_high=defer_high))

    def relinearize_ext(self, e: Any) -> LaneHandle:
        e = _unwrap_lane(e)
        if self._lanes.native_ct_mul:
            return self._rewrap(e, self.inner.relinearize_ext(e.ct))
        return self._rewrap(
            e,
            self._lanes.stack(
                [
                    self.inner.relinearize_ext(self._lanes.extract_ext(e.ct, i))
                    for i in range(e.layout.lanes)
                ]
            ),
        )

    def add_ext(self, a: Any, b: Any) -> LaneHandle:
        a, b = _unwrap_lane(a), _unwrap_lane(b)
        return LaneHandle(self.inner.add_ext(a.ct, b.ct), self._common_layout(a, b))

    def mul_plain_scalar_ext(
        self, e: Any, scalar: float, plain_scale: float | None = None
    ) -> LaneHandle:
        e = _unwrap_lane(e)
        return self._rewrap(e, self.inner.mul_plain_scalar_ext(e.ct, scalar, plain_scale))

    def add_plain_ext(self, e: Any, value: float) -> LaneHandle:
        e = _unwrap_lane(e)
        return self._rewrap(e, self.inner.add_plain_ext(e.ct, value))

    def scale_of_ext(self, e: Any) -> float:
        return self.inner.scale_of_ext(_unwrap_lane(e).ct)

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
        if not self._lanes.native_ct_mul:
            return super().poly_eval_many(handles, rows, program)
        layout = packed[0].layout
        res = self.inner.poly_eval_many([p.ct for p in packed], rows, program)
        return [LaneHandle(ct, layout) for ct in res]

    def rescale_many(self, handles: Sequence[Any]) -> list[Any]:
        packed = [_unwrap_lane(h) for h in handles]
        if not self._lanes.native_ct_mul:
            return super().rescale_many(handles)
        res = self.inner.rescale_many([p.ct for p in packed])
        return [LaneHandle(ct, p.layout) for ct, p in zip(res, packed)]

    def add_plain_each(self, handles: Sequence[Any], values: np.ndarray) -> list[Any]:
        packed = [_unwrap_lane(h) for h in handles]
        if not self._lanes.native_ct_mul:
            return super().add_plain_each(handles, values)
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
    * Anything else falls back to :class:`MemberwiseBackend` fan-out
      (correct, but per-image cost flat in batch size).
    """
    if isinstance(backend, (MemberwiseBackend, SlotPackedBackend)):
        raise PackingNestingError(
            f"{backend.name} is already a packing wrapper; wrap the raw backend"
        )
    if backend.native_slot_concat:
        return backend
    if isinstance(backend, (CkksBackend, CkksRnsBackend)):
        return SlotPackedBackend(backend)
    return MemberwiseBackend(backend)
