"""Single-image (Lo-La-style) packing.

The default engine packs a *batch* per ciphertext (slot i = image i),
which optimises throughput.  Lo-La [31] instead packs one image's whole
feature vector into a single ciphertext and evaluates dense layers with
rotations, optimising single-query latency and ciphertext count.  This
module provides that packing for the dense stages:

* :func:`encrypt_features` — one ciphertext holding ``F`` features
  (padded to a power of two so log-rotations fold cleanly);
* :func:`dense_single` — ``y_o = <w_o, x>`` per output neuron via
  plaintext masking + a rotate-and-add tree (log2 F rotations);
* :func:`rotations_needed` — the power-of-two rotation set whose Galois
  keys the evaluator must hold.

Backends gain a ``rotate`` operation for this mode; the mock backend
models it as a slot roll.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.henn.backend import HeBackend

__all__ = [
    "BatchLayout",
    "rotations_needed",
    "encrypt_features",
    "dense_single",
    "decrypt_scores",
]


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


@dataclass(frozen=True)
class BatchLayout:
    """Slot layout of a batch-packed ciphertext: request *b* -> slot range *b*.

    A packed batch concatenates its members' slot ranges back to back —
    member *b* owns the half-open range ``[offsets[b], offsets[b] +
    counts[b])`` — and pads the tail up to the next power of two (capped
    at the backend's slot capacity) so downstream fold trees and SIMD
    kernels see an aligned width.  The pad slots are *waste*: they carry
    zeros, burn slots, and are reported through :meth:`record` as the
    ``serving.pack.pad_slots`` counter so the overhead stays visible in
    ``/healthz`` and ``obs.render_report``.

    The layout is pure bookkeeping — a slot-sharing backend consults it
    to pad; it never touches ciphertext data itself.
    """

    counts: tuple[int, ...]
    capacity: int
    offsets: tuple[int, ...] = field(init=False)
    total: int = field(init=False)
    padded_total: int = field(init=False)

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if not counts or any(c <= 0 for c in counts):
            raise ValueError("batch layout needs at least one positive slot count")
        offsets, at = [], 0
        for c in counts:
            offsets.append(at)
            at += c
        if at > self.capacity:
            raise ValueError(
                f"batch of {at} slots exceeds backend capacity {self.capacity}"
            )
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "total", at)
        object.__setattr__(
            self, "padded_total", min(_next_pow2(at), int(self.capacity))
        )

    @property
    def members(self) -> int:
        """Number of requests packed into the ciphertext."""
        return len(self.counts)

    @property
    def pad_slots(self) -> int:
        """Slots wasted on tail padding (zero when the batch is aligned)."""
        return self.padded_total - self.total

    def pad_values(self, values: np.ndarray) -> np.ndarray:
        """Zero-pad a ``total``-length slot vector out to ``padded_total``."""
        values = np.asarray(values)
        if values.shape[0] == self.padded_total:
            return values
        padded = np.zeros((self.padded_total,) + values.shape[1:], dtype=values.dtype)
        padded[: self.total] = values[: self.total]
        return padded

    def record(self, registry) -> None:
        """Publish this layout's packing stats to a metrics registry.

        Counters: ``serving.pack.batches`` (assemblies) /
        ``serving.pack.requests`` (members, however many images each
        carries) / ``serving.pack.slots`` (images) /
        ``serving.pack.pad_slots`` — the last one is the padding-waste
        satellite: cumulative slots burned on alignment, visible in
        ``/healthz`` and ``obs.render_report``.
        """
        registry.counter("serving.pack.batches").inc()
        registry.counter("serving.pack.requests").inc(self.members)
        registry.counter("serving.pack.slots").inc(self.total)
        registry.counter("serving.pack.pad_slots").inc(self.pad_slots)


def rotations_needed(n_features: int) -> tuple[int, ...]:
    """Left-rotations required by the fold tree for *n_features* inputs."""
    width = _next_pow2(n_features)
    out = []
    r = width // 2
    while r >= 1:
        out.append(r)
        r //= 2
    return tuple(out)


def encrypt_features(backend: HeBackend, features: np.ndarray):
    """Encrypt one feature vector into a single ciphertext (zero-padded)."""
    features = np.asarray(features, dtype=np.float64).ravel()
    width = _next_pow2(len(features))
    if width > backend.max_batch:
        raise ValueError(
            f"{len(features)} features need {width} slots; backend has {backend.max_batch}"
        )
    padded = np.zeros(backend.max_batch)
    padded[: len(features)] = features
    return backend.encrypt(padded), len(features)


def dense_single(backend: HeBackend, x_handle, n_features: int, weight: np.ndarray, bias: np.ndarray | None = None):
    """Dense layer on a single-image ciphertext.

    For each output neuron: mask with the weight row (one plaintext
    multiply), then fold slots with ``log2`` rotations so slot 0 carries
    the inner product.  Returns one handle per output; consumes one
    rescaling level.
    """
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2 or weight.shape[1] != n_features:
        raise ValueError(f"weight must be (out, {n_features})")
    width = _next_pow2(n_features)
    outs = []
    for o in range(weight.shape[0]):
        row = np.zeros(backend.max_batch)
        row[:n_features] = weight[o]
        t = backend.rescale(backend.mul_plain_vector(x_handle, row))
        for r in rotations_needed(n_features):
            t = backend.add(t, backend.rotate(t, r))
        if bias is not None:
            t = backend.add_plain(t, float(bias[o]))
        outs.append(t)
    return outs


def decrypt_scores(backend: HeBackend, handles) -> np.ndarray:
    """Slot-0 values of the output handles — the class scores."""
    return np.array([float(backend.decrypt(h, count=1)[0]) for h in handles])
