"""Compile-once / run-many inference plans.

An :class:`InferencePlan` walks a compiled HE graph **once** per
(backend, level schedule, scale) and precomputes everything about the
evaluation that does not depend on the ciphertexts:

* one :class:`PlannedTaps` per linear map (conv, dense, pooling): the
  layer's :class:`~repro.henn.layers.TapProgram` — which handles each
  output position gathers, with which weights, and the bias it adds —
  encoded once as an :class:`~repro.henn.backend.EncodedMap`: the
  quantized weights of every row
  (:meth:`repro.henn.backend.HeBackend.encode_taps`, ``round(w·Δ)``; no
  scheme plaintext is encoded), the bias, and the dense integer matrix
  split for the exact limb GEMM the CKKS-RNS kernel runs;
* a :class:`~repro.utils.cache.PlaintextCache` installed on the
  backend's context, which memoizes the runtime plaintexts (biases,
  polynomial constant terms, packed diagonals) the first image encodes
  — every later image performs **zero** plaintext encodes, which the CI
  smoke job asserts by counting ``plan.encode.fresh`` /
  ``plan.cache.miss``, not by timing.

Every other layer (activation, flatten) sits in the plan as it is.
:class:`PlannedTaps` is the executor of the per-position layout; it is
bit-identical to the layer's reference ``forward``: both read the same
tap program in the same order, weight quantization is deterministic,
and cached plaintexts are the very objects a fresh encode would produce
(see ``docs/PERFORMANCE.md``).

Where the graph fits the slots of a backend that does not share them
between requests, the plan also offers the **packed** single-image
layout: one ciphertext per request — or, when the first map is cheaper
that way, one per input window of that map — each linear map a BSGS
diagonal product compiled from the same tap program, the window-encoded
first map one plaintext weighted sum
(:class:`repro.henn.packing.PackedPlan`).  The layout of a request
follows from its batch size — one image travels packed.  The plan's
``layout`` (:func:`repro.henn.packing.packed_layout`, ``None`` where the
layout is not offered) is the one record of that decision the engine
and admission read; it is also published for the layer-less client
(:func:`repro.henn.packing.publish_layout`).  The packed executors (and
their Galois keys) compile on first use: a backend that only ever sees
full batches never pays for them.
"""

from __future__ import annotations

import functools
import threading
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.henn.backend import EncodedMap, HeBackend
from repro.henn.layers import HeFlatten, HeLayer, HeLinearMap, check_level_budget
from repro.obs.metrics import get_registry
from repro.utils.cache import PlaintextCache

if TYPE_CHECKING:
    from repro.henn.packing import PackedLayout, PackedPlan

__all__ = ["InferencePlan", "PlannedTaps", "compile_plan"]


class PlannedTaps(HeLayer):
    """A linear map encoded once as an :class:`EncodedMap`.

    ``forward``: one map-wide weighted sum, rescaled and biased
    (:meth:`HeBackend.weighted_sum_encoded`), then one batched
    relinearisation — the sweep of an activation in front, paid over
    this map's outputs.  :meth:`compile` plans a layer's tap program (the
    per-position layout); the packed layout runs the group sums of its
    diagonal products through one as well
    (:class:`repro.henn.packing.PackedTaps`).
    """

    depth = 1

    def __init__(
        self,
        src: HeLinearMap,
        emap: EncodedMap,
        in_shape: tuple[int, ...],
        out_shape: tuple[int, ...],
    ):
        self.src = src
        self.map = emap
        self.in_shape = tuple(in_shape)
        self.out_shape = tuple(out_shape)

    @classmethod
    def compile(cls, backend: HeBackend, src: HeLinearMap, in_shape: tuple[int, ...]) -> "PlannedTaps":
        """Plan *src*'s tap program over *in_shape*, every row quantized by *backend*."""
        out_shape, entries, bias = src.taps(tuple(in_shape))
        rows = [(idxs, backend.encode_taps(ws)) for idxs, ws in entries]
        return cls(src, EncodedMap(rows, int(np.prod(in_shape)), bias), in_shape, out_shape)

    def forward(self, backend: HeBackend, x: np.ndarray) -> np.ndarray:
        if x.shape != self.in_shape:
            raise ValueError(f"{self.src!r} was planned for {self.in_shape}, got {x.shape}")
        accs = backend.relinearize_many(backend.weighted_sum_encoded(list(x.reshape(-1)), self.map))
        out = np.empty(len(accs), dtype=object)
        out[:] = accs
        return out.reshape(self.out_shape)


class InferencePlan:
    """Precompiled evaluation artifacts for one engine.

    Attributes
    ----------
    layers:
        Executable layers aligned one-to-one with the source graph — a
        :class:`PlannedTaps` for every linear map, the source layer
        itself for everything else (activations, flatten).
    cache:
        The :class:`PlaintextCache` holding (after the first image) every
        runtime plaintext; also installed as the backend context's
        ``plain_cache``.
    layout:
        The packed single-image layout
        (:class:`repro.henn.packing.PackedLayout`: score width and
        request gather), or ``None`` when the plan does not offer it.
    """

    def __init__(
        self,
        layers: list[HeLayer],
        cache: PlaintextCache,
        layout: PackedLayout | None,
        compile_packed: "Callable[[], PackedPlan] | None",
    ):
        self.layers = layers
        self.cache = cache
        self.layout = layout
        self._compile_packed = compile_packed
        self._packed: PackedPlan | None = None
        self._packed_lock = threading.Lock()

    @property
    def packed(self) -> PackedPlan | None:
        """The packed layout's executors, compiled on first use (``None``: not offered)."""
        if self._compile_packed is None:
            return None
        with self._packed_lock:
            if self._packed is None:
                self._packed = self._compile_packed()
            return self._packed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        planned = sum(isinstance(layer, PlannedTaps) for layer in self.layers)
        return (
            f"InferencePlan(layers={len(self.layers)}, planned={planned}, "
            f"packed={self.layout is not None}, cache_entries={len(self.cache)})"
        )


def compile_plan(
    backend: HeBackend, layers: list[HeLayer], input_shape: tuple[int, int, int]
) -> InferencePlan:
    """Compile the graph's plaintext side once for this backend.

    Walks the layer list with shape propagation, quantizing every
    weighted sum once and installing a plaintext cache on the backend
    context, so runtime encodes (biases, activation constants, packed
    diagonals) are memoized as the first image flows through.  The plan
    adopts the cache an earlier plan installed on this context
    (replacing it would leave that plan's runtime plaintexts memoised on
    an object it does not hold), or creates a fresh one.  Layers the plan
    does not specialize are kept as-is, so a planned engine always
    evaluates the exact same graph.

    Parameters
    ----------
    backend, layers, input_shape:
        As on :class:`~repro.henn.inference.HeInferenceEngine`.

    Raises
    ------
    LevelBudgetError
        When the graph consumes more levels than the backend's chain has.
    """
    check_level_budget(backend, layers)
    ctx = getattr(backend, "ctx", None)
    cache = getattr(ctx, "plain_cache", None)
    if cache is None:
        cache = PlaintextCache()
    if ctx is not None and hasattr(ctx, "plain_cache"):
        ctx.plain_cache = cache
    shape: tuple = tuple(input_shape)
    planned: list[HeLayer] = []
    with obs.span("henn.plan.compile", layers=len(layers)):
        for layer in layers:
            if isinstance(layer, HeLinearMap):
                layer = PlannedTaps.compile(backend, layer, shape)
                shape = layer.out_shape
            elif isinstance(layer, HeFlatten):
                shape = (int(np.prod(shape)),)
            planned.append(layer)
    # The packed executors build on PlannedTaps, so the module loads late.
    from repro.henn.packing import PackedPlan, packed_layout, publish_layout

    shape = tuple(input_shape)
    layout = packed_layout(backend, layers, shape)
    compile_packed = None
    if layout is not None:
        compile_packed = functools.partial(PackedPlan, backend, layers, shape, layout)
    if layers:  # a layer-less plan serves nothing, so says nothing
        publish_layout(backend, shape, layout)
    reg = get_registry()
    reg.counter("plan.compiled").inc()
    # Cache-size gauge next to the hit/miss counters: together they say
    # whether a serving process is still warming or fully steady-state.
    reg.gauge("plan.cache.entries", {"backend": backend.name}).set(len(cache))
    return InferencePlan(planned, cache, layout, compile_packed)
