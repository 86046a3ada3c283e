"""Compile-once / run-many inference plans.

An :class:`InferencePlan` walks a compiled HE graph **once** per
(backend, level schedule, scale) and precomputes everything about the
evaluation that does not depend on the ciphertexts:

* conv/pool/linear **tap programs** — which handles each output position
  gathers and with which weights (:func:`repro.henn.layers.conv_tap_program`);
* the backend-native **encoded taps** for every weighted sum
  (:meth:`repro.henn.backend.HeBackend.encode_taps`): quantized integer
  weights everywhere, plus the ``(taps, k_top)`` residue tables on
  CKKS-RNS — deduplicated through a keyed :class:`PlaintextCache`, so
  the thousands of interior conv positions that share one kernel encode
  it exactly once;
* a :class:`~repro.utils.cache.PlaintextCache` installed on the
  backend's context, which memoizes the scalar plaintexts (biases,
  polynomial constant terms) the first image encodes — every later
  image performs **zero** plaintext encodes, which the CI smoke job
  asserts by counting ``plan.encode.fresh`` / ``plan.cache.miss``, not
  by timing.

Planned evaluation is bit-identical to the unplanned path: tap programs
replicate the inline loops' iteration order exactly, weight quantization
is deterministic, and cached plaintexts are the very objects a fresh
encode would produce (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.henn.backend import EncodedTaps, HeBackend
from repro.henn.layers import (
    HeAvgPool,
    HeConv2d,
    HeFlatten,
    HeLayer,
    HeLinear,
    HePoly,
    check_level_budget,
    conv_tap_program,
)
from repro.nn.layers.conv import conv_output_shape
from repro.nt.kernels import compile_poly_program
from repro.obs.metrics import get_registry
from repro.utils.cache import PlaintextCache

__all__ = ["InferencePlan", "PlannedPoly", "compile_plan", "plan_cache_key"]


def _backend_sig(backend: HeBackend) -> tuple:
    """Content-based identity of a backend's encoding parameters.

    Two backends with the same signature produce identical encodings, so
    cache entries may be shared between them; anything that changes the
    encoding (ring degree, modulus chain, scale) changes the signature.
    """
    ctx = getattr(backend, "ctx", None)
    sig: tuple = (backend.name, float(backend.scale))
    if ctx is not None:
        sig += (int(getattr(ctx, "n", 0)),)
        moduli = getattr(ctx, "moduli", None)
        if moduli is not None:
            sig += (tuple(int(m) for m in moduli),)
    else:
        sig += (int(getattr(backend, "levels", 0)),)
    return sig


def plan_cache_key(sig: tuple, ps: float, consts: tuple[int, ...]) -> tuple:
    """Cache key of one encoded weighted sum (see ``docs/PERFORMANCE.md``)."""
    return ("taps", sig, float(ps), consts)


class _TapEncoder:
    """Encodes tap weights through the plan cache with content keys."""

    def __init__(self, backend: HeBackend, cache: PlaintextCache):
        self.backend = backend
        self.cache = cache
        self.sig = _backend_sig(backend)
        self.ps = float(backend.scale)

    def __call__(self, weights: np.ndarray) -> EncodedTaps:
        consts = tuple(int(round(float(w) * self.ps)) for w in weights)
        key = plan_cache_key(self.sig, self.ps, consts)
        return self.cache.get_or_encode(
            key, lambda: self.backend.encode_taps(weights, self.ps)
        )


class PlannedConv2d(HeLayer):
    """Replay of :class:`HeConv2d` from precompiled tap programs."""

    depth = 1

    def __init__(self, src: HeConv2d, enc: _TapEncoder, h: int, w: int):
        self.src = src
        oc = src.weight.shape[0]
        self.out_shape: tuple[int, int, int] | None = None
        #: per output channel: list of (i, j, flat tap indices, EncodedTaps)
        self.programs: list[list[tuple[int, int, list[int], EncodedTaps]]] = []
        for o in range(oc):
            oh, ow, program = conv_tap_program(
                src.weight[o], h, w, src.stride, src.padding, src.prune_below
            )
            self.out_shape = (oc, oh, ow)
            self.programs.append(
                [(i, j, idxs, enc(ws)) for i, j, idxs, ws in program]
            )

    def forward(self, backend: HeBackend, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1)
        out = np.empty(self.out_shape, dtype=object)
        bias = self.src.bias
        accs: list = []
        slots: list[tuple[int, int, int]] = []
        for o, program in enumerate(self.programs):
            for i, j, idxs, etaps in program:
                taps = [flat[t] for t in idxs]
                accs.append(backend.weighted_sum_encoded(taps, etaps))
                slots.append((o, i, j))
        accs = backend.rescale_many(accs)
        if bias is not None:
            accs = backend.add_plain_each(
                accs, np.array([bias[o] for o, _, _ in slots], dtype=np.float64)
            )
        for (o, i, j), acc in zip(slots, accs):
            out[o, i, j] = acc
        return out


class PlannedLinear(HeLayer):
    """Replay of :class:`HeLinear` from precompiled row encodings."""

    depth = 1

    def __init__(self, src: HeLinear, enc: _TapEncoder):
        self.src = src
        out_f, in_f = src.weight.shape
        self.in_features = in_f
        #: per output neuron: (kept input indices or None for all, EncodedTaps)
        self.rows: list[tuple[list[int] | None, EncodedTaps]] = []
        for o in range(out_f):
            row = src.weight[o]
            if src.prune_below > 0:
                kept = np.nonzero(np.abs(row) > src.prune_below)[0]
                if len(kept) == 0:
                    self.rows.append(([0], enc(np.array([0.0]))))
                    continue
                self.rows.append((list(map(int, kept)), enc(row[kept])))
            else:
                self.rows.append((None, enc(row)))

    def forward(self, backend: HeBackend, x: np.ndarray) -> np.ndarray:
        handles = list(x)
        out = np.empty(len(self.rows), dtype=object)
        bias = self.src.bias
        accs = [
            backend.weighted_sum_encoded(
                handles if idxs is None else [handles[t] for t in idxs], etaps
            )
            for idxs, etaps in self.rows
        ]
        accs = backend.rescale_many(accs)
        if bias is not None:
            accs = backend.add_plain_each(accs, np.asarray(bias, dtype=np.float64))
        out[:] = accs
        return out


class PlannedAvgPool(HeLayer):
    """Replay of :class:`HeAvgPool`; one encoding serves every window."""

    depth = 1

    def __init__(self, src: HeAvgPool, enc: _TapEncoder):
        self.src = src
        k = src.kernel_size
        self.etaps = enc(np.full(k * k, 1.0 / (k * k)))

    def forward(self, backend: HeBackend, x: np.ndarray) -> np.ndarray:
        c, h, w = x.shape
        k, s = self.src.kernel_size, self.src.stride
        oh, ow = conv_output_shape(h, w, k, k, s, 0)
        out = np.empty((c, oh, ow), dtype=object)
        accs = [
            backend.weighted_sum_encoded(
                [x[ci, i * s + di, j * s + dj] for di in range(k) for dj in range(k)],
                self.etaps,
            )
            for ci in range(c)
            for i in range(oh)
            for j in range(ow)
        ]
        out.reshape(-1)[:] = backend.rescale_many(accs)
        return out


class PlannedPoly(HeLayer):
    """Replay of :class:`HePoly` with its BSGS program compiled once.

    The coefficient-row table (one row per flat feature-map position, or
    a single broadcast row for layer-wide coefficients) and the
    :class:`~repro.nt.kernels.PolyProgram` are fixed by the layer and
    the propagated shape, so both are materialized at plan-compile time;
    runtime is a single :meth:`HeBackend.poly_eval_many` call that
    shares the baby-step power basis across all positions.
    """

    def __init__(self, src: HePoly, shape: tuple[int, ...]):
        self.src = src
        self.shape = tuple(shape)
        probe = np.empty(self.shape, dtype=object)
        self.rows = src._rows_for(probe)
        self.program = compile_poly_program(src.degree)
        self.depth = self.program.depth

    def forward(self, backend: HeBackend, x: np.ndarray) -> np.ndarray:
        if x.shape != self.shape:  # planned for a different shape: run unplanned
            return self.src.forward(backend, x)
        results = backend.poly_eval_many(list(x.reshape(-1)), self.rows, self.program)
        out = np.empty(len(results), dtype=object)
        out[:] = results
        return out.reshape(x.shape)


class InferencePlan:
    """Precompiled evaluation artifacts for one engine.

    Attributes
    ----------
    layers:
        Executable layers aligned with the source graph — planned
        replacements for conv/pool/linear, the original objects for
        everything ciphertext-data-dependent (activations, flatten).
    cache:
        The :class:`PlaintextCache` holding deduplicated tap encodings
        and (after the first image) every scalar plaintext; also
        installed as the backend context's ``plain_cache``.
    """

    def __init__(
        self,
        backend: HeBackend,
        source_layers: list[HeLayer],
        layers: list[HeLayer],
        input_shape: tuple[int, int, int],
        cache: PlaintextCache,
    ):
        self.backend = backend
        self.source_layers = source_layers
        self.layers = layers
        self.input_shape = input_shape
        self.cache = cache
        self.signature = _backend_sig(backend)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        planned = sum(s is not l for s, l in zip(self.source_layers, self.layers))
        return (
            f"InferencePlan(layers={len(self.layers)}, planned={planned}, "
            f"cache_entries={len(self.cache)})"
        )


def compile_plan(
    backend: HeBackend,
    layers: list[HeLayer],
    input_shape: tuple[int, int, int],
    cache: PlaintextCache | None = None,
) -> InferencePlan:
    """Compile the graph's plaintext side once for this backend.

    Walks the layer list with shape propagation, pre-encoding every
    weighted sum through *cache* (deduplicated by quantized content) and
    installing the cache on the backend context so runtime scalar
    encodes (biases, activation constants) are memoized as the first
    image flows through.  Layers the plan does not specialize are kept
    as-is, so a planned engine always evaluates the exact same graph.

    Parameters
    ----------
    backend, layers, input_shape:
        As on :class:`~repro.henn.inference.HeInferenceEngine`.
    cache:
        Cache to (re)use.  By default the plan adopts the cache an
        earlier plan installed on this backend's context (replacing it
        would leave that plan's runtime scalars memoised on an object it
        does not hold), or creates a fresh one.  Sharing one cache
        between plans is safe — keys carry the backend signature.

    Raises
    ------
    LevelBudgetError
        When the graph consumes more levels than the backend's chain has.
    """
    check_level_budget(backend, layers)
    ctx = getattr(backend, "ctx", None)
    if cache is None:
        cache = getattr(ctx, "plain_cache", None)
    if cache is None:
        cache = PlaintextCache()
    if ctx is not None and hasattr(ctx, "plain_cache"):
        ctx.plain_cache = cache
    enc = _TapEncoder(backend, cache)
    shape: tuple = tuple(input_shape)
    planned: list[HeLayer] = []
    with obs.span("henn.plan.compile", layers=len(layers)):
        for layer in layers:
            if isinstance(layer, HeConv2d):
                _, h, w = shape
                pl = PlannedConv2d(layer, enc, h, w)
                planned.append(pl)
                shape = pl.out_shape
            elif isinstance(layer, HeAvgPool):
                c, h, w = shape
                planned.append(PlannedAvgPool(layer, enc))
                oh, ow = conv_output_shape(h, w, layer.kernel_size, layer.kernel_size, layer.stride, 0)
                shape = (c, oh, ow)
            elif isinstance(layer, HeLinear):
                planned.append(PlannedLinear(layer, enc))
                shape = (layer.weight.shape[0],)
            elif isinstance(layer, HeFlatten):
                planned.append(layer)
                shape = (int(np.prod(shape)),)
            elif isinstance(layer, HePoly):
                planned.append(PlannedPoly(layer, shape))
                get_registry().counter("plan.poly.programs").inc()
            else:
                # Anything unknown is data-dependent: run as-is.
                planned.append(layer)
    reg = get_registry()
    reg.counter("plan.compiled").inc()
    # Cache-size gauge next to the hit/miss counters: together they say
    # whether a serving process is still warming or fully steady-state.
    reg.gauge("plan.cache.entries", {"backend": backend.name}).set(len(cache))
    return InferencePlan(backend, layers, planned, input_shape, cache)
