"""Inference-only homomorphic layers.

A feature map is a NumPy ``object`` array of backend handles with the
*feature* shape — ``(C, H, W)`` after convolutions, ``(F,)`` after
flattening.  Each handle packs the whole image batch in its SIMD slots,
so a layer is evaluated once per scalar position regardless of batch
size (CryptoNets packing).

The linear maps (conv, dense, pooling) each describe themselves as one
:class:`TapProgram`; :meth:`HeLinearMap.forward` is the one reference
evaluation of it — the oracle the tests compare the engine's
precompiled :class:`repro.henn.plan.PlannedTaps` with.

A linear map consumes exactly one rescaling level; a polynomial
activation consumes the depth of its BSGS program (2 for a cubic, see
``HeBackend.poly_eval``).  :func:`model_depth` sums them and
:func:`check_level_budget` holds a backend's modulus chain against it.
An activation's outputs leave unrelinearised; the linear map behind it
relinearises its own (key switching commutes with its linear steps).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from repro.henn.backend import EncodedMap, HeBackend
from repro.nn.layers.conv import conv_output_shape
from repro.nt.kernels import compile_poly_program
from repro.obs.health import _top_level

__all__ = [
    "LevelBudgetError",
    "model_depth",
    "check_level_budget",
    "HeLayer",
    "TapProgram",
    "HeLinearMap",
    "HeConv2d",
    "HeLinear",
    "HePoly",
    "HeFlatten",
    "HeAvgPool",
]


class HeLayer(ABC):
    """One compiled layer: maps a handle array to a handle array."""

    #: Rescaling levels consumed per forward pass.
    depth: int = 0

    @abstractmethod
    def forward(self, backend: HeBackend, x: np.ndarray) -> np.ndarray: ...

    def __call__(self, backend: HeBackend, x: np.ndarray) -> np.ndarray:
        return self.forward(backend, x)


class LevelBudgetError(ValueError):
    """The graph consumes more levels than the modulus chain provides.

    Raised when an engine or plan is built, so an undersized chain is a
    configuration error at start-up rather than a "cannot rescale below
    level 0" on every request.
    """

    def __init__(self, needed: int, available: int):
        super().__init__(
            f"graph consumes {needed} levels, the modulus chain provides {available}"
        )
        self.needed = needed
        self.available = available


def model_depth(he_layers: "list[HeLayer]") -> int:
    """Total rescaling levels the compiled graph consumes.

    1 per linear layer and ``PolyProgram.depth`` per polynomial
    activation — the levels actually spent, which is what sizes the
    modulus chain.  The paper's §V.B accounting charges ``degree`` per
    activation instead (3 per cubic SLAF: Table II's L = 13 for CNN2,
    where this schedule consumes 10).
    """
    return sum(layer.depth for layer in he_layers)


def check_level_budget(backend: HeBackend, he_layers: "list[HeLayer]") -> None:
    """Raise :class:`LevelBudgetError` if *backend* cannot evaluate the graph."""
    available = _top_level(backend)
    needed = model_depth(he_layers)
    if available is not None and needed > available:
        raise LevelBudgetError(needed, available)


class TapProgram(NamedTuple):
    """One linear map over a flat handle array, position by position."""

    out_shape: tuple[int, ...]
    #: Per flat output position (C-order over ``out_shape``): the flat
    #: input indices gathered (``None``: every input, in order) and their
    #: float weights.
    entries: list[tuple[list[int] | None, np.ndarray]]
    #: Plaintext added after the rescale, one per output position.
    bias: np.ndarray | None


class HeLinearMap(HeLayer):
    """A plaintext-weighted sum per output position: conv, dense, pooling.

    A subclass describes itself once, as the :class:`TapProgram` of
    :meth:`taps`; this class holds the reference evaluation of it (per
    position, its weights encoded afresh as a one-row
    :class:`~repro.henn.backend.EncodedMap`, one rescale and one
    plaintext bias add, then one batched relinearisation of the outputs)
    and :class:`repro.henn.plan.PlannedTaps` the precompiled one the
    engine runs.  Consumes one level.
    """

    depth = 1

    @abstractmethod
    def taps(self, in_shape: tuple[int, ...]) -> TapProgram:
        """The tap program for one input shape; ``ValueError`` if it does not fit."""

    def windows(self, in_shape: tuple[int, ...]) -> np.ndarray:
        """The map's input windows over *in_shape*, from its geometry alone.

        A ``(T, out)`` integer array: entry ``(t, r)`` is the flat input
        index output *r* reads at tap *t*, or −1 where it reads nothing
        (padding).  A pruned tap keeps its entry, so the array says
        nothing about the weights.  A dense map reads every input at
        every output: ``T`` is the input width.
        """
        width = int(np.prod(in_shape))
        out = int(np.prod(self.taps(tuple(in_shape)).out_shape))
        return np.repeat(np.arange(width)[:, None], out, axis=1)

    def forward(self, backend: HeBackend, x: np.ndarray) -> np.ndarray:
        out_shape, entries, bias = self.taps(x.shape)
        flat = list(x.reshape(-1))
        out = np.empty(len(entries), dtype=object)
        for pos, (idxs, ws) in enumerate(entries):
            handles = flat if idxs is None else [flat[t] for t in idxs]
            emap = EncodedMap([(None, backend.encode_taps(ws))], len(handles))
            acc = backend.rescale(backend.weighted_sum_encoded(handles, emap)[0])
            if bias is not None:
                acc = backend.add_plain(acc, float(bias[pos]))
            out[pos] = acc
        out[:] = backend.relinearize_many(list(out))
        return out.reshape(out_shape)


class HeConv2d(HeLinearMap):
    """Convolution with plaintext weights over encrypted feature maps.

    Each output position sums its receptive-field handles.  Weights with
    ``|w| <= prune_below`` are dropped (Faster-CryptoNets-style sparsity,
    §IV).
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int = 1,
        padding: int = 0,
        prune_below: float = 0.0,
    ):
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.ndim != 4:
            raise ValueError("conv weight must be (OC, IC, KH, KW)")
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        self.stride = stride
        self.padding = padding
        self.prune_below = prune_below

    def taps(self, in_shape: tuple[int, ...]) -> TapProgram:
        if len(in_shape) != 3:
            raise ValueError(f"expected (C, H, W) handle array, got shape {in_shape}")
        oc, ic, kh, kw = self.weight.shape
        c, h, w = in_shape
        if c != ic:
            raise ValueError(f"conv expects {ic} input channels, got {c}")
        s, p = self.stride, self.padding
        oh, ow = conv_output_shape(h, w, kh, kw, s, p)
        entries: list[tuple[list[int] | None, np.ndarray]] = []
        for wmat in self.weight:
            for i in range(oh):
                for j in range(ow):
                    idxs: list[int] = []
                    ws: list[float] = []
                    for ci in range(ic):
                        for di in range(kh):
                            for dj in range(kw):
                                yy = i * s - p + di
                                xx = j * s - p + dj
                                if 0 <= yy < h and 0 <= xx < w:
                                    wv = wmat[ci, di, dj]
                                    if abs(wv) > self.prune_below:
                                        idxs.append((ci * h + yy) * w + xx)
                                        ws.append(float(wv))
                    if not idxs:  # fully pruned window: keep a zero term
                        idxs = [max(0, min(i * s, h - 1)) * w + max(0, min(j * s, w - 1))]
                        ws = [0.0]
                    entries.append((idxs, np.asarray(ws, dtype=np.float64)))
        bias = None if self.bias is None else np.repeat(self.bias, oh * ow)
        return TapProgram((oc, oh, ow), entries, bias)

    def windows(self, in_shape: tuple[int, ...]) -> np.ndarray:
        """One window per kernel tap ``(ci, di, dj)``, the same for every output channel."""
        oc, ic, kh, kw = self.weight.shape
        if len(in_shape) != 3 or in_shape[0] != ic:
            raise ValueError(f"conv expects ({ic}, H, W), got {in_shape}")
        _, h, w = in_shape
        s, p = self.stride, self.padding
        oh, ow = conv_output_shape(h, w, kh, kw, s, p)
        ci, di, dj = (a.reshape(-1, 1, 1) for a in np.indices((ic, kh, kw)))
        yy = np.arange(oh)[:, None] * s - p + di
        xx = np.arange(ow)[None, :] * s - p + dj
        inside = (0 <= yy) & (yy < h) & (0 <= xx) & (xx < w)
        flat = np.where(inside, (ci * h + yy) * w + xx, -1).reshape(ic * kh * kw, oh * ow)
        return np.tile(flat, (1, oc))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        oc, ic, kh, _ = self.weight.shape
        return f"HeConv2d({ic}->{oc}, k={kh}, s={self.stride}, p={self.padding})"


class HeLinear(HeLinearMap):
    """Dense layer: one weighted sum per output neuron."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None, prune_below: float = 0.0):
        self.weight = np.asarray(weight, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ValueError("linear weight must be (out, in)")
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        self.prune_below = prune_below

    def taps(self, in_shape: tuple[int, ...]) -> TapProgram:
        if len(in_shape) != 1:
            raise ValueError("HeLinear expects a flat handle vector (use HeFlatten)")
        out_f, in_f = self.weight.shape
        if in_shape[0] != in_f:
            raise ValueError(f"linear expects {in_f} inputs, got {in_shape[0]}")
        entries: list[tuple[list[int] | None, np.ndarray]] = []
        for row in self.weight:
            if self.prune_below > 0:
                kept = np.nonzero(np.abs(row) > self.prune_below)[0]
                if len(kept) == 0:  # fully pruned row: keep a zero term
                    entries.append(([0], np.array([0.0])))
                else:
                    entries.append((list(map(int, kept)), row[kept]))
            else:
                entries.append((None, row))
        return TapProgram((out_f,), entries, self.bias)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HeLinear({self.weight.shape[1]}->{self.weight.shape[0]})"


class HePoly(HeLayer):
    """Polynomial (SLAF) activation, per-channel or layer-wide coefficients.

    Every feature-map position evaluates ``sum_k coeffs[k] x^k`` via the
    backend's baby-step/giant-step evaluator (see ``docs/KERNELS.md``):
    the whole position grid goes through :meth:`HeBackend.poly_eval_many`
    in one call, so backends with a batched path (CKKS-RNS) share the
    baby-step power basis — and its NTT/keyswitch sweeps — across all
    ``C * H * W`` positions; an unrelinearised input (an activation
    behind another) is relinearised first.  ``self.depth`` is the number
    of levels the evaluation consumes, ``compile_poly_program(degree).depth``
    — 2 for the paper's cubic, not the ``degree`` of the §V.B accounting.

    Args (constructor):
        coeffs: ``(degree + 1,)`` layer-wide or ``(C, degree + 1)``
            per-channel coefficient rows, constant term first.
        per_channel: when True, channel ``c`` (or flat feature ``f``)
            uses ``coeffs[c]``; otherwise row 0 applies everywhere.
    """

    def __init__(self, coeffs: np.ndarray, per_channel: bool = False):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
        self.per_channel = per_channel
        self.depth = compile_poly_program(self.degree).depth

    @property
    def degree(self) -> int:
        """Polynomial degree (coefficient count minus one)."""
        return self.coeffs.shape[1] - 1

    def _rows_for(self, x: np.ndarray) -> np.ndarray:
        """Coefficient rows aligned with ``x.reshape(-1)``, one per position."""
        if x.ndim == 3:
            if not self.per_channel:
                return self.coeffs[:1]
            reps = x.shape[1] * x.shape[2]
            return np.repeat(self.coeffs[: x.shape[0]], reps, axis=0)
        if x.ndim == 1:
            if not self.per_channel:
                return self.coeffs[:1]
            return self.coeffs[: x.shape[0]]
        raise ValueError(f"unsupported handle array rank {x.ndim}")

    def forward(self, backend: HeBackend, x: np.ndarray) -> np.ndarray:
        rows = self._rows_for(x)
        flat = backend.relinearize_many(list(x.reshape(-1)))
        results = backend.poly_eval_many(flat, rows)
        out = np.empty(len(results), dtype=object)
        out[:] = results
        return out.reshape(x.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HePoly(degree={self.degree}, per_channel={self.per_channel})"


class HeFlatten(HeLayer):
    """``(C, H, W) -> (C*H*W,)`` in C-order (matches ``nn.Flatten``)."""

    depth = 0

    def forward(self, backend: HeBackend, x: np.ndarray) -> np.ndarray:
        return x.reshape(-1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "HeFlatten()"


class HeAvgPool(HeLinearMap):
    """Mean pooling: every window is the same ``1 / k²``-weighted sum."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def taps(self, in_shape: tuple[int, ...]) -> TapProgram:
        if len(in_shape) != 3:
            raise ValueError("HeAvgPool expects (C, H, W)")
        c, h, w = in_shape
        k, s = self.kernel_size, self.stride
        oh, ow = conv_output_shape(h, w, k, k, s, 0)
        ws = np.full(k * k, 1.0 / (k * k))
        entries = [
            ([(ci * h + i * s + di) * w + j * s + dj for di in range(k) for dj in range(k)], ws)
            for ci in range(c)
            for i in range(oh)
            for j in range(ow)
        ]
        return TapProgram((c, oh, ow), entries, None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HeAvgPool(k={self.kernel_size}, s={self.stride})"
