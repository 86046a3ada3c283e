"""Slot layouts: batch packing for the gateway, the packed single-image layout.

The default (per-position) layout gives every scalar position of a
feature map its own ciphertext and puts the image *batch* in the slots —
throughput-optimal, but one image uses 1 of ``n/2`` slots.  The
**packed** layout (Lo-La / GAZELLE style) puts one image's whole feature
vector into one ciphertext instead: slot *p* holds flat feature *p*
(C-order over ``(C, H, W)``, so flattening is the identity) and the
slots past the feature width are zero.

* a linear map is a matrix–vector product over the slots, evaluated as
  a **BSGS diagonal product** (:class:`PackedTaps`): only the nonzero
  generalised diagonals ``d = (c − r) mod slots`` of its tap program are
  kept, pre-rotated and encoded once at the level the map runs; the
  baby-step rotations of the input share one hoisted ModUp, the giant
  steps one ModUp sweep and one ModDown of their sum (double hoisting);
* the graph's first map may instead read the client's **input windows**
  (:func:`packed_input`): the request is ``T`` ciphertexts, window *t*
  holding in slot *r* the pixel output *r* reads at tap *t*, and the map
  is one plaintext weighted sum over them — no rotation, no Galois key;
* an activation evaluates its per-channel coefficients as per-slot
  plaintext vectors (:class:`PackedPoly`) — one BSGS program on one
  ciphertext instead of one per position;
* scores come back as one ciphertext, logits in slots ``0 … classes−1``.

:class:`PackedPlan` compiles those executors for a graph and generates
the Galois keys of their rotation set, once.  Whether a plan offers the
layout is decided by :func:`packed_score_width`, what a request holds
by :func:`packed_input`; the plan holds both
(``InferencePlan.packed_width`` / ``packed_input``) and publishes them
through :func:`publish_layout`, for the layer-less client to read.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.henn.backend import EncodedMap, HeBackend
from repro.henn.layers import HeFlatten, HeLayer, HeLinearMap, HePoly, TapProgram
from repro.henn.plan import PlannedTaps
from repro.obs.health import _top_level

__all__ = [
    "BatchLayout",
    "PackedPlan",
    "PackedPoly",
    "PackedTaps",
    "packed_input",
    "packed_score_width",
    "publish_layout",
    "published_layout",
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


# --------------------------------------------------------------------------- packed layout


def _one(handle) -> np.ndarray:
    out = np.empty(1, dtype=object)
    out[0] = handle
    return out


def _diagonals(program: TapProgram, in_width: int, slots: int) -> dict[int, np.ndarray]:
    """The nonzero generalised diagonals of a tap program's matrix.

    ``diag[d][r] = M[r, (r + d) mod slots]`` for the ``(out, in)`` matrix
    *M* zero-padded to ``slots × slots``, so ``y = Σ_d diag[d] ⊙ rot_d(x)``.
    """
    rows, cols, weights = [], [], []
    for r, (idxs, ws) in enumerate(program.entries):
        c = np.arange(in_width) if idxs is None else np.asarray(idxs, dtype=np.int64)
        rows.append(np.full(len(c), r))
        cols.append(c)
        weights.append(np.asarray(ws, dtype=np.float64))
    r, c, w = (np.concatenate(v) for v in (rows, cols, weights))
    keep = w != 0
    if not keep.any():  # an all-zero map (every window padding or pruned): one zero diagonal
        return {0: np.zeros(slots)}
    r, c, w = r[keep], c[keep], w[keep]
    d = (c - r) % slots
    uniq, which = np.unique(d, return_inverse=True)
    table = np.zeros((len(uniq), slots))
    np.add.at(table, (which, r), w)
    return {int(dd): table[i] for i, dd in enumerate(uniq)}


def _baby_step(diagonals: "list[int]", slots: int) -> int:
    """Baby-step width minimising the rotation cost of a diagonal set.

    Diagonal ``d`` splits as giant ``d − d mod b`` plus baby ``d mod b``.
    A hoisted baby costs one key inner product and its share of one
    batched ModDown, a folded giant one inner product and its share of
    one ModUp sweep: ~1.0 against ~1.1 ms at the top level, ~0.55 ms both
    four levels down (CKKS-RNS, n = 512, k = 8, α = 3, one core).  The
    cost is the distinct nonzero babies plus twice the giants, ties going
    to fewer giants; weight 2, a giant's pre-fold price, keeps the Galois
    keys (weight 1 splits tiny CNN1 7 + 10 and 5 + 4, not 15 + 5, 7 + 3).
    """
    d = np.asarray(diagonals, dtype=np.int64)
    best, best_cost = 1, None
    for b in range(1, slots + 1):
        babies = np.count_nonzero(np.unique(d % b))
        giants = np.count_nonzero(np.unique(d - d % b))
        cost = (babies + 2 * giants, giants)
        if best_cost is None or cost < best_cost:
            best, best_cost = b, cost
    return best


def _identity_input(width: int, slots: int) -> np.ndarray:
    """The gather of one ciphertext holding the input: slot *p* is pixel *p*."""
    gather = np.full((1, slots), -1, dtype=np.int64)
    gather[0, :width] = np.arange(width)
    return gather


def _window_weights(program: TapProgram, windows: np.ndarray, in_width: int) -> np.ndarray:
    """``W[t, r]``: the weight output *r* gives the input it reads at window *t*.

    Every nonzero weight of *program* must sit on an entry of *windows*
    (a pruned one simply leaves its entry zero).
    """
    taps, slots = windows.shape
    weights = np.zeros((taps, slots))
    tap = np.empty(in_width, dtype=np.int64)
    for r, (idxs, ws) in enumerate(program.entries):
        col = windows[:, r]
        tap.fill(-1)
        tap[col[col >= 0]] = np.flatnonzero(col >= 0)
        t = tap[np.arange(in_width) if idxs is None else np.asarray(idxs, dtype=np.int64)]
        nonzero = np.asarray(ws) != 0
        if np.any(t[nonzero] < 0):
            raise ValueError(f"output {r} reads an input outside its windows")
        np.add.at(weights, (t[nonzero], r), np.asarray(ws)[nonzero])
    return weights


def packed_input(backend: HeBackend, layers: "list[HeLayer]", input_shape: tuple) -> np.ndarray:
    """What a packed request holds: the ``(T, slots)`` gather the client encrypts.

    Ciphertext *t*, slot *r* holds flat pixel ``gather[t, r]`` (0 where
    it is −1).  The graph's first map is **window-encoded** — the client
    sends its ``T`` input windows (:meth:`HeLinearMap.windows`) and the
    map rotates nothing — when ``T`` is smaller than the rotation steps
    of its BSGS form; otherwise the gather is the identity (``T = 1``,
    slot *p* is pixel *p*) and the map rotates its one ciphertext.  Both
    sides of the comparison are read off the map's geometry — the
    diagonals are those of every tap, pruned or not — so the gather
    tells the client nothing about the weights.  Call it only for a
    graph that has the packed layout (:func:`packed_score_width`).
    """
    slots = backend.max_batch
    shape = tuple(input_shape)
    width = int(np.prod(shape))
    for layer in layers:
        if isinstance(layer, HeFlatten):
            shape = (width,)
            continue
        if not isinstance(layer, HeLinearMap):
            break
        windows = layer.windows(shape)
        taps, out = windows.shape
        rows = np.broadcast_to(np.arange(out), windows.shape)
        valid = windows >= 0
        diags = np.unique((windows[valid] - rows[valid]) % slots)
        b = _baby_step(list(diags), slots)
        rotations = np.count_nonzero(np.unique(diags % b)) + np.count_nonzero(
            np.unique(diags - diags % b)
        )
        if taps >= rotations:
            break
        gather = np.full((taps, slots), -1, dtype=np.int64)
        gather[:, :out] = windows
        return gather
    return _identity_input(width, slots)


class PackedTaps(HeLayer):
    """A linear map's :class:`TapProgram` as a BSGS diagonal product on one ciphertext.

    ``y = Σ_g rot_g(Σ_j u_{g,j} ⊙ rot_j(x))`` with ``u_{g,j} =
    rot_{-g}(diag_{g+j})``: the baby rotations ``rot_j(x)`` come from one
    hoisted :meth:`~repro.henn.backend.HeBackend.rotate` call, the group
    sums are one :class:`~repro.henn.plan.PlannedTaps` over them with
    slot-vector taps (one row per giant step, weighted sum then batched
    rescale), the rescaled group sums are rotated by their giant steps
    and summed in one :meth:`~repro.henn.backend.HeBackend._rotate_sum`
    — one level down, on one limb fewer — then one packed bias add.  An
    unrelinearised input (an activation in front) is relinearised first
    — rotations need degree 1 — which is the one sweep the per-position
    map pays after its weighted sum.  Consumes one level.

    With *windows* (the graph's first map, see :func:`packed_input`) the
    baby-step inputs are the client's ``T`` window ciphertexts instead —
    window *t* already holds, in slot *r*, the input output *r* reads at
    tap *t* — so the map is one row ``Σ_t W[t] ⊙ window_t`` of ``T``
    slot-vector taps: no rotation, no key switch, no Galois key.

    Attributes
    ----------
    babies, giants:
        Nonzero baby and giant rotation steps; the babies share one
        ModUp sweep, the giants another.
    steps:
        Giant step of each group sum (0: no giant rotation).
    groups:
        The group sums' :class:`~repro.henn.plan.PlannedTaps`.
    level:
        The level the diagonals are encoded at — the map's input level.
    windows:
        The ``(T, slots)`` gather of the input windows, or ``None``: the
        input is one ciphertext, rotated.
    """

    depth = 1

    def __init__(
        self,
        src: HeLinearMap,
        backend: HeBackend,
        in_shape: tuple[int, ...],
        level: int,
        windows: "np.ndarray | None",
    ):
        slots = backend.max_batch
        self.src = src
        self.level = level
        self.windows = windows
        program = src.taps(tuple(in_shape))
        self.out_shape = program.out_shape
        self.out_width = int(np.prod(program.out_shape))
        in_width = int(np.prod(in_shape))
        if max(in_width, self.out_width) > slots:
            raise ValueError(
                f"map {in_width} -> {self.out_width} does not fit {slots} slots"
            )
        if windows is not None:
            self.babies, self.steps = [], [0]
            inputs = len(windows)
            weights = _window_weights(program, windows, in_width)
            rows = [(list(range(inputs)), backend.encode_taps(weights, backend.scale, level=level))]
        else:
            diags = _diagonals(program, in_width, slots)
            b = _baby_step(list(diags), slots)
            self.babies = sorted({d % b for d in diags} - {0})
            tap_of = {j: t for t, j in enumerate([0] + self.babies)}
            groups: dict[int, list[tuple[int, np.ndarray]]] = {}
            for d, vec in diags.items():
                groups.setdefault(d - d % b, []).append((tap_of[d % b], np.roll(vec, d - d % b)))
            self.steps = sorted(groups)
            inputs, rows = len(tap_of), []
            for g in self.steps:
                taps, vecs = zip(*groups[g])
                rows.append((list(taps), backend.encode_taps(np.stack(vecs), backend.scale, level=level)))
        self.groups = PlannedTaps(src, EncodedMap(rows, inputs), (inputs,), (len(self.steps),))
        self.bias = None
        if program.bias is not None:
            self.bias = np.zeros(slots)
            self.bias[: self.out_width] = program.bias

    @property
    def giants(self) -> list[int]:
        """Nonzero giant steps."""
        return [g for g in self.steps if g]

    @property
    def diagonals(self) -> int:
        """Slot-vector taps: the map's nonzero diagonals, or its input windows."""
        return sum(len(idxs) for idxs, _ in self.groups.map.rows)

    @property
    def rotations(self) -> int:
        """Rotation steps one evaluation performs."""
        return len(self.babies) + len(self.giants)

    @property
    def modups(self) -> int:
        """ModUp sweeps those rotations cost: one for the babies, one for the giants."""
        return int(bool(self.babies)) + int(bool(self.giants))

    @property
    def moddowns(self) -> int:
        """Ciphertexts leaving a ModDown: one per baby, one for the giants' sum."""
        return len(self.babies) + int(bool(self.giants))

    def forward(self, backend: HeBackend, x: np.ndarray) -> np.ndarray:
        if self.windows is not None:
            babies = x  # the client's fresh windows
        else:
            (ct,) = x
            ct = backend.relinearize_ext(ct)
            babies = np.empty(1 + len(self.babies), dtype=object)
            babies[:] = [ct] + (backend.rotate(ct, self.babies) if self.babies else [])
        parts = self.groups.forward(backend, babies)
        acc = backend._rotate_sum(parts, self.steps) if self.giants else parts[0]
        if self.bias is not None:
            acc = backend.add_plain(acc, self.bias)
        return _one(acc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PackedTaps({self.src!r}, diagonals={self.diagonals}, rotations={self.rotations})"


class PackedPoly(HeLayer):
    """An :class:`HePoly` on the packed layout: per-slot coefficient rows.

    Slot *p* evaluates the row of feature *p*'s channel; the slots past
    the feature width get all-zero rows, so they stay (noise-)zero.
    """

    def __init__(self, src: HePoly, shape: tuple[int, ...], slots: int):
        self.src = src
        self.depth = src.depth
        width = int(np.prod(shape))
        rows = src._rows_for(np.empty(shape, dtype=object))
        self.rows = np.zeros((slots, rows.shape[1]))
        self.rows[:width] = np.broadcast_to(rows, (width, rows.shape[1]))

    def forward(self, backend: HeBackend, x: np.ndarray) -> np.ndarray:
        (ct,) = x
        return _one(backend.poly_eval(backend.relinearize_ext(ct), self.rows))


def packed_score_width(
    backend: HeBackend, layers: "list[HeLayer]", input_shape: tuple
) -> "int | None":
    """The score width of a graph in the packed layout on *backend*, or None if it has none.

    A backend that shares slots between requests (``native_slot_concat``)
    keeps the per-position layout; otherwise every feature map the graph
    produces must fit in the slots, and every layer must be a linear
    map, an activation or a flatten.
    """
    if backend.native_slot_concat or not any(isinstance(l, HeLinearMap) for l in layers):
        return None
    slots = backend.max_batch
    shape = tuple(input_shape)
    if int(np.prod(shape)) > slots:
        return None
    for layer in layers:
        if isinstance(layer, HeLinearMap):
            try:
                shape = layer.taps(shape).out_shape
            except ValueError:
                return None
        elif isinstance(layer, HeFlatten):
            shape = (int(np.prod(shape)),)
        elif not isinstance(layer, HePoly):
            return None
        if int(np.prod(shape)) > slots:
            return None
    return int(np.prod(shape))


class PackedPlan:
    """The packed layout's executors for one graph, compiled once.

    Walks the graph with its level schedule: a :class:`PackedTaps` per
    linear map (diagonals encoded at the level the map runs; the first
    map reads the request's *windows* when they are not the identity,
    see :func:`packed_input`), a :class:`PackedPoly` per activation,
    flatten as it is (the identity on one ciphertext).  Then generates
    the Galois keys of every rotation step (a backend without keys — the
    mock — needs none), so a request never generates a key: a missing
    one is a :class:`KeyError` at ``rotate``.
    """

    def __init__(
        self,
        backend: HeBackend,
        layers: "list[HeLayer]",
        input_shape: tuple,
        windows: np.ndarray,
    ):
        slots = backend.max_batch
        level = _top_level(backend)
        shape = tuple(input_shape)
        identity = np.array_equal(windows, _identity_input(int(np.prod(shape)), slots))
        reads = None if identity else windows
        self.layers: list[HeLayer] = []
        #: Used slots of the ciphertext leaving each layer (the feature width).
        self.widths: list[int] = []
        with obs.span("henn.plan.compile_packed", layers=len(layers)):
            for layer in layers:
                if isinstance(layer, HeLinearMap):
                    ex = PackedTaps(layer, backend, shape, level, reads)
                    shape, reads = ex.out_shape, None
                elif isinstance(layer, HePoly):
                    ex = PackedPoly(layer, shape, slots)
                else:
                    ex, shape = layer, (int(np.prod(shape)),)
                self.layers.append(ex)
                self.widths.append(int(np.prod(shape)))
                level -= layer.depth
            maps = [ex for ex in self.layers if isinstance(ex, PackedTaps)]
            self.rotations = sorted({r for m in maps for r in (*m.babies, *m.giants)})
            add_keys = getattr(backend, "add_rotation_keys", None)
            if add_keys is not None:
                add_keys(self.rotations)


# What the cloud plans on a backend offer a client, per input shape: the
# packed score width and the gather of a packed request
# (:func:`packed_input`), or None.  The engines never read this — each one
# follows its own plan (``InferencePlan.packed_width`` / ``packed_input``).
# It exists so a ``Client(backend, input_shape)``, which holds no layers,
# learns whether a single-image request may travel packed, and as which
# ciphertexts.  Only a client sharing the cloud's backend object in one
# process can learn it; a client in another process (or built on its own
# backend) stays per-position, the layout every engine accepts.
_PUBLISHED: "weakref.WeakKeyDictionary[HeBackend, dict[tuple, tuple[int, np.ndarray] | None]]" = (
    weakref.WeakKeyDictionary()
)
_PUBLISH_LOCK = threading.Lock()


def publish_layout(
    backend: HeBackend, input_shape: tuple, out_width: "int | None", windows: "np.ndarray | None"
) -> None:
    """Record the packed layout a plan on *backend* offers for *input_shape*.

    *out_width* ``None`` records a plan that does not offer the layout.
    Plans that disagree (two graphs on one backend and input shape, in
    score width or in gather) leave the entry ``None`` for good: a
    client then sends per-position requests, which every plan serves.
    """
    key = tuple(input_shape)
    new = None if out_width is None else (int(out_width), windows)
    with _PUBLISH_LOCK:
        layouts = _PUBLISHED.setdefault(backend, {})
        old = layouts.get(key, new)
        same = old is new or (
            old is not None
            and new is not None
            and old[0] == new[0]
            and np.array_equal(old[1], new[1])
        )
        layouts[key] = new if same else None


def published_layout(backend: HeBackend, input_shape: tuple) -> "tuple[int, np.ndarray] | None":
    """The packed ``(score width, request gather)`` every plan on *backend* offers for *input_shape*, if any."""
    with _PUBLISH_LOCK:
        return _PUBLISHED.get(backend, {}).get(tuple(input_shape))
