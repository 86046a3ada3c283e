"""HE inference engines: encrypt -> propagate -> decrypt.

:class:`HeInferenceEngine` evaluates a compiled HE graph under any
backend.  With a :class:`~repro.henn.backend.CkksRnsBackend`, whose
activations run their packed positions as shards over the cores, this
*is* the CNN-HE-RNS configuration; the same engine with
:class:`~repro.henn.backend.CkksBackend` is the non-RNS CNN-HE baseline
of Tables III/V.

The engine always evaluates the :class:`~repro.henn.plan.InferencePlan`
it compiles at construction: one
:class:`~repro.henn.plan.PlannedTaps` per linear map, every other layer
as it is; scores always leave relinearised.

Timing is span-based (:mod:`repro.obs`): every layer forward is a
``henn.layer`` span and the classify stages are ``henn.stage.*`` spans,
so the Fig. 5 per-stage breakdown falls out of the tracer when tracing
is on.  Independently of tracing, the engine keeps the last run's
``(layer, seconds)`` rows in :attr:`~HeInferenceEngine.layer_seconds`
(two clock reads per layer).
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, nullcontext
from typing import Any, Callable, Sequence

import numpy as np

from repro import obs
from repro.henn.backend import HeBackend
from repro.henn.layers import HeLayer, check_level_budget
from repro.henn.packing import BatchLayout
from repro.henn.plan import compile_plan
from repro.obs import health as _health
from repro.obs.metrics import get_registry
from repro.utils.timing import LatencyStats

__all__ = ["HeInferenceEngine", "evaluate_batch"]


class HeInferenceEngine:
    """Batched encrypted classification with latency accounting.

    Parameters
    ----------
    backend:
        Homomorphic evaluation backend (mock / CKKS / CKKS-RNS).
    layers:
        Compiled HE layer graph (from :func:`repro.henn.compiler.compile_model`).
    input_shape:
        Expected ``(C, H, W)`` of one input image.

    The engine compiles its plan on construction: every linear map's
    weights are encoded once, through the plaintext cache an earlier
    plan installed on the backend context (or a fresh one), and scalar
    plaintexts are memoized as the first image flows through, so warm
    ``classify()`` calls perform zero plaintext encodes.

    Raises
    ------
    LevelBudgetError
        When *layers* consume more levels than the backend's modulus
        chain provides.
    """

    def __init__(
        self,
        backend: HeBackend,
        layers: list[HeLayer],
        input_shape: tuple[int, int, int],
    ):
        check_level_budget(backend, layers)
        self.backend = backend
        self.layers = layers
        self.input_shape = input_shape
        self.latency = LatencyStats()
        #: ``(layer name, seconds)`` per layer of the last
        #: :meth:`run_encrypted` call, in execution order (Fig. 5 view).
        self.layer_seconds: list[tuple[str, float]] = []
        self.plan = compile_plan(backend, layers, input_shape)

    @property
    def packed_width(self) -> "int | None":
        """Score width of the packed single-image layout, ``None`` if not offered.

        The plan decides (:attr:`InferencePlan.packed_width`); the layout
        of one request follows from it and the request's batch size.
        """
        return self.plan.packed_width

    @property
    def packed_input(self) -> "np.ndarray | None":
        """The ``(T, slots)`` gather of a packed request, ``None`` if the layout is not offered.

        Ciphertext *t*, slot *r* of a packed request holds flat pixel
        ``packed_input[t, r]`` (0 where it is −1): the identity for
        ``T = 1``, the first map's input windows for ``T > 1``
        (:func:`repro.henn.packing.packed_input`).
        """
        return self.plan.packed_input

    # -- client side -------------------------------------------------------------

    def encrypt_images(self, images: np.ndarray) -> np.ndarray:
        """Encrypt ``(B, C, H, W)`` floats into a ``(C, H, W)`` handle array.

        Slot *i* of the handle at position (c, h, w) holds pixel
        ``images[i, c, h, w]`` — the batch rides along for free.  All
        ``C·H·W`` slot rows go to the backend in one
        :meth:`~repro.henn.backend.HeBackend.encrypt_many` call.  A
        single image, when :attr:`packed_input` offers the packed layout,
        becomes its ``T`` gathered ciphertexts instead — in one
        ``encrypt_many`` call, a ``(T,)`` array.

        Parameters
        ----------
        images:
            Batch of 1 to ``backend.max_batch`` images matching
            ``input_shape``.

        Returns
        -------
        ``(C, H, W)`` (or packed ``(T,)``) object array of ciphertext handles.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4 or images.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected (B, {self.input_shape[0]}, {self.input_shape[1]}, "
                f"{self.input_shape[2]}), got {images.shape}"
            )
        batch = images.shape[0]
        if batch == 0:
            raise ValueError("empty batch: no image to encrypt")
        if batch > self.backend.max_batch:
            raise ValueError(
                f"batch {batch} exceeds backend capacity {self.backend.max_batch}"
            )
        pixels = int(np.prod(self.input_shape))
        gather = self.packed_input if batch == 1 else None
        if gather is not None:
            # Ciphertext t, slot r: pixel gather[t, r]; a -1 entry is a zero slot.
            rows = np.where(gather >= 0, images.reshape(-1)[gather], 0.0)
        else:
            # Row p is pixel position p (C-order over c, h, w) across the batch.
            rows = images.reshape(batch, pixels).T
        enc = np.empty(len(rows), dtype=object)
        with obs.span(
            "henn.stage.encrypt",
            pixels=pixels,
            batch=batch,
            transform_rows=len(rows) * self.backend.encrypt_transform_rows,
        ):
            for p, handle in enumerate(self.backend.encrypt_many(rows)):
                enc[p] = handle
        return enc if gather is not None else enc.reshape(self.input_shape)

    def decrypt_scores(self, scores: np.ndarray, batch: int) -> np.ndarray:
        """``(batch, classes)`` logits from the score handles of :meth:`run_encrypted`.

        Per-position scores hold one class per handle, the batch in the
        slots; packed scores (one image) are one handle, the classes in
        its slots.
        """
        width = self.packed_width
        if batch == 1 and width is not None and scores.shape == (1,):
            return self.backend.decrypt(scores[0], count=width)[None, :]
        return np.stack([self.backend.decrypt(h, count=batch) for h in scores], axis=1)

    # -- batch assembly (serving gateway) ----------------------------------------

    def assemble_batch(
        self, requests: "Sequence[np.ndarray]", counts: "Sequence[int]"
    ) -> np.ndarray:
        """Slot-stack N encrypted requests into one batch of handles.

        Cell ``(c, h, w)`` of the result packs the matching cell of
        every request along the slot axis
        (:meth:`~repro.henn.backend.HeBackend.concat_slots`), so one
        :meth:`run_encrypted` evaluates all requests at once.  The
        caller (the batching gateway) validates shapes, levels and
        scales *before* assembly — a poisoned request must be rejected
        at admission, not fail its batchmates here.

        Parameters
        ----------
        requests:
            Encrypted ``(C, H, W)`` handle arrays from
            :meth:`encrypt_images`, one per request.
        counts:
            Images (slots) each request claims, in the same order.
        """
        if len(requests) != len(counts) or not len(requests):
            raise ValueError("bad assemble_batch arguments")
        for r in requests:
            if r.shape != self.input_shape:
                raise ValueError(f"request shape {r.shape} != {self.input_shape}")
        # One layout per assembly (not per pixel cell): the pad-waste
        # counters below account each *batch* once, however many handle
        # cells share the layout.
        layout = BatchLayout(tuple(int(c) for c in counts), self.backend.max_batch)
        c, h, w = self.input_shape
        out = np.empty((c, h, w), dtype=object)
        with obs.span(
            "henn.stage.assemble",
            requests=len(requests),
            slots=layout.total,
            pad_slots=layout.pad_slots,
        ):
            for idx in np.ndindex(c, h, w):
                out[idx] = self.backend.concat_slots([r[idx] for r in requests], counts)
        layout.record(get_registry())
        return out

    def split_scores(
        self, scores: np.ndarray, counts: "Sequence[int]"
    ) -> "list[np.ndarray]":
        """Inverse of :meth:`assemble_batch` on the output side.

        Splits the flat per-class score handles of a packed
        :meth:`run_encrypted` back into one ``(classes,)`` handle array
        per request, so each response carries *only* that request's
        slot range.
        """
        out: list[np.ndarray] = []
        with obs.span("henn.stage.disassemble", requests=len(counts)):
            offset = 0
            for count in counts:
                out.append(
                    np.array(
                        [self.backend.slice_slots(s, offset, count) for s in scores],
                        dtype=object,
                    )
                )
                offset += count
        return out

    # -- server side -------------------------------------------------------------

    def run_encrypted(self, enc: np.ndarray) -> np.ndarray:
        """Propagate encrypted features through the graph, one span per layer.

        Parameters
        ----------
        enc:
            Encrypted feature handles from :meth:`encrypt_images`: the
            ``(C, H, W)`` per-position array, or a packed ``(T,)`` one
            (``T`` the rows of :attr:`packed_input`), which runs the
            plan's packed executors.

        Returns
        -------
        Flat object array of output ciphertext handles (one per class;
        one holding every class for a packed request).

        Raises
        ------
        ValueError
            For any other shape — a packed request of another ``T`` than
            the plan's included — before any layer runs.
        """
        rows: list[tuple[str, float]] = []
        x = enc
        executors, widths = self.plan.layers, [None] * len(self.layers)
        shape = tuple(self.input_shape)
        windows = self.packed_input
        # A graph whose input shape is (T,) reads (T,) arrays per-position: it never packs.
        if windows is not None and enc.shape == (len(windows),) != shape:
            executors, widths = self.plan.packed.layers, self.plan.packed.widths
        elif enc.shape != shape:
            packed = "" if windows is None else f" or packed ({len(windows)},)"
            raise ValueError(f"request of shape {enc.shape}, the plan reads {shape}{packed}")
        # The plan's layers do the work; spans carry the source layers' names.
        with obs.span("henn.stage.evaluate", layers=len(self.layers)):
            for i, (layer, ex, width) in enumerate(zip(self.layers, executors, widths)):
                name = type(layer).__name__
                t0 = time.perf_counter()
                with obs.span("henn.layer", layer=name, index=i):
                    x = ex.forward(self.backend, x)
                rows.append((name, time.perf_counter() - t0))
                # Scale/level/noise/slot gauges for the ciphertexts crossing
                # this layer boundary; no-op unless tracing is enabled.
                _health.observe_layer(self.backend, x, name, i, used_slots=width)
            # A graph ending in an activation: its sweep has no map to ride.
            out = np.empty(x.size, dtype=object)
            out[:] = self.backend.relinearize_many(list(x.reshape(-1)))
        self.layer_seconds = rows
        return out

    # -- end to end ----------------------------------------------------------------

    def classify(self, images: np.ndarray) -> np.ndarray:
        """Encrypt, classify, decrypt; returns ``(B, 10)`` logits.

        Latency of the homomorphic evaluation (the paper's "Lat": the
        server-side processing of one classification request) is pushed
        into :attr:`latency`.

        Parameters
        ----------
        images:
            ``(B, C, H, W)`` batch, ``B <= backend.max_batch``.

        Returns
        -------
        ``(B, 10)`` array of decrypted logits.
        """
        batch = images.shape[0]
        enc = self.encrypt_images(images)
        t0 = time.perf_counter()
        out = self.run_encrypted(enc)
        self.latency.add(time.perf_counter() - t0)
        with obs.span("henn.stage.decrypt", handles=len(out)):
            return self.decrypt_scores(out, batch)

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Encrypted-classification accuracy over (possibly many) batches.

        Parameters
        ----------
        images, labels:
            Full evaluation set; processed in ``backend.max_batch`` chunks.

        Returns
        -------
        Fraction of images whose argmax logit matches the label.
        """
        correct = 0
        b = self.backend.max_batch
        for start in range(0, images.shape[0], b):
            xb = images[start : start + b]
            yb = labels[start : start + b]
            logits = self.classify(xb)
            correct += int((np.argmax(logits, axis=1) == yb).sum())
        return correct / images.shape[0]


def evaluate_batch(
    engine: Any,
    requests: "Sequence[np.ndarray]",
    counts: "Sequence[int]",
    stage: "Callable[[str], AbstractContextManager] | None" = None,
) -> "list[np.ndarray]":
    """One fired batch: assemble -> run once -> split, or member by member.

    The single spelling of the serving evaluation — the batching
    gateway, the cluster's serial fallback and the cluster worker
    process all evaluate a fired batch through here.  *engine* is
    duck-typed (anything with a ``backend``,
    :meth:`~HeInferenceEngine.assemble_batch`,
    :meth:`~HeInferenceEngine.run_encrypted` and
    :meth:`~HeInferenceEngine.split_scores`).

    A backend that shares slots exactly (``native_slot_concat``) is
    assembled, evaluated once and split.  Any other backend has each
    member run through :meth:`~HeInferenceEngine.run_encrypted` in turn
    — the very handles the serial service would return, and what
    measures faster on the real schemes (docs/PERFORMANCE.md).

    *stage* is the caller's per-phase attribution: it is called with
    ``"pack"``, ``"evaluate"`` and ``"split"`` (``"evaluate"`` only for
    the member loop) and returns the context manager that phase runs
    under (request-trace stages on the gateway, ``rtrace.worker.*``
    spans in a worker); ``None`` runs bare.

    Returns one ``(classes,)`` score-handle array per request.
    """
    stage = stage or (lambda phase: nullcontext())
    if not engine.backend.native_slot_concat:
        with stage("evaluate"):
            return [engine.run_encrypted(r) for r in requests]
    with stage("pack"):
        assembled = engine.assemble_batch(requests, counts)
    with stage("evaluate"):
        scores = engine.run_encrypted(assembled)
    with stage("split"):
        return engine.split_scores(scores, counts)
