"""The CNN-HE-RNS hybrid engine used for the moduli-chain sweeps.

This is the literal Fig. 5 dataflow: the convolutional stage is
executed as *k* independent RNS residue channels (decompose -> parallel
conv -> CRT recompose) over fixed-point integers whose width models the
CKKS coefficient budget, and the remaining layers (activations, dense)
are evaluated homomorphically under a fixed CKKS-RNS configuration.

Sweeping *k* with everything else fixed regenerates Tables IV/VI: the
``k = 1`` row is the non-decomposed (multiprecision) convolution — the
paper's CNN-HE reference point in Table VI — and larger *k* trades
narrower, word-sized channel arithmetic against per-channel overhead.

Protocol caveat (soundness note, DESIGN.md §5.2): in the paper's
figures the residue channels of the *encrypted* input are convolved and
then CRT-recomposed; a homomorphic CRT recomposition requires a modular
reduction CKKS cannot perform, so — like the paper — this engine is a
*performance model* of the decomposed convolution stage.  The fully
encrypted CNN-HE-RNS configuration (RNS at the ciphertext level) is
:class:`~repro.henn.backend.CkksRnsBackend` + the standard engine, used
for Tables III/V.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.henn.backend import HeBackend
from repro.henn.inference import HeInferenceEngine
from repro.henn.layers import HeConv2d, HeLayer
from repro.henn.rnscnn import QuantizedConvSpec, RnsIntegerConv, basis_for_budget
from repro.utils.timing import LatencyStats

__all__ = ["HybridRnsEngine", "StageTimings"]


@dataclass
class StageTimings:
    """Per-stage seconds of the last classification."""

    conv_stage: float = 0.0
    he_stage: float = 0.0

    @property
    def total(self) -> float:
        """End-to-end seconds: conv stage + encrypted tail."""
        return self.conv_stage + self.he_stage


class HybridRnsEngine:
    """Fig. 5 pipeline: RNS-decomposed conv stage + encrypted tail."""

    def __init__(
        self,
        backend: HeBackend,
        he_layers: list[HeLayer],
        input_shape: tuple[int, int, int],
        k_moduli: int = 3,
        total_bits: int = 240,
        spec: QuantizedConvSpec | None = None,
        redundancy: int = 0,
        fault_injector: "object | None" = None,
    ):
        """Split the compiled graph at the first convolution.

        ``he_layers`` must start with a :class:`HeConv2d`; that layer is
        re-expressed as an :class:`RnsIntegerConv` over ``k_moduli``
        channels at a fixed ``total_bits`` precision budget; everything
        after it stays homomorphic.  ``redundancy`` adds that many
        redundant RRNS moduli so a corrupted or dropped conv channel is
        detected and recovered (see ``docs/RESILIENCE.md``).

        The residue channels run on the conv's serial executor; to run
        them on threads, set ``engine.conv.executor`` to a caller-owned
        :class:`~repro.parallel.ThreadExecutor`.

        The encrypted tail's inference plan is compiled up front (see
        :class:`~repro.henn.plan.InferencePlan`).
        """
        if not he_layers or not isinstance(he_layers[0], HeConv2d):
            raise ValueError("hybrid engine expects the graph to start with HeConv2d")
        conv = he_layers[0]
        default_spec = QuantizedConvSpec(
            input_bits=max(8, total_bits // 2), weight_bits=max(20, total_bits // 2 - 8)
        )
        self.spec = spec or default_spec
        need = self.spec.dynamic_range_bits(conv.weight) + 2
        base = basis_for_budget(k_moduli, max(total_bits, need))
        self.k_moduli = k_moduli
        self.conv = RnsIntegerConv(
            conv.weight,
            base,
            stride=conv.stride,
            padding=conv.padding,
            spec=self.spec,
            redundancy=redundancy,
            fault_injector=fault_injector,
        )
        self.conv_bias = conv.bias
        # The tail's plan is compiled for the feature maps the conv emits.
        self.tail = HeInferenceEngine(backend, he_layers[1:], conv.taps(input_shape).out_shape)
        self.input_shape = input_shape
        self.backend = backend
        self.latency = LatencyStats()
        self.stages = StageTimings()

    @property
    def last_faults(self) -> list[int]:
        """Residue channels erased/corrected during the last classify."""
        return self.conv.last_faults

    def classify(self, images: np.ndarray) -> np.ndarray:
        """Classify ``(B, C, H, W)`` images; returns ``(B, 10)`` logits.

        Stage seconds land in :attr:`stages` and — when tracing is
        enabled — as ``hybrid.stage.conv`` / ``hybrid.stage.he`` spans,
        with the tail's per-layer ``henn.layer`` spans nested inside
        the latter.

        Parameters
        ----------
        images:
            ``(B, C, H, W)`` float batch, ``B <= backend.max_batch``.

        Returns
        -------
        ``(B, 10)`` array of decrypted logits.
        """
        images = np.asarray(images, dtype=np.float64)
        batch = images.shape[0]
        t0 = time.perf_counter()
        with obs.span("hybrid.stage.conv", k_moduli=self.k_moduli):
            feats = self.conv.forward(images)  # (B, OC, OH, OW) floats, exact
            if self.conv_bias is not None:
                feats = feats + self.conv_bias[None, :, None, None]
        t1 = time.perf_counter()
        # Encrypt the feature maps and run the homomorphic tail.
        c, h, w = feats.shape[1:]
        enc = np.empty((c, h, w), dtype=object)
        with obs.span("hybrid.stage.he"):
            rows = feats.reshape(batch, -1).T  # one slot vector per position
            handles = self.backend.encrypt_many(list(rows))
            flat = enc.reshape(-1)
            for idx, hd in enumerate(handles):
                flat[idx] = hd
            out = self.tail.run_encrypted(enc)
        t2 = time.perf_counter()
        self.stages = StageTimings(conv_stage=t1 - t0, he_stage=t2 - t1)
        self.latency.add(self.stages.total)
        return np.stack([self.backend.decrypt(hd, count=batch) for hd in out], axis=1)

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy over *images*, batched by ``max_batch``."""
        correct = 0
        b = self.backend.max_batch
        for start in range(0, images.shape[0], b):
            logits = self.classify(images[start : start + b])
            correct += int((logits.argmax(axis=1) == labels[start : start + b]).sum())
        return correct / images.shape[0]
