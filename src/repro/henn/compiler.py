"""Plaintext-model -> HE-graph compiler, plus the SLAF training recipe.

Two services:

* :func:`slafify` — the CNN-HE-SLAF two-phase recipe (§V.D): take a
  ReLU-trained network, freeze its weights, substitute degree-*d* SLAF
  activations and retrain only the polynomial coefficients.
* :func:`compile_model` — turn a trained :class:`~repro.nn.Sequential`
  into a list of :class:`~repro.henn.layers.HeLayer`:

  - BatchNorm layers are **folded** into the preceding conv/dense layer
    (per-channel affine absorbed into weights and bias), so they cost
    nothing homomorphically;
  - SLAF layers become :class:`~repro.henn.layers.HePoly`;
  - ReLU is rejected — it has no homomorphic counterpart (§III.A).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.henn.layers import (  # noqa: F401 - model_depth is compiler surface
    HeAvgPool,
    HeConv2d,
    HeFlatten,
    HeLayer,
    HeLinear,
    HePoly,
    model_depth,
)
from repro.nn.layers.activations import ReLU, SLAF, Square
from repro.nn.layers.batchnorm import BatchNorm2d
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.linear import Linear
from repro.nn.layers.pooling import AvgPool2d
from repro.nn.module import Sequential
from repro.nn.trainer import TrainConfig, Trainer, freeze_non_slaf, unfreeze_all

# The compile-once inference-plan pass lives in its own module; it is the
# second half of the compiler (plaintext-side precomputation per backend)
# and is re-exported here as part of the compiler surface.
from repro.henn.plan import InferencePlan, compile_plan  # noqa: F401

__all__ = ["slafify", "compile_model", "model_depth", "InferencePlan", "compile_plan"]


def slafify(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    degree: int = 3,
    init: str = "relu",
    epochs: int = 3,
    max_lr: float = 2e-4,
    per_channel: bool = False,
    seed: int | None = 0,
) -> Sequential:
    """Replace every ReLU by a trainable SLAF and retrain the coefficients.

    The original model is untouched; weights are deep-copied, frozen,
    and only the new polynomial coefficients learn (phase 2 of the
    CNN-HE-SLAF recipe [11]).  Returns the SLAF model (unfrozen).
    """
    layers: list = []
    prev_features: int | None = None
    for layer in model:
        if isinstance(layer, Conv2d):
            prev_features = layer.out_channels
            layers.append(copy.deepcopy(layer))
        elif isinstance(layer, Linear):
            prev_features = layer.out_features
            layers.append(copy.deepcopy(layer))
        elif isinstance(layer, ReLU):
            channels = prev_features if per_channel else None
            layers.append(SLAF(degree=degree, init=init, channels=channels))
        else:
            layers.append(copy.deepcopy(layer))
    slaf_model = Sequential(*layers)
    freeze_non_slaf(slaf_model)
    trainer = Trainer(
        slaf_model,
        # Polynomial-coefficient gradients involve x^k sums, so the phase-2
        # retraining runs at a small LR with gradient clipping.
        TrainConfig(epochs=epochs, batch_size=64, max_lr=max_lr, clip_norm=1.0, seed=seed),
    )
    trainer.fit(x, y)
    unfreeze_all(slaf_model)
    slaf_model.eval()
    return slaf_model


def _fold_bn_into_conv(conv: Conv2d, bn: BatchNorm2d) -> tuple[np.ndarray, np.ndarray]:
    scale, shift = bn.inference_affine()
    w = conv.weight.data * scale[:, None, None, None]
    b = (conv.bias.data if conv.bias is not None else 0.0) * scale + shift
    return w, b


def _fold_bn_into_linear(lin: Linear, bn: BatchNorm2d) -> tuple[np.ndarray, np.ndarray]:
    scale, shift = bn.inference_affine()
    w = lin.weight.data * scale[:, None]
    b = (lin.bias.data if lin.bias is not None else 0.0) * scale + shift
    return w, b


def compile_model(model: Sequential, prune_below: float = 0.0) -> list[HeLayer]:
    """Compile a trained plaintext model into HE layers.

    Raises ``ValueError`` on layers without a homomorphic counterpart
    (ReLU) or BatchNorm in a position it cannot be folded from.
    """
    he_layers: list[HeLayer] = []
    plain = list(model)
    i = 0
    while i < len(plain):
        layer = plain[i]
        nxt = plain[i + 1] if i + 1 < len(plain) else None
        if isinstance(layer, Conv2d):
            if isinstance(nxt, BatchNorm2d):
                w, b = _fold_bn_into_conv(layer, nxt)
                i += 1
            else:
                w = layer.weight.data
                b = layer.bias.data if layer.bias is not None else None
            he_layers.append(HeConv2d(w, b, layer.stride, layer.padding, prune_below))
        elif isinstance(layer, Linear):
            if isinstance(nxt, BatchNorm2d):
                w, b = _fold_bn_into_linear(layer, nxt)
                i += 1
            else:
                w = layer.weight.data
                b = layer.bias.data if layer.bias is not None else None
            he_layers.append(HeLinear(w, b, prune_below))
        elif isinstance(layer, SLAF):
            he_layers.append(HePoly(layer.coeffs.data, per_channel=layer.channels is not None))
        elif isinstance(layer, Square):
            he_layers.append(HePoly(np.array([0.0, 0.0, 1.0]), per_channel=False))
        elif isinstance(layer, Flatten):
            he_layers.append(HeFlatten())
        elif isinstance(layer, AvgPool2d):
            he_layers.append(HeAvgPool(layer.kernel_size, layer.stride))
        elif isinstance(layer, BatchNorm2d):
            raise ValueError(
                "BatchNorm must directly follow a Conv2d/Linear layer to be folded"
            )
        elif isinstance(layer, ReLU):
            raise ValueError(
                "ReLU has no homomorphic counterpart; run slafify() first (§III.A)"
            )
        else:
            raise ValueError(f"no HE lowering for layer {layer!r}")
        i += 1
    return he_layers
