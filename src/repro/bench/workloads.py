"""Trained-model and engine construction for the benchmark tables.

Training runs once per (architecture, preset) pair and is cached on
disk; every benchmark then loads the same weights, so latency rows are
measured on identical models.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.bench.presets import BenchPreset
from repro.data import load_synth_mnist, normalize_unit, to_nchw
from repro.data.mnist_synth import _cache_dir
from repro.henn import (
    CkksBackend,
    CkksRnsBackend,
    MockBackend,
    build_cnn1,
    build_cnn2,
    compile_model,
    slafify,
)
from repro.henn.architectures import input_shape_for
from repro.henn.compiler import model_depth
from repro.henn.inference import HeInferenceEngine
from repro.henn.layers import HeLayer
from repro.nn import Sequential, TrainConfig, Trainer
from repro.nn.serialize import load_model, save_model

__all__ = ["TrainedModels", "prepare_models", "make_engine"]

_BUILDERS = {"cnn1": build_cnn1, "cnn2": build_cnn2}


@dataclass
class TrainedModels:
    """Everything a table generator needs for one architecture."""

    arch: str
    preset: BenchPreset
    relu_model: Sequential
    slaf_model: Sequential
    he_layers: list[HeLayer]
    depth: int
    input_shape: tuple[int, int, int]
    x_test: np.ndarray
    y_test: np.ndarray
    relu_acc: float
    slaf_acc: float


def _data_for(preset: BenchPreset):
    size = input_shape_for(preset.variant)[1]
    xtr, ytr, xte, yte = load_synth_mnist(
        n_train=preset.n_train, n_test=preset.n_test, seed=2025, image_size=size
    )
    return (
        to_nchw(normalize_unit(xtr)),
        ytr,
        to_nchw(normalize_unit(xte)),
        yte,
    )


def prepare_models(arch: str, preset: BenchPreset, cache: bool = True) -> TrainedModels:
    """Train (or load) the ReLU model, derive its SLAF twin, compile to HE."""
    if arch not in _BUILDERS:
        raise ValueError(f"arch must be one of {sorted(_BUILDERS)}")
    x, y, xv, yv = _data_for(preset)
    relu_model = _BUILDERS[arch](variant=preset.variant, seed=0)
    slaf_model_path = Path(_cache_dir()) / f"{arch}_{preset.name}_slaf_v4.npz"
    relu_model_path = Path(_cache_dir()) / f"{arch}_{preset.name}_relu_v4.npz"

    if cache and relu_model_path.exists():
        load_model(relu_model, relu_model_path)
        relu_model.eval()
    else:
        trainer = Trainer(
            relu_model,
            TrainConfig(epochs=preset.epochs, batch_size=64, max_lr=0.08, seed=0),
        )
        trainer.fit(x, y)
        if cache:
            save_model(relu_model, relu_model_path)

    # Phase 2: SLAF substitution + coefficient retraining.
    slaf_model = slafify(
        relu_model, x[: min(len(x), 4096)], y[: min(len(y), 4096)],
        degree=3, init="relu", epochs=preset.slaf_epochs, per_channel=True, seed=0,
    )
    if cache and slaf_model_path.exists():
        load_model(slaf_model, slaf_model_path)
        slaf_model.eval()
    elif cache:
        save_model(slaf_model, slaf_model_path)

    relu_model.eval()
    relu_acc = Trainer(relu_model).evaluate(xv, yv)
    slaf_acc = Trainer(slaf_model).evaluate(xv, yv)
    he_layers = compile_model(slaf_model)
    return TrainedModels(
        arch=arch,
        preset=preset,
        relu_model=relu_model,
        slaf_model=slaf_model,
        he_layers=he_layers,
        depth=model_depth(he_layers),
        input_shape=input_shape_for(preset.variant),
        x_test=xv,
        y_test=yv,
        relu_acc=relu_acc,
        slaf_acc=slaf_acc,
    )


def make_engine(models: TrainedModels, backend_kind: str) -> HeInferenceEngine:
    """Engine factory: ``mock`` | ``ckks`` (CNN-HE) | ``ckks-rns`` (CNN-HE-RNS)."""
    preset = models.preset
    if backend_kind == "mock":
        backend = MockBackend(batch=preset.accuracy_samples, levels=models.depth + 1)
    elif backend_kind == "ckks":
        backend = CkksBackend(preset.mp_params(models.depth), seed=0)
    elif backend_kind == "ckks-rns":
        backend = CkksRnsBackend(preset.rns_params(models.depth), seed=0)
    else:
        raise ValueError(f"unknown backend kind {backend_kind!r}")
    return HeInferenceEngine(backend, models.he_layers, models.input_shape)
