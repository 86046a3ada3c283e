"""Inference engine: packing, latency accounting, accuracy loop."""

import numpy as np
import pytest

from repro.henn.architectures import build_cnn1, input_shape_for
from repro.henn.backend import MockBackend
from repro.henn.compiler import compile_model, model_depth, slafify
from repro.henn.inference import HeInferenceEngine
from repro.nn import Trainer


@pytest.fixture(scope="module")
def tiny_setup():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (600, 1, 12, 12))
    y = (x[:, 0, 3:9, 3:9].mean(axis=(1, 2)) > x.mean(axis=(1, 2, 3))).astype(np.int64) + 2 * 0
    model = build_cnn1(variant="tiny", seed=0)
    from repro.nn import TrainConfig

    Trainer(model, TrainConfig(epochs=3, batch_size=32, max_lr=0.05, seed=0)).fit(x, y % 10)
    slaf = slafify(model, x, y % 10, epochs=1, seed=0)
    layers = compile_model(slaf)
    return slaf, layers, x, y % 10


def test_engine_matches_plain_model(tiny_setup):
    slaf, layers, x, y = tiny_setup
    backend = MockBackend(batch=16, levels=model_depth(layers) + 1)
    eng = HeInferenceEngine(backend, layers, (1, 12, 12))
    logits = eng.classify(x[:16])
    want = Trainer(slaf).predict(x[:16])
    assert logits.shape == (16, 10)
    assert np.max(np.abs(logits - want)) < 1e-2
    assert np.array_equal(logits.argmax(1), want.argmax(1))


def test_engine_latency_and_trace(tiny_setup):
    _, layers, x, _ = tiny_setup
    backend = MockBackend(batch=4, levels=model_depth(layers) + 1)
    eng = HeInferenceEngine(backend, layers, (1, 12, 12))
    eng.classify(x[:4])
    assert eng.latency.count == 1
    assert eng.latency.avg > 0
    assert len(eng.layer_seconds) == len(layers)
    assert sum(s for _, s in eng.layer_seconds) <= eng.latency.samples[-1] + 1e-4


def test_engine_input_validation(tiny_setup):
    _, layers, x, _ = tiny_setup
    backend = MockBackend(batch=4, levels=12)
    eng = HeInferenceEngine(backend, layers, (1, 12, 12))
    with pytest.raises(ValueError):
        eng.encrypt_images(x[:2, :, :6, :6])  # wrong spatial size
    with pytest.raises(ValueError):
        eng.encrypt_images(x[:8])  # exceeds batch capacity


def test_engine_accuracy_loops_batches(tiny_setup):
    _, layers, x, y = tiny_setup
    backend = MockBackend(batch=8, levels=12)
    eng = HeInferenceEngine(backend, layers, (1, 12, 12))
    acc = eng.accuracy(x[:24], y[:24])
    assert 0.0 <= acc <= 1.0
    assert eng.latency.count == 3  # three batches of 8
