"""Model compiler: BN folding, SLAF lowering, depth accounting, slafify."""

import numpy as np
import pytest

from repro.henn.backend import MockBackend
from repro.henn.compiler import compile_model, model_depth, slafify
from repro.henn.layers import HeConv2d, HeFlatten, HeLinear, HePoly
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    ReLU,
    SLAF,
    Sequential,
    Square,
    Trainer,
)


def _bn_model(rng):
    m = Sequential(
        Conv2d(1, 2, 3, stride=2, padding=1, rng=rng),
        BatchNorm2d(2),
        SLAF(3, init="relu"),
        Flatten(),
        Linear(2 * 4 * 4, 5, rng=rng),
        BatchNorm2d(5),
        SLAF(3, init="relu"),
        Linear(5, 3, rng=rng),
    )
    # populate BN running stats
    m.train()
    for _ in range(10):
        m.forward(rng.normal(size=(16, 1, 8, 8)))
    m.eval()
    return m


def test_bn_folding_preserves_function(rng):
    m = _bn_model(rng)
    layers = compile_model(m)
    # BN layers disappeared
    assert [type(l) for l in layers] == [HeConv2d, HePoly, HeFlatten, HeLinear, HePoly, HeLinear]
    backend = MockBackend(batch=4, levels=20, quantize=False)
    x = rng.uniform(0, 1, (4, 1, 8, 8))
    want = m.forward(x)
    enc = np.empty((1, 8, 8), dtype=object)
    for i in range(8):
        for j in range(8):
            enc[0, i, j] = backend.encrypt(x[:, 0, i, j])
    h = enc
    for layer in layers:
        h = layer.forward(backend, h)
    got = np.stack([backend.decrypt(o, count=4) for o in h], axis=1)
    assert np.max(np.abs(got - want)) < 1e-6


def test_depth_accounting(rng):
    m = _bn_model(rng)
    layers = compile_model(m)
    # conv(1) + cubic slaf(2) + dense(1) + cubic slaf(2) + dense(1)
    assert model_depth(layers) == 7


def test_relu_rejected(rng):
    m = Sequential(Linear(4, 2, rng=rng), ReLU())
    with pytest.raises(ValueError, match="ReLU"):
        compile_model(m)


def test_square_lowered(rng):
    m = Sequential(Linear(4, 2, rng=rng), Square())
    layers = compile_model(m)
    assert isinstance(layers[1], HePoly)
    assert layers[1].depth == 2


def test_orphan_batchnorm_rejected(rng):
    m = Sequential(BatchNorm2d(3), Linear(3, 2, rng=rng))
    with pytest.raises(ValueError, match="BatchNorm"):
        compile_model(m)


def test_unknown_layer_rejected():
    class Weird:
        pass

    m = Sequential()
    m.layers = [Weird()]
    with pytest.raises(ValueError, match="lowering"):
        compile_model(m)


def test_prune_threshold_propagates(rng):
    m = Sequential(Conv2d(1, 1, 3, rng=rng), Flatten(), Linear(36, 2, rng=rng))
    layers = compile_model(m, prune_below=0.05)
    assert layers[0].prune_below == 0.05
    assert layers[2].prune_below == 0.05


def _toy_classifier(rng):
    x = rng.normal(size=(400, 1, 6, 6))
    y = (x.mean(axis=(1, 2, 3)) > 0).astype(np.int64)
    m = Sequential(Conv2d(1, 2, 3, stride=2, rng=rng), ReLU(), Flatten(), Linear(2 * 4, 2, rng=rng))
    from repro.nn import TrainConfig

    Trainer(m, TrainConfig(epochs=8, batch_size=32, max_lr=0.05, seed=0)).fit(x, y)
    return m, x, y


def test_slafify_replaces_relu_and_keeps_weights(rng):
    m, x, y = _toy_classifier(rng)
    sm = slafify(m, x, y, degree=3, init="relu", epochs=1, seed=0)
    kinds = [type(l).__name__ for l in sm]
    assert "ReLU" not in kinds and "SLAF" in kinds
    # weights untouched (frozen during retraining)
    assert np.array_equal(sm[0].weight.data, m[0].weight.data)
    assert np.array_equal(sm[3].weight.data, m[3].weight.data)
    # coefficients did move away from the pure init
    base = SLAF(3, init="relu").coeffs.data
    assert not np.allclose(sm[1].coeffs.data, base)
    # original model untouched
    assert isinstance(m[1], ReLU)


def test_slafify_accuracy_close_to_relu(rng):
    m, x, y = _toy_classifier(rng)
    relu_acc = Trainer(m).evaluate(x, y)
    sm = slafify(m, x, y, degree=3, init="relu", epochs=2, seed=0)
    slaf_acc = Trainer(sm).evaluate(x, y)
    assert slaf_acc > relu_acc - 0.15


def test_slafify_per_channel(rng):
    m, x, y = _toy_classifier(rng)
    sm = slafify(m, x, y, degree=3, init="relu", epochs=1, per_channel=True, seed=0)
    slaf = [l for l in sm if isinstance(l, SLAF)][0]
    assert slaf.channels == 2  # conv out_channels
    layers = compile_model(sm)
    poly = [l for l in layers if isinstance(l, HePoly)][0]
    assert poly.per_channel
