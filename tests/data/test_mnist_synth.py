"""Synthetic MNIST: shapes, determinism, class separability."""

import numpy as np
import pytest

from repro.data import (
    SynthMnistConfig,
    generate_synth_mnist,
    load_synth_mnist,
    normalize_unit,
    render_digit,
    to_nchw,
)


def test_render_shapes_and_dtype():
    img = render_digit(3, rng=0)
    assert img.shape == (28, 28)
    assert img.dtype == np.uint8
    with pytest.raises(ValueError):
        render_digit(10)


def test_render_deterministic():
    a = render_digit(7, rng=42)
    b = render_digit(7, rng=42)
    assert np.array_equal(a, b)


def test_render_has_ink_inside_frame():
    for d in range(10):
        img = render_digit(d, rng=d)
        assert img.max() > 150, f"digit {d} too faint"
        # the glyph lives in the interior; border rows mostly dark
        assert img[0].mean() < 100 and img[-1].mean() < 100


def test_generate_balancedish_labels():
    x, y = generate_synth_mnist(500, seed=3)
    assert x.shape == (500, 28, 28)
    counts = np.bincount(y, minlength=10)
    assert counts.min() > 20  # roughly balanced


def test_generate_custom_size():
    cfg = SynthMnistConfig(image_size=12)
    x, y = generate_synth_mnist(10, seed=0, config=cfg)
    assert x.shape == (10, 12, 12)


def test_load_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    a = load_synth_mnist(n_train=50, n_test=20, seed=9, image_size=12)
    b = load_synth_mnist(n_train=50, n_test=20, seed=9, image_size=12)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)
    assert list(tmp_path.glob("synthmnist*.npz"))


def test_classes_linearly_separable_enough():
    """A linear probe on raw pixels should beat chance by a wide margin —
    sanity that labels carry signal."""
    x, y = generate_synth_mnist(600, seed=1)
    flat = normalize_unit(x).reshape(len(x), -1)
    centroids = np.stack([flat[y == d].mean(axis=0) for d in range(10)])
    preds = np.argmin(
        ((flat[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1
    )
    assert (preds == y).mean() > 0.5


def test_transforms():
    x = np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
    u = normalize_unit(x)
    assert u.max() <= 1.0 and u.min() >= 0.0
    n = to_nchw(x)
    assert n.shape == (1, 1, 2, 2)
    with pytest.raises(ValueError):
        to_nchw(np.zeros((2, 2)))

