"""HE layers against their plaintext counterparts (mock backend)."""

import numpy as np
import pytest

from repro.henn.backend import MockBackend
from repro.henn.layers import HeAvgPool, HeConv2d, HeFlatten, HeLinear, HePoly
from repro.nn import AvgPool2d, Conv2d, Linear


@pytest.fixture
def backend():
    return MockBackend(batch=4, levels=20)


def _encrypt_maps(backend, x):
    """(B, C, H, W) -> (C, H, W) handle array."""
    b, c, h, w = x.shape
    enc = np.empty((c, h, w), dtype=object)
    for ci in range(c):
        for i in range(h):
            for j in range(w):
                enc[ci, i, j] = backend.encrypt(x[:, ci, i, j])
    return enc


def _decrypt_maps(backend, enc, batch):
    out = np.zeros((batch,) + enc.shape)
    for idx in np.ndindex(enc.shape):
        h = backend.relinearize_ext(enc[idx])  # an activation leaves its sweep to the consumer
        out[(slice(None),) + idx] = backend.decrypt(h, count=batch)
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
def test_he_conv_matches_plain(backend, rng, stride, padding):
    plain = Conv2d(2, 3, 3, stride=stride, padding=padding, rng=rng)
    x = rng.uniform(-1, 1, (4, 2, 6, 6))
    want = plain.forward(x)
    he = HeConv2d(plain.weight.data, plain.bias.data, stride, padding)
    got = _decrypt_maps(backend, he.forward(backend, _encrypt_maps(backend, x)), 4)
    assert np.max(np.abs(got - want)) < 1e-4


def test_he_conv_pruning(backend, rng):
    plain = Conv2d(1, 1, 3, rng=rng)
    x = rng.uniform(-1, 1, (2, 1, 5, 5))
    he_exact = HeConv2d(plain.weight.data, plain.bias.data, 1, 0)
    he_pruned = HeConv2d(plain.weight.data, plain.bias.data, 1, 0, prune_below=1e6)
    exact = _decrypt_maps(backend, he_exact.forward(backend, _encrypt_maps(backend, x)), 2)
    pruned = _decrypt_maps(backend, he_pruned.forward(backend, _encrypt_maps(backend, x)), 2)
    # all weights pruned -> only bias remains
    assert np.allclose(pruned, np.broadcast_to(plain.bias.data[0], pruned.shape), atol=1e-6)
    assert not np.allclose(exact, pruned)


def test_he_conv_validation(backend):
    with pytest.raises(ValueError):
        HeConv2d(np.zeros((2, 2)), None)
    he = HeConv2d(np.zeros((1, 2, 3, 3)), None)
    with pytest.raises(ValueError):
        he.forward(backend, np.empty((1, 5, 5), dtype=object))  # wrong channels
    with pytest.raises(ValueError):
        he.forward(backend, np.empty(5, dtype=object))  # wrong rank


def test_he_linear_matches_plain(backend, rng):
    plain = Linear(6, 4, rng=rng)
    x = rng.uniform(-1, 1, (4, 6))
    want = plain.forward(x)
    he = HeLinear(plain.weight.data, plain.bias.data)
    enc = np.array([backend.encrypt(x[:, f]) for f in range(6)], dtype=object)
    out = he.forward(backend, enc)
    got = np.stack([backend.decrypt(h, count=4) for h in out], axis=1)
    assert np.max(np.abs(got - want)) < 1e-4


def test_he_linear_prune(backend, rng):
    w = np.array([[1e-9, 0.5]])
    he = HeLinear(w, None, prune_below=1e-6)
    enc = np.array([backend.encrypt(np.ones(2)), backend.encrypt(np.full(2, 3.0))], dtype=object)
    out = he.forward(backend, enc)
    assert np.allclose(backend.decrypt(out[0], count=2), 1.5, atol=1e-5)


def test_he_linear_validation(backend):
    he = HeLinear(np.zeros((2, 3)), None)
    with pytest.raises(ValueError):
        he.forward(backend, np.empty((2, 2), dtype=object))
    with pytest.raises(ValueError):
        he.forward(backend, np.empty(4, dtype=object))


def test_he_poly_layerwise_and_channelwise(backend, rng):
    x = rng.uniform(-1, 1, (4, 2, 3, 3))
    enc = _encrypt_maps(backend, x)
    coeffs = np.array([[0.1, 0.5, 0.2, 0.05], [-0.2, 0.3, 0.0, 0.1]])
    layer = HePoly(coeffs, per_channel=True)
    got = _decrypt_maps(backend, layer.forward(backend, enc), 4)
    for c in range(2):
        a = coeffs[c]
        want = a[0] + a[1] * x[:, c] + a[2] * x[:, c] ** 2 + a[3] * x[:, c] ** 3
        assert np.max(np.abs(got[:, c] - want)) < 1e-4
    flatc = np.array([0.0, 1.0, 0.5])
    single = HePoly(flatc)
    assert single.depth == 2
    got1 = _decrypt_maps(backend, single.forward(backend, enc), 4)
    want1 = x + 0.5 * x * x
    assert np.max(np.abs(got1 - want1)) < 1e-4


def test_he_flatten_matches_numpy_order(backend, rng):
    x = rng.uniform(-1, 1, (2, 2, 2, 2))
    enc = _encrypt_maps(backend, x)
    flat = HeFlatten().forward(backend, enc)
    got = np.stack([backend.decrypt(h, count=2) for h in flat], axis=1)
    assert np.allclose(got, x.reshape(2, -1))


def test_he_avgpool_matches_plain(backend, rng):
    plain = AvgPool2d(2)
    x = rng.uniform(-1, 1, (3, 1, 4, 4))
    want = plain.forward(x)
    he = HeAvgPool(2)
    got = _decrypt_maps(backend, he.forward(backend, _encrypt_maps(backend, x)), 3)
    assert np.max(np.abs(got - want)) < 1e-4
