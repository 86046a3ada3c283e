"""Ciphertext-health gauges and the decrypt-side precision probe."""

import numpy as np
import pytest

from repro import obs
from repro.henn.backend import MockBackend
from repro.henn.inference import HeInferenceEngine
from repro.henn.layers import HeFlatten, HeLinear, HePoly
from repro.obs.health import ciphertext_health, observe_layer, precision_probe
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry


@pytest.fixture()
def fresh_registry():
    """Swap in an isolated global registry for the duration of one test."""
    prev = get_registry()
    reg = set_registry(MetricsRegistry())
    try:
        yield reg
    finally:
        set_registry(prev)


def _engine(levels=6):
    rng = np.random.default_rng(0)
    layers = [
        HePoly(np.array([0.1, 0.5, 0.25])),
        HeFlatten(),
        HeLinear(rng.uniform(-0.4, 0.4, (10, 16)), rng.uniform(-0.1, 0.1, 10)),
    ]
    backend = MockBackend(batch=8, levels=levels)
    return backend, HeInferenceEngine(backend, layers, (1, 4, 4))


def test_ciphertext_health_fields_on_mock():
    backend = MockBackend(batch=4, levels=5)
    ct = backend.encrypt(np.array([0.5, -0.25]))
    h = ciphertext_health(backend, ct)
    assert h["scale_bits"] == pytest.approx(26.0)
    assert h["level"] == 5
    assert h["depth_consumed"] == 0
    # mock modulus fiction: one Δ-sized prime per remaining level
    assert h["modulus_bits"] == pytest.approx(26.0 * 6)
    assert h["noise_margin_bits"] == pytest.approx(26.0 * 5)
    # consume one level: margin shrinks by one prime
    ct2 = backend.rescale(backend.relinearize_ext(backend.square_raw(ct)))
    h2 = ciphertext_health(backend, ct2)
    assert h2["level"] == 4 and h2["depth_consumed"] == 1
    assert h2["noise_margin_bits"] < h["noise_margin_bits"]


def test_ciphertext_health_on_rns_backend(rns_ctx):
    from repro.henn.backend import CkksRnsBackend

    backend = CkksRnsBackend(rns_ctx.params, seed=0)
    ct = backend.encrypt(np.array([0.5]))
    h = ciphertext_health(backend, ct)
    # active prefix of the prime chain: sum of the channel bit-lengths
    expected = sum(int(m).bit_length() for m in backend.ctx.moduli[: h["level"] + 1])
    assert h["modulus_bits"] == pytest.approx(float(expected))
    assert h["noise_margin_bits"] > 0


def test_observe_layer_noop_when_tracing_disabled(fresh_registry):
    backend = MockBackend(batch=4)
    ct = backend.encrypt(np.array([0.5]))
    assert observe_layer(backend, np.array([ct], dtype=object), "HePoly", 0) is None
    assert fresh_registry.names() == []


def test_observe_layer_records_labelled_gauges(fresh_registry):
    backend = MockBackend(batch=4, levels=5)
    handles = np.array([backend.encrypt(np.array([0.5])) for _ in range(3)], dtype=object)
    # make one handle strictly weaker: it must define the floor
    handles[1] = backend.rescale(backend.relinearize_ext(backend.square_raw(handles[1])))
    with obs.tracing():
        health = observe_layer(backend, handles, "HeConv2d", 2)
    assert health is not None and health["level"] == 4
    g = fresh_registry.gauge(
        "henn.ct.level", {"layer": "HeConv2d", "backend": "mock", "index": 2}
    )
    assert g.value == 4.0
    assert fresh_registry.gauge("henn.ct.level").value == 4.0
    assert fresh_registry.counter("henn.ct.sampled").value == 3
    assert fresh_registry.gauge("henn.ct.noise_margin_bits").value > 0


def test_engine_layer_boundaries_feed_health_gauges(fresh_registry):
    backend, engine = _engine()
    x = np.random.default_rng(1).uniform(0, 1, (2, 1, 4, 4))
    with obs.tracing():
        engine.classify(x)
    names = fresh_registry.names()
    # one labelled series per (layer, index) plus the unlabelled floor
    assert any(n.startswith("henn.ct.level{") and 'layer="HePoly"' in n for n in names)
    assert any('layer="HeLinear"' in n for n in names)
    assert "henn.ct.level" in names
    floor = fresh_registry.gauge("henn.ct.level").to_dict()
    assert floor["min"] is not None and floor["min"] < backend.levels


def test_engine_without_tracing_records_no_health(fresh_registry):
    _, engine = _engine()
    x = np.random.default_rng(1).uniform(0, 1, (1, 1, 4, 4))
    engine.classify(x)
    assert not any(n.startswith("henn.ct.") for n in fresh_registry.names())


def test_precision_probe_against_plaintext_reference(fresh_registry):
    backend, engine = _engine()
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, (3, 1, 4, 4))

    # plaintext reference model: the same graph on raw floats
    poly = lambda v: 0.1 + 0.5 * v + 0.25 * v * v
    linear = engine.layers[2]
    flat = poly(x).reshape(3, -1)
    reference = flat @ linear.weight.T + linear.bias

    enc = engine.encrypt_images(x)
    out = engine.run_encrypted(enc)
    stats = precision_probe(backend, out, reference, labels={"stage": "logits"})
    assert stats["max_abs"] < 1e-4  # mock noise is pure quantisation
    assert stats["bits_precision"] > 10
    g = fresh_registry.gauge(
        "henn.probe.max_abs_err", {"backend": "mock", "stage": "logits"}
    )
    assert g.value == pytest.approx(stats["max_abs"])
    assert (
        fresh_registry.gauge(
            "henn.probe.bits_precision", {"backend": "mock", "stage": "logits"}
        ).value
        == pytest.approx(stats["bits_precision"])
    )


def test_precision_probe_single_handle(fresh_registry):
    backend = MockBackend(batch=4)
    values = np.array([0.5, -0.25, 0.125])
    ct = backend.encrypt(values)
    stats = precision_probe(backend, ct, values)
    assert stats["max_abs"] < 1e-6
