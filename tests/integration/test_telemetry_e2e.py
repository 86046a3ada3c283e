"""Acceptance: traced encrypted classification over a thread pool.

The telemetry contract end to end — one CNN1 hybrid classify
(:class:`~repro.henn.hybrid.HybridRnsEngine`: the conv stage's residue
channels on a :class:`~repro.parallel.ThreadExecutor`, the tail on
CKKS-RNS) must leave behind one ``rnscnn.channel`` span per residue
channel, one ``parallel.thread.map`` dispatch carrying all of them, and
per-layer ciphertext health gauges in the rendered report.
"""

import numpy as np
import pytest

from repro import obs
from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksRnsBackend
from repro.henn.hybrid import HybridRnsEngine
from repro.henn.layers import HeConv2d, HeFlatten, HeLinear, HePoly
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.report import aggregate_spans, render_report
from repro.parallel import ThreadExecutor


@pytest.fixture()
def fresh_registry():
    prev = get_registry()
    reg = set_registry(MetricsRegistry())
    try:
        yield reg
    finally:
        set_registry(prev)


def _pool_engine(executor):
    """CNN1-shaped hybrid engine whose residue channels run on *executor*."""
    rng = np.random.default_rng(0)
    layers = [
        HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), rng.uniform(-0.1, 0.1, 2)),
        HePoly(np.array([0.1, 0.5, 0.25])),
        HeFlatten(),
        HeLinear(rng.uniform(-0.3, 0.3, (10, 32)), rng.uniform(-0.1, 0.1, 10)),
    ]
    backend = CkksRnsBackend(
        CkksRnsParams(
            n=128,
            moduli_bits=(36, 26, 26, 26, 26, 26),
            scale_bits=26,
            special_bits=45,
            hw=16,
        ),
        seed=0,
    )
    engine = HybridRnsEngine(backend, layers, (1, 6, 6))
    engine.conv.executor = executor
    return engine


def test_traced_pool_classify_yields_merged_telemetry(fresh_registry):
    images = np.random.default_rng(1).uniform(0, 1, (2, 1, 6, 6))
    with ThreadExecutor(workers=2) as ex:
        engine = _pool_engine(ex)
        k = engine.k_moduli
        with obs.tracing() as tracer:
            logits = engine.classify(images)
    assert logits.shape == (2, 10)

    names = fresh_registry.names()

    # one thread dispatch per forward, carrying every residue channel
    assert fresh_registry.counter("parallel.thread.map.calls").value == 1
    assert fresh_registry.counter("parallel.thread.map.items").value == k
    # each channel ran as its own span, recorded from the worker threads
    channels = [sp for sp in tracer.finished() if sp.name == "rnscnn.channel"]
    assert len(channels) == k
    assert aggregate_spans(tracer)["rnscnn.channel"].count == k

    # per-layer ciphertext health gauges, labelled by layer + backend
    for layer in ("HePoly", "HeLinear"):
        assert any(
            n.startswith("henn.ct.level{") and f'layer="{layer}"' in n for n in names
        ), layer
    assert "henn.ct.level" in names  # unlabelled floor
    assert fresh_registry.gauge("henn.ct.noise_margin_bits").value > 0
    assert fresh_registry.counter("henn.ct.sampled").value > 0

    # the rendered report shows the channel spans and the health gauges
    report = render_report(tracer, metrics=fresh_registry)
    assert "rnscnn.channel" in report
    assert "henn.ct.level" in report
