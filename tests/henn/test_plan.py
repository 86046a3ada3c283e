"""Inference plans: bit-identity with the reference layer walk, cache behaviour."""

import numpy as np
import pytest

from repro.ckks import CkksParams
from repro.ckksrns import CkksRnsParams
from repro.henn import backend as backend_module
from repro.henn.backend import CkksBackend, CkksRnsBackend, MockBackend
from repro.henn.inference import HeInferenceEngine
from repro.henn.layers import HeAvgPool, HeConv2d, HeFlatten, HeLinear, HePoly
from repro.henn.plan import _backend_sig, compile_plan, plan_cache_key
from repro.obs.metrics import get_registry
from repro.utils.cache import PlaintextCache

IN_SHAPE = (1, 6, 6)


def _tiny_layers(seed=0):
    """conv(2x1x3x3) -> square-ish poly -> flatten -> linear(10): depth 4."""
    rng = np.random.default_rng(seed)
    conv_w = rng.uniform(-0.5, 0.5, (2, 1, 3, 3))
    conv_b = rng.uniform(-0.1, 0.1, 2)
    lin_w = rng.uniform(-0.3, 0.3, (10, 32))
    lin_b = rng.uniform(-0.1, 0.1, 10)
    return [
        HeConv2d(conv_w, conv_b),
        HePoly(np.array([0.1, 0.5, 0.25])),
        HeFlatten(),
        HeLinear(lin_w, lin_b),
    ]


def _images(batch, seed=1, shape=IN_SHAPE):
    return np.random.default_rng(seed).uniform(0, 1, (batch,) + shape)


def _encrypt(backend, x):
    """``encrypt_images`` without an engine (whose plan would install a cache)."""
    enc = np.empty(int(np.prod(x.shape[1:])), dtype=object)
    enc[:] = backend.encrypt_many(x.reshape(len(x), -1).T)
    return enc.reshape(x.shape[1:])


def _walk(backend, layers, enc):
    """The oracle: every layer's own reference ``forward``, in order."""
    for layer in layers:
        enc = layer.forward(backend, enc)
    return enc


def _reference_classify(backend, layers, x):
    out = _walk(backend, layers, _encrypt(backend, x))
    return np.stack([backend.decrypt(h, count=len(x)) for h in out], axis=1)


def _rns_backend():
    return CkksRnsBackend(
        CkksRnsParams(
            n=128, moduli_bits=(36, 26, 26, 26, 26, 26), scale_bits=26,
            special_bits=45, hw=16,
        ),
        seed=0,
    )


def _assert_same_ciphertexts(layers):
    """Engine vs layer walk on CKKS-RNS, component for component."""
    backend = _rns_backend()
    enc = _encrypt(backend, _images(4))
    want = _walk(backend, layers, enc)
    got = HeInferenceEngine(backend, layers, IN_SHAPE).run_encrypted(enc)
    assert got.shape == want.shape
    for g, w in zip(got, want):
        assert (g.level, g.scale) == (w.level, w.scale)
        assert np.array_equal(g.c0, w.c0) and np.array_equal(g.c1, w.c1)


# -- bit-identity -----------------------------------------------------------


def test_planned_matches_unplanned_mock():
    backend = MockBackend(batch=8, levels=5)
    layers = _tiny_layers()
    x = _images(8)
    cold = _reference_classify(backend, layers, x)
    warm = HeInferenceEngine(backend, layers, IN_SHAPE).classify(x)
    assert np.array_equal(cold, warm)


@pytest.mark.parametrize("make_backend", [
    lambda: CkksBackend(
        CkksParams(n=128, scale_bits=24, q0_bits=36, levels=5, hw=16), seed=0
    ),
    lambda: _rns_backend(),
], ids=["ckks", "ckks-rns"])
def test_planned_matches_unplanned_real(make_backend):
    """Same backend, same ciphertexts: planned evaluation must produce
    bit-identical logits to the fresh-encode path."""
    backend = make_backend()
    layers = _tiny_layers()
    x = _images(4)
    enc = _encrypt(backend, x)
    out_cold = _walk(backend, layers, enc)
    # Building the engine second: the cold run above used truly fresh
    # encodes (no cache was installed on the context yet).
    planned = HeInferenceEngine(backend, layers, IN_SHAPE)
    out_warm = planned.run_encrypted(enc)
    cold = np.stack([backend.decrypt(h, count=4) for h in out_cold], axis=1)
    warm = np.stack([backend.decrypt(h, count=4) for h in out_warm], axis=1)
    assert np.array_equal(cold, warm)


def test_planned_avgpool_matches_unplanned():
    backend = MockBackend(batch=4, levels=6)
    rng = np.random.default_rng(2)
    layers = [
        HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), None),
        HeAvgPool(2),
        HeFlatten(),
        HeLinear(rng.uniform(-0.3, 0.3, (10, 8)), None),
    ]
    x = _images(4)
    cold = _reference_classify(backend, layers, x)
    warm = HeInferenceEngine(backend, layers, IN_SHAPE).classify(x)
    assert np.array_equal(cold, warm)
    # Overlapping windows (pool stride != kernel) behind a strided, padded conv.
    _assert_same_ciphertexts(
        [
            HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), rng.uniform(-0.1, 0.1, 2), 2, 1),
            HeAvgPool(2, stride=1),
            HeFlatten(),
            HeLinear(rng.uniform(-0.3, 0.3, (10, 8)), None),
        ]
    )


def test_planned_pruned_layers_match():
    """Pruned conv/linear (including fully-pruned rows) replay identically."""
    backend = MockBackend(batch=4, levels=5)
    rng = np.random.default_rng(3)
    lin_w = rng.uniform(-0.3, 0.3, (10, 32))
    lin_w[7] = 1e-9  # fully pruned row -> zero-weight fallback program
    layers = [
        HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), None, prune_below=0.2),
        HeFlatten(),
        HeLinear(lin_w, None, prune_below=0.05),
    ]
    x = _images(4)
    cold = _reference_classify(backend, layers, x)
    warm = HeInferenceEngine(backend, layers, IN_SHAPE).classify(x)
    assert np.array_equal(cold, warm)
    # Only the top-left weight survives pruning and the padding puts it
    # out of bounds along the top and left edges: fully pruned windows.
    corner = np.full((1, 1, 3, 3), 0.01)
    corner[0, 0, 0, 0] = 0.5
    pruned = [
        HeConv2d(corner, np.array([0.05]), padding=1, prune_below=0.2),
        HeFlatten(),
        HeLinear(np.vstack([rng.uniform(0.1, 0.3, (3, 36)), np.full(36, 1e-9)]), None, 0.05),
    ]
    zero_terms = [
        sum(np.array_equal(ws, [0.0]) for _, ws in layer.taps(shape).entries)
        for layer, shape in ((pruned[0], IN_SHAPE), (pruned[2], (36,)))
    ]
    assert zero_terms == [11, 1]
    _assert_same_ciphertexts(pruned)


@pytest.mark.parametrize("shape", [(1, 8, 8), (2, 6, 6)], ids=["1x8x8", "2x6x6"])
@pytest.mark.parametrize("make_backend", [
    lambda: MockBackend(batch=4, levels=5), lambda: _rns_backend()
], ids=["mock", "ckks-rns"])
def test_planned_engine_rejects_what_the_reference_rejects(make_backend, shape):
    """A handle array of another shape than the model's: the layer walk
    raises, and so must the engine (it used to return scores)."""
    backend = make_backend()
    layers = _tiny_layers()
    enc = _encrypt(backend, _images(2, shape=shape))
    with pytest.raises(ValueError):
        _walk(backend, layers, enc)
    with pytest.raises(ValueError):
        HeInferenceEngine(backend, layers, IN_SHAPE).run_encrypted(enc)


# -- cache keys -------------------------------------------------------------


def test_backend_signature_changes_with_params(monkeypatch):
    base = CkksRnsParams(
        n=128, moduli_bits=(36, 26, 26, 26, 26), scale_bits=26, special_bits=45, hw=16
    )
    b0 = CkksRnsBackend(base, seed=0)
    sig0 = _backend_sig(b0)
    assert sig0 == _backend_sig(CkksRnsBackend(base, seed=1))  # keys don't matter
    b_n = CkksRnsBackend(
        CkksRnsParams(
            n=64, moduli_bits=(36, 26, 26, 26, 26), scale_bits=26, special_bits=45, hw=8
        ),
        seed=0,
    )
    assert _backend_sig(b_n) != sig0  # ring degree changes the signature
    b_chain = CkksRnsBackend(
        CkksRnsParams(
            n=128, moduli_bits=(36, 26, 26, 26), scale_bits=26, special_bits=45, hw=16
        ),
        seed=0,
    )
    assert _backend_sig(b_chain) != sig0  # modulus chain changes the signature
    b_26 = MockBackend(batch=4, levels=5)
    monkeypatch.setattr(backend_module, "MOCK_SCALE_BITS", 20)
    b_scale = MockBackend(batch=4, levels=5)
    assert _backend_sig(b_scale) != _backend_sig(b_26)  # scale changes the signature


def test_plan_cache_key_components():
    sig = ("mock", 2.0**26, 5)
    k0 = plan_cache_key(sig, 2.0**26, (1, 2, 3))
    assert k0 == plan_cache_key(sig, 2.0**26, (1, 2, 3))
    assert k0 != plan_cache_key(sig, 2.0**24, (1, 2, 3))  # plain scale
    assert k0 != plan_cache_key(sig, 2.0**26, (1, 2, 4))  # quantized weights
    assert k0 != plan_cache_key(("mock", 2.0**26, 6), 2.0**26, (1, 2, 3))  # signature


def test_scalar_cache_misses_across_levels(rns_ctx, rns_keys, rng):
    """The same scalar at two levels must occupy two cache entries."""
    cache = PlaintextCache()
    rns_ctx.plain_cache = cache
    try:
        z = rng.uniform(-1, 1, rns_ctx.slots)
        ct = rns_ctx.encrypt(rns_keys.pk, z, 11)
        n0 = len(cache)
        rns_ctx.add_plain(ct, 0.25)
        assert len(cache) == n0 + 1
        rns_ctx.add_plain(ct, 0.25)  # same level: hit, no new entry
        assert len(cache) == n0 + 1
        lower = rns_ctx.mod_switch_to(ct, ct.level - 1)
        rns_ctx.add_plain(lower, 0.25)  # lower level: key misses
        assert len(cache) == n0 + 2
    finally:
        rns_ctx.plain_cache = None


def test_tap_encodings_deduplicated():
    """All interior conv positions share one kernel: the plan must encode
    it once per output channel, not once per position."""
    backend = MockBackend(batch=4, levels=5)
    layers = _tiny_layers()
    plan = compile_plan(backend, layers, IN_SHAPE)
    positions = len(plan.layers[0].map.rows)
    assert positions == 2 * 4 * 4
    # 2 conv kernels + 10 linear rows = 12 distinct encodings.
    assert len(plan.cache) == 12
    hits = get_registry().counter("plan.cache.hit").value
    assert hits > 0


# -- warm-path counters ------------------------------------------------------


def test_warm_classify_zero_fresh_encodes():
    """Classify #1 fills the scalar cache; classify #2 must encode nothing."""
    backend = _rns_backend()
    eng = HeInferenceEngine(backend, _tiny_layers(), IN_SHAPE)
    x = _images(4)
    eng.classify(x)  # cold: misses allowed
    reg = get_registry()
    fresh0 = reg.counter("plan.encode.fresh").value
    miss0 = reg.counter("plan.cache.miss").value
    eng.classify(x)  # warm
    assert reg.counter("plan.encode.fresh").value == fresh0
    assert reg.counter("plan.cache.miss").value == miss0


@pytest.mark.parametrize("order", ["service-first", "client-first", "two-services"])
def test_service_keeps_its_plan_cache_whoever_is_built_after_it(order):
    """Regression: ``Client`` compiled an empty plan whose fresh cache
    replaced the service's on the shared context (last writer won), so
    the cloud's biases and SLAF constants were memoised on the data
    owner's object and ``plan.cache`` described the wrong cache.  There
    is one cache per context: whoever plans second adopts the installed
    one — and the client plans nothing, so holds no cache at all."""
    from repro.henn.protocol import Client, CloudService

    backend = _rns_backend()
    layers = _tiny_layers()
    if order == "client-first":
        client = Client(backend, IN_SHAPE)
        service = CloudService(backend, layers, IN_SHAPE)
    else:
        service = CloudService(backend, layers, IN_SHAPE)
        client = Client(backend, IN_SHAPE)
    services = [service]
    if order == "two-services":
        services.append(CloudService(backend, layers, IN_SHAPE))
    for svc in services:
        assert backend.ctx.plain_cache is svc.engine.plan.cache
        assert not hasattr(client._packer, "plan")

    x = _images(4)
    entries = len(service.engine.plan.cache)
    assert service.try_classify(client.encrypt_request(x)).ok  # cold: scalars land
    assert len(service.engine.plan.cache) > entries
    reg = get_registry()
    fresh0 = reg.counter("plan.encode.fresh").value
    warm = len(service.engine.plan.cache)
    for _ in range(3):
        for svc in services:
            assert svc.try_classify(client.encrypt_request(x)).ok
    assert reg.counter("plan.encode.fresh").value == fresh0
    assert len(service.engine.plan.cache) == warm


def test_planned_trace_keeps_source_layer_names():
    backend = MockBackend(batch=4, levels=5)
    layers = _tiny_layers()
    eng = HeInferenceEngine(backend, layers, IN_SHAPE)
    eng.classify(_images(4))
    assert [n for n, _ in eng.layer_seconds] == [type(l).__name__ for l in layers]
