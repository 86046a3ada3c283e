"""The packed single-image layout: BSGS diagonal products on one ciphertext.

Covers the executor (:class:`repro.henn.packing.PackedTaps`) against the
plain matrix–vector product, the window-encoded first map against the
rotated one and the per-position one, the layout decision (and what a
client learns of it), packed against per-position inference on all
three backends, and the two CKKS-RNS primitives the layout stands on:
the evaluation-domain Galois permutation and the hoisted multi-step
``rotate``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.ckks import CkksParams
from repro.ckksrns import CkksRnsParams, RnsCiphertext
from repro.data import load_synth_mnist, normalize_unit, to_nchw
from repro.henn import build_cnn1, build_cnn2, compile_model, slafify
from repro.henn.backend import (
    CkksBackend,
    CkksRnsBackend,
    EncodedMap,
    EncodedTaps,
    HeBackend,
    MockBackend,
)
from repro.henn.compiler import model_depth
from repro.henn.inference import HeInferenceEngine
from repro.henn.layers import HeAvgPool, HeConv2d, HeFlatten, HeLayer, HeLinear, HePoly
from repro.henn.packing import (
    PackedPlan,
    _diagonals,
    _identity_input,
    packed_input,
    packed_score_width,
    published_layout,
)
from repro.henn.protocol import BatchedCloudService, Client, CloudService
from repro.nt.modarith import addmod, negmod
from repro.nt.ntt import BatchedNttPlan
from repro.obs.metrics import get_registry
from repro.serving.errors import RequestValidationError
from repro.utils.cache import PlaintextCache

from .test_lazy_relin import LAZY_EAGER_ATOL

#: The end-to-end benchmark's bound on |encrypted − plaintext| logits.
LOGIT_TOLERANCE = 0.05


def _rns(n=64, moduli_bits=(36, 26, 26), seed=0):
    return CkksRnsBackend(
        CkksRnsParams(n=n, moduli_bits=moduli_bits, scale_bits=26, special_bits=45, hw=8),
        seed=seed,
    )


def _identity(backend, shape):
    return _identity_input(int(np.prod(shape)), backend.max_batch)


def _run_packed(backend, layers, shape, x, windows=None):
    """Compile the packed executors and run one image through them.

    *windows* is the request's gather; by default the identity, one
    ciphertext that every map rotates.
    """
    windows = _identity(backend, shape) if windows is None else windows
    plan = PackedPlan(backend, layers, shape, windows)
    rows = np.where(windows >= 0, np.asarray(x).reshape(-1)[windows], 0.0)
    enc = np.empty(len(rows), dtype=object)
    enc[:] = backend.encrypt_many(rows)
    for ex in plan.layers:
        enc = ex.forward(backend, enc)
    return plan, backend.decrypt(backend.relinearize_ext(enc[0]), count=plan.widths[-1])


def _steps_cover_diagonals(ex, program, in_width, slots):
    """Every nonzero diagonal is one row's giant step plus one of its baby taps."""
    babies = [0] + ex.babies
    covered = {
        g + babies[t] for g, (idxs, _) in zip(ex.steps, ex.groups.map.rows) for t in idxs
    }
    return covered == set(_diagonals(program, in_width, slots))


# -- the executor --------------------------------------------------------------


def test_rotations_needed():
    backend = MockBackend(batch=32, levels=4)
    layer = HeLinear(np.random.default_rng(0).uniform(-1, 1, (4, 10)), None)
    plan = PackedPlan(backend, [layer], (10,), _identity(backend, (10,)))
    (ex,) = plan.layers
    assert ex.rotations == len(ex.babies) + len(ex.giants)
    assert plan.rotations == sorted(set(ex.babies) | set(ex.giants))
    assert _steps_cover_diagonals(ex, layer.taps((10,)), 10, 32)
    # a 4 x 10 dense map has the 13 diagonals -3 … 9 (mod 32)
    assert ex.diagonals == 13


def test_dense_single_mock_matches_matvec(rng):
    backend = MockBackend(batch=32, levels=6)
    x = rng.uniform(-1, 1, 10)
    w = rng.uniform(-1, 1, (4, 10))
    b = rng.uniform(-1, 1, 4)
    _, got = _run_packed(backend, [HeLinear(w, b)], (10,), x)
    assert np.allclose(got, w @ x + b, atol=1e-4)


def test_dense_single_real_rns(rng):
    backend = _rns()
    x = rng.uniform(-1, 1, 12)
    w = rng.uniform(-1, 1, (3, 12))
    _, got = _run_packed(backend, [HeLinear(w, None)], (12,), x)
    assert np.allclose(got, w @ x, atol=5e-3)


def test_encrypt_features_capacity():
    """A graph wider than the slots, or a slot-sharing backend, stays per-position."""
    backend = _rns()  # 32 slots
    layers = [HeFlatten(), HeLinear(np.ones((2, 36)), None)]
    assert packed_score_width(backend, layers, (1, 6, 6)) is None
    assert packed_score_width(backend, layers[1:], (32,)) is None  # 36 inputs != 32
    engine = HeInferenceEngine(backend, layers, (1, 6, 6))
    assert engine.plan.packed is None
    assert engine.encrypt_images(np.zeros((1, 1, 6, 6))).shape == (1, 6, 6)
    mock = MockBackend(batch=64, levels=4)
    assert packed_score_width(mock, layers, (1, 6, 6)) is None


def test_dense_single_validation(rng):
    backend = MockBackend(batch=16, levels=4)
    with pytest.raises(ValueError):
        PackedPlan(backend, [HeLinear(np.zeros((2, 7)), None)], (6,), _identity(backend, (6,)))
    with pytest.raises(ValueError):  # 20 outputs do not fit 16 slots
        PackedPlan(backend, [HeLinear(np.ones((20, 6)), None)], (6,), _identity(backend, (6,)))


def test_rotation_backend_support(rng):
    class Stub(HeBackend):
        scale = 1.0
        max_batch = 4

        def encrypt(self, v):
            return v

        def decrypt(self, h, count=None):
            return h

        add = add_plain = mul_plain_scalar = square_raw = mul_raw = relinearize_ext = rescale = (
            lambda self, *a, **k: None
        )

    with pytest.raises(NotImplementedError):
        Stub().rotate(None, 1)


@st.composite
def _linear_maps(draw):
    """A small conv, dense or pooling layer and an input shape it fits."""
    kind = draw(st.sampled_from(["conv", "dense", "pool"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if kind == "dense":
        n_in, n_out = draw(st.integers(1, 24)), draw(st.integers(1, 12))
        return HeLinear(rng.uniform(-1, 1, (n_out, n_in)), rng.uniform(-1, 1, n_out)), (n_in,)
    c = draw(st.integers(1, 2))
    h = draw(st.integers(2, 5))
    if kind == "pool":
        k = draw(st.integers(1, h))
        return HeAvgPool(k, draw(st.integers(1, k))), (c, h, h)
    k, oc = draw(st.integers(1, h)), draw(st.integers(1, 3))
    bias = rng.uniform(-1, 1, oc) if draw(st.booleans()) else None
    layer = HeConv2d(
        rng.uniform(-1, 1, (oc, c, k, k)),
        bias,
        stride=draw(st.integers(1, 2)),
        padding=draw(st.integers(0, 1)),
    )
    return layer, (c, h, h)


def _matvec(program, x):
    """The tap program applied to *x* in the clear."""
    want = np.zeros(int(np.prod(program.out_shape)))
    for r, (idxs, ws) in enumerate(program.entries):
        want[r] = ws @ (x if idxs is None else x[idxs])
    return want if program.bias is None else want + program.bias


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_linear_maps(), st.integers(0, 2**16))
def test_bsgs_diagonal_product_matches_tap_program(case, seed):
    """Any conv / dense / pool program fitting the slots: packed == dense matvec."""
    layer, shape = case
    backend = MockBackend(batch=64, levels=2)
    program = layer.taps(shape)
    width = int(np.prod(shape))
    assume(int(np.prod(program.out_shape)) <= 64)  # the layout needs width <= slots
    x = np.random.default_rng(seed).uniform(-1, 1, width)
    plan, got = _run_packed(backend, [layer], shape, x)
    (ex,) = plan.layers
    assert _steps_cover_diagonals(ex, program, width, 64)
    assert np.allclose(got, _matvec(program, x), atol=1e-5)


@pytest.mark.fuzz
def test_bsgs_giant_fold_on_ckks_rns_matches_tap_program(rns512, fuzz_examples):
    """The CKKS-RNS giant-step fold (one ModUp sweep, one ModDown of the
    sum): random conv / dense / pool maps at n = 512 against the dense
    matvec, maps with zero, one and several giant steps among them."""
    giants = set()

    @settings(
        max_examples=fuzz_examples(6, 80), deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_linear_maps(), st.integers(0, 2**16))
    @example((HeLinear(np.full((1, 3), 0.5), None), (3,)), 0)  # no giant step
    @example((HeLinear(np.full((1, 6), 0.5), None), (6,)), 1)  # one
    @example((HeLinear(np.full((4, 10), 0.5), None), (10,)), 2)  # two
    def check(case, seed):
        layer, shape = case
        x = np.random.default_rng(seed).uniform(-1, 1, int(np.prod(shape)))
        plan, got = _run_packed(rns512, [layer], shape, x)
        giants.add(min(len(plan.layers[0].giants), 2))
        assert np.allclose(got, _matvec(layer.taps(shape), x), atol=1e-3)

    check()
    assert giants == {0, 1, 2}


@st.composite
def _first_convs(draw):
    """A first conv (k ∈ {1, 2, 3, 5}, stride 1–2, padding 0–2, 1–2 in and
    1–3 out channels) with dyadic weights and bias, its input shape and a
    dyadic image: every product and sum of them is exact in float64."""
    k = draw(st.sampled_from([1, 2, 3, 5]))
    stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    ic, oc = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    h = draw(st.integers(max(1, k - 2 * padding), 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    conv = HeConv2d(
        rng.integers(-64, 65, (oc, ic, k, k)) / 128,
        rng.integers(-64, 65, oc) / 128 if draw(st.booleans()) else None,
        stride=stride,
        padding=padding,
    )
    return conv, (ic, h, h), rng.integers(0, 257, (ic, h, h)) / 256


def _window_gather(layer, shape, slots):
    """The layer's windows as a request gather, whatever the cost rule would pick."""
    windows = layer.windows(shape)
    gather = np.full((len(windows), slots), -1)
    gather[:, : windows.shape[1]] = windows
    return gather


@pytest.fixture(scope="module")
def rns512():
    return _backend("ckks-rns", 1)


@pytest.mark.fuzz
def test_window_encoded_rotated_and_per_position_first_maps_agree(rns512, fuzz_examples):
    """Random first convs: the window-encoded map, the rotated ``PackedTaps``
    and the per-position ``PlannedTaps`` — bit for bit on the quantized mock,
    within ``LAZY_EAGER_ATOL`` on CKKS-RNS at n = 512."""
    mock = MockBackend(batch=256, levels=1, quantize=True)

    @settings(
        max_examples=fuzz_examples(4, 60), deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_first_convs())
    def check(case):
        conv, shape, x = case
        assume(int(np.prod(conv.taps(shape).out_shape)) <= 256)
        for backend in (mock, rns512):
            windows = _window_gather(conv, shape, backend.max_batch)
            _, windowed = _run_packed(backend, [conv], shape, x, windows)
            _, rotated = _run_packed(backend, [conv], shape, x)
            engine = HeInferenceEngine(backend, [conv], shape)
            per_position = engine.classify(np.stack([x, x]))[0]  # a batch never packs
            if backend is mock:
                assert np.array_equal(windowed, rotated)
                assert np.array_equal(windowed, per_position)
            else:
                assert np.allclose(windowed, rotated, atol=LAZY_EAGER_ATOL)
                assert np.allclose(windowed, per_position, atol=LAZY_EAGER_ATOL)

    check()


def test_rns_group_sums_are_bit_identical_to_the_generic_chain(rng):
    """The fused slot-vector weighted sum == the base class's mul_plain / add chain."""
    backend = _rns()  # the 36-bit channel reduces every product, the 26-bit ones sum lazily
    plan = PackedPlan(
        backend, [HeLinear(rng.uniform(-1, 1, (6, 12)), None)], (12,), _identity(backend, (12,))
    )
    emap = plan.layers[0].groups.map
    handles = [backend.encrypt(rng.uniform(-1, 1, 32)) for _ in range(emap.inputs)]
    got = backend.weighted_sum_encoded(handles, emap)
    want = HeBackend.weighted_sum_encoded(backend, handles, emap)
    assert len(got) == len(want) == len(plan.layers[0].steps)
    for g, w in zip(got, want):
        assert (g.level, g.scale, g.degree) == (w.level, w.scale, w.degree)
        for gc, wc in zip(g.components(), w.components(), strict=True):
            assert np.array_equal(gc, wc)


# -- packed against per-position, tiny CNN1 / CNN2 ------------------------------


@pytest.fixture(scope="module")
def tiny_models():
    xtr, ytr, xte, _ = load_synth_mnist(n_train=256, n_test=4, seed=7, image_size=12)
    x = to_nchw(normalize_unit(xtr))
    models = {
        "cnn1": slafify(build_cnn1(variant="tiny", seed=0), x, ytr, epochs=1, seed=0),
        "cnn2": slafify(build_cnn2(variant="tiny", seed=0), x, ytr, epochs=1, seed=0),
    }
    return {k: compile_model(m) for k, m in models.items()}, to_nchw(normalize_unit(xte))


def _backend(kind, depth):
    if kind == "mock":
        return MockBackend(batch=256, levels=depth)
    if kind == "ckks":
        return CkksBackend(
            CkksParams(n=512, scale_bits=26, q0_bits=40, levels=depth, hw=64), seed=0
        )
    return CkksRnsBackend(
        CkksRnsParams(
            n=512, moduli_bits=(40,) + (26,) * depth, scale_bits=26,
            special_bits=(36, 36, 36), hw=64,
        ),
        seed=0,
    )


@pytest.mark.parametrize("arch", ["cnn1", "cnn2"])
@pytest.mark.parametrize("kind", ["mock", "ckks", "ckks-rns"])
def test_packed_matches_per_position(tiny_models, arch, kind):
    layers, images = tiny_models
    layers = layers[arch]
    backend = _backend(kind, model_depth(layers))
    engine = HeInferenceEngine(backend, layers, (1, 12, 12))
    per_position = engine.classify(images[:2])[:1]  # a batch never packs
    if kind == "mock":  # slot-sharing: the engine never packs, run the executors
        assert engine.plan.packed is None
        windows = packed_input(backend, layers, (1, 12, 12))
        _, packed = _run_packed(backend, layers, (1, 12, 12), images[0], windows)
        _, rotated = _run_packed(backend, layers, (1, 12, 12), images[0])
        assert np.max(np.abs(packed - rotated)) <= LOGIT_TOLERANCE
        packed = packed[None, :]
    else:
        # the client's first-map windows, 9 taps of the 3x3 kernel
        assert engine.encrypt_images(images[:1]).shape == (len(engine.packed_input),) == (9,)
        packed = engine.classify(images[:1])
    assert packed.shape == per_position.shape
    assert np.max(np.abs(packed - per_position)) <= LOGIT_TOLERANCE
    assert np.argmax(packed) == np.argmax(per_position)


# -- the request path ------------------------------------------------------------


def _tiny_layers():
    rng = np.random.default_rng(0)
    return [
        HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), rng.uniform(-0.1, 0.1, 2)),
        HePoly(np.array([0.1, 0.5, 0.25])),
        HeFlatten(),
        HeLinear(rng.uniform(-0.3, 0.3, (10, 32)), rng.uniform(-0.1, 0.1, 10)),
    ]


def _rns128():
    return _rns(n=128, moduli_bits=(36, 26, 26, 26, 26, 26))


def test_client_packs_one_image_and_warm_request_generates_nothing():
    backend = _rns128()
    layers = _tiny_layers()
    client = Client(backend, (1, 6, 6))
    service = CloudService(backend, layers, (1, 6, 6))
    images = np.random.default_rng(2).uniform(0, 1, (3, 1, 6, 6))
    want = np.stack([
        HeInferenceEngine(MockBackend(batch=4, levels=4), layers, (1, 6, 6)).classify(
            images[i : i + 1]
        )[0]
        for i in range(2)
    ])
    reg = get_registry()
    enc = client.encrypt_request(images[:1])
    assert enc.shape == (9,)  # one ciphertext per tap of the first conv's 3x3 kernel
    first = client.decrypt_response(service.try_classify(enc).scores, 1)  # compiles, keys
    keys, fresh = reg.counter("keys.galois.generated").value, reg.counter("plan.encode.fresh").value
    response = service.try_classify(client.encrypt_request(images[1:2]))
    assert reg.counter("keys.galois.generated").value == keys
    assert reg.counter("plan.encode.fresh").value == fresh
    assert len(response.scores) == 1
    got = client.decrypt_response(response.scores, 1)
    assert np.allclose(np.concatenate([first, got]), want, atol=1e-2)
    # a two-image request keeps the per-position layout
    assert client.encrypt_request(images[:2]).shape == (1, 6, 6)


def test_engines_sharing_a_backend_follow_their_own_plans():
    """Two graphs on one backend and input shape: each engine decides from its own plan."""
    backend = _rns128()  # 64 slots
    rng = np.random.default_rng(3)
    packable = _tiny_layers()  # 32 features -> 10 classes
    wide = [  # 5 x 4 x 4 = 80 features do not fit the slots
        HeConv2d(rng.uniform(-0.5, 0.5, (5, 1, 3, 3)), None),
        HePoly(np.array([0.1, 0.5, 0.25])),
        HeFlatten(),
        HeLinear(rng.uniform(-0.2, 0.2, (3, 80)), None),
    ]
    narrow = _tiny_layers()[:3] + [HeLinear(rng.uniform(-0.3, 0.3, (4, 32)), None)]
    images = rng.uniform(0, 1, (1, 1, 6, 6))
    client = Client(backend, (1, 6, 6))
    engines = [HeInferenceEngine(backend, packable, (1, 6, 6))]
    assert client.encrypt_request(images).shape == (9,)  # every plan so far offers it
    engines += [HeInferenceEngine(backend, g, (1, 6, 6)) for g in (wide, narrow)]
    assert [e.packed_width for e in engines] == [10, None, 4]
    for engine in engines:
        want = HeInferenceEngine(MockBackend(batch=4, levels=4), engine.layers, (1, 6, 6))
        got = engine.classify(images)
        assert got.shape == (1, engine.layers[-1].weight.shape[0])
        assert np.allclose(got, want.classify(images), atol=1e-2)
    # the plans disagree: the client sends the layout every engine serves
    enc = client.encrypt_request(images)
    assert enc.shape == (1, 6, 6)
    for engine in engines:
        assert np.allclose(
            client.decrypt_response(engine.run_encrypted(enc), 1), engine.classify(images), atol=1e-2
        )


def _identity_request(backend, image):
    """One ciphertext, slot p = pixel p: the packed request of an identity gather."""
    enc = np.empty(1, dtype=object)
    enc[0] = backend.encrypt(np.asarray(image).reshape(-1))
    return enc


@pytest.mark.parametrize("stale", ["one handle to a windowed plan", "windows to a rotating plan"])
def test_a_stale_packed_layout_is_refused_not_evaluated(stale):
    """A packed request of another ``T`` than the plan's gather never yields scores:
    admission refuses it with ``RequestValidationError``, ``run_encrypted`` with ``ValueError``."""
    backend = _rns128()
    rng = np.random.default_rng(4)
    image = rng.uniform(0, 1, (1, 1, 6, 6))
    windowed = HeInferenceEngine(backend, _tiny_layers(), (1, 6, 6))
    assert windowed.packed_input.shape == (9, 64)
    if stale == "one handle to a windowed plan":
        layers, request = _tiny_layers(), _identity_request(backend, image)
    else:  # a dense first map keeps its rotations: its gather is the identity
        layers = [HeFlatten(), HeLinear(rng.uniform(-0.3, 0.3, (4, 36)), None)]
        request = windowed.encrypt_images(image)
    with BatchedCloudService(backend, layers, (1, 6, 6)) as service:
        assert (len(service.engine.packed_input), len(request)) in {(9, 1), (1, 9)}
        with pytest.raises(RequestValidationError):
            service._validate_request(request, 1)
        response = service.submit(request, 1).result(timeout=60)
        assert not response.ok and response.scores is None
        assert response.error.code == "RequestValidationError"
        with pytest.raises(ValueError):
            service.engine.run_encrypted(request)


def test_the_window_gather_is_geometry_only():
    """Two convs of one geometry publish the same gather, however many taps one prunes."""
    rng = np.random.default_rng(5)
    weight = rng.uniform(-0.5, 0.5, (2, 1, 3, 3))
    cut = float(np.median(np.abs(weight)))
    convs = [HeConv2d(weight, None), HeConv2d(weight, None, prune_below=cut)]
    kept = [sum(len(idxs) for idxs, _ in conv.taps((1, 6, 6)).entries) for conv in convs]
    assert kept[1] <= kept[0] // 2 + 1  # about half the taps dropped
    gathers = []
    for conv in convs:
        backend = _rns128()
        layers = [conv, HePoly(np.array([0.1, 0.5, 0.25])), HeFlatten(),
                  HeLinear(rng.uniform(-0.3, 0.3, (10, 32)), None)]
        HeInferenceEngine(backend, layers, (1, 6, 6))
        width, gather = published_layout(backend, (1, 6, 6))
        assert width == 10
        gathers.append(gather)
    assert gathers[0].shape == (9, 64)
    assert np.array_equal(gathers[0], gathers[1])


def test_the_client_holds_no_weight():
    """Everything a ``Client`` reaches, bar the backend it shares with the
    cloud in this process: no encoded map, no plan cache, no float array."""
    backend = _rns128()
    client = Client(backend, (1, 6, 6))
    service = CloudService(backend, _tiny_layers(), (1, 6, 6))
    image = np.random.default_rng(6).uniform(0, 1, (1, 1, 6, 6))
    assert service.try_classify(client.encrypt_request(image)).ok
    seen, stack, found = set(), [client], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, HeBackend):
            continue
        seen.add(id(obj))
        if isinstance(obj, (EncodedTaps, EncodedMap, PlaintextCache, HeLayer)):
            found.append(type(obj).__name__)
        elif isinstance(obj, np.ndarray):
            if obj.dtype.kind not in "iu":
                found.append(f"ndarray[{obj.dtype}]")
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    assert found == []
    # what it does read: the first map's geometry, as an integer gather
    assert client._packer.packed_input.shape == (9, 64)


def test_one_feature_input_stays_per_position_for_any_batch():
    """With input shape (1,), a batch of two is a (1,) array too: it must not run packed."""
    backend = _rns()
    layers = [HeLinear(np.array([[0.5], [-0.25]]), np.array([0.1, 0.2]))]
    engine = HeInferenceEngine(backend, layers, (1,))
    assert engine.packed_width == 2
    x = np.array([0.4, -0.8])  # two images of one feature, one per slot
    enc = np.empty(1, dtype=object)
    enc[0] = backend.encrypt(x)
    got = np.stack([backend.decrypt(h, count=2) for h in engine.run_encrypted(enc)], axis=1)
    assert np.allclose(got, x[:, None] @ layers[0].weight.T + layers[0].bias, atol=1e-3)


@pytest.mark.parametrize("make", [_rns128, lambda: CkksBackend(
    CkksParams(n=64, scale_bits=24, q0_bits=36, levels=2, hw=8), seed=0)])
def test_missing_rotation_key_is_a_keyerror_not_a_keygen(make):
    backend = make()
    reg = get_registry()
    before = reg.counter("keys.galois.generated").value
    ct = backend.encrypt(np.ones(4))
    with pytest.raises(KeyError):
        backend.rotate(ct, 3)
    with pytest.raises(KeyError):
        backend.rotate(ct, [1, 3])
    assert reg.counter("keys.galois.generated").value == before
    backend.add_rotation_keys([3])
    assert reg.counter("keys.galois.generated").value == before + 1
    assert np.allclose(backend.decrypt(backend.rotate(ct, 3), count=2), [1.0, 0.0], atol=1e-3)


# -- CKKS-RNS primitives ---------------------------------------------------------


def _galois_permute(a, g, n, q):
    """Coefficient-domain Galois map ``m(X) -> m(X^g)`` on one channel."""
    idx = (g * np.arange(n, dtype=np.int64)) % (2 * n)
    out = np.zeros(n, dtype=np.int64)
    out[idx % n] = np.where(idx >= n, negmod(a, q), a)
    return out


def _coeff_domain(ctx, a, g, moduli):
    coeff = ctx._intt(a, moduli)
    return ctx._ntt(
        np.stack([_galois_permute(coeff[i], g, ctx.n, m) for i, m in enumerate(moduli)]),
        moduli,
    )


def _reference_rotate(ctx, a, r, galois):
    """One rotation the coefficient-domain way: permute, then a whole key switch."""
    g = ctx.galois_element(r)
    moduli = ctx.moduli[: a.k]
    key = galois[g]
    c1g = ctx._intt(_coeff_domain(ctx, a.c1, g, moduli), moduli)
    ks, d = ctx.keyswitch, ctx.keyswitch.digits(a.level)
    acc = ks.inner(ks.mod_up(c1g, a.level), key.b[:d], key.a[:d], a.level)
    r0, r1 = ks.mod_down(acc, a.level)
    c0g = _coeff_domain(ctx, a.c0, g, moduli)
    c0 = np.stack([addmod(c0g[i], r0[i], m) for i, m in enumerate(moduli)])
    return RnsCiphertext(c0, r1, a.level, a.scale)


@pytest.mark.parametrize("g_exp", [1, 3, 17, 63])
def test_galois_permutation_matches_coefficient_domain(rns_ctx, g_exp):
    ctx = rns_ctx
    g = pow(5, g_exp, 2 * ctx.n)
    rng = np.random.default_rng(g_exp)
    moduli = ctx.moduli
    a = np.stack([rng.integers(0, m, ctx.n) for m in moduli])
    assert np.array_equal(a[..., ctx.galois_permutation(g)], _coeff_domain(ctx, a, g, moduli))


@pytest.mark.parametrize("drop", [0, 2])
def test_hoisted_rotate_is_bit_identical_to_sequential(rns_ctx, rns_keys, drop):
    ctx = rns_ctx
    rng = np.random.default_rng(drop)
    ct = ctx.encrypt(rns_keys.pk, rng.uniform(-1, 1, ctx.slots), rng)
    for _ in range(drop):
        ct = ctx.rescale(ctx.mul_plain_scalar(ct, 0.5))
    steps = [1, 2, 5, 0]
    hoisted = ctx.rotate(ct, steps, rns_keys.galois)
    for r, got in zip(steps, hoisted):
        want = ct if r == 0 else _reference_rotate(ctx, ct, r, rns_keys.galois)
        single = ctx.rotate(ct, r, rns_keys.galois)
        for other in (want, single):
            assert np.array_equal(got.c0, other.c0) and np.array_equal(got.c1, other.c1)



def test_one_part_rotate_sum_is_bit_identical_to_rotate(rns_ctx, rns_keys):
    ctx = rns_ctx
    rng = np.random.default_rng(3)
    ct = ctx.encrypt(rns_keys.pk, rng.uniform(-1, 1, ctx.slots), rng)
    ct = ctx.rescale(ctx.mul_plain_scalar(ct, 0.5))
    for r in (5, 0):
        got, want = ctx.rotate_sum([ct], [r], rns_keys.galois), ctx.rotate(ct, r, rns_keys.galois)
        assert (got.level, got.scale) == (want.level, want.scale)
        assert np.array_equal(got.c0, want.c0) and np.array_equal(got.c1, want.c1)


def test_rotate_sum_adds_the_rotated_parts(rns_ctx, rns_keys):
    ctx = rns_ctx
    rng = np.random.default_rng(4)
    values = rng.uniform(-1, 1, (4, ctx.slots))
    cts = ctx.encrypt_many(rns_keys.pk, list(values), rng)
    steps = [0, 1, 5, 2]
    got = ctx.decrypt_real(rns_keys.sk, ctx.rotate_sum(cts, steps, rns_keys.galois))
    want = sum(np.roll(v, -r) for v, r in zip(values, steps))
    assert np.allclose(got, want, atol=1e-4)


def test_rotate_sum_refuses_mixed_parts_and_missing_keys(rns_ctx, rns_keys, monkeypatch):
    ctx = rns_ctx
    rng = np.random.default_rng(5)
    ct = ctx.encrypt(rns_keys.pk, rng.uniform(-1, 1, ctx.slots), rng)
    lower = ctx.rescale(ctx.mul_plain_scalar(ct, 0.5))
    with pytest.raises(ValueError, match="levels"):
        ctx.rotate_sum([ct, lower], [1, 2], rns_keys.galois)
    with pytest.raises(ValueError, match="scale"):
        ctx.rotate_sum([ct, ctx.mul_plain_scalar(ct, 0.5)], [1, 2], rns_keys.galois)

    def no_transform(plan, stack):
        raise AssertionError("a transform ran before the key check")

    monkeypatch.setattr(BatchedNttPlan, "forward", no_transform)
    monkeypatch.setattr(BatchedNttPlan, "inverse", no_transform)
    with pytest.raises(KeyError):
        ctx.rotate_sum([ct, ct], [1, 3], rns_keys.galois)