"""Backend interface: mock semantics and mock/real agreement."""

import numpy as np
import pytest

from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksBackend, CkksRnsBackend, EncodedMap, HeBackend, MockBackend


@pytest.fixture(scope="module")
def mock():
    return MockBackend(batch=8, levels=10)


@pytest.fixture(scope="module")
def real():
    return CkksRnsBackend(
        CkksRnsParams(n=128, moduli_bits=(36,) + (26,) * 6, scale_bits=26, special_bits=45, hw=16),
        seed=0,
    )


def test_mock_roundtrip(mock, rng):
    v = rng.uniform(-1, 1, 8)
    h = mock.encrypt(v)
    assert np.allclose(mock.decrypt(h), v, atol=1e-6)
    assert h.level == 10
    assert h.scale == mock.scale


def test_mock_batch_capacity(mock):
    with pytest.raises(ValueError):
        mock.encrypt(np.zeros(9))


def test_mock_depth_overflow_detected(mock, rng):
    h = mock.encrypt(rng.uniform(-1, 1, 4))
    for _ in range(10):
        h = mock.rescale(mock.mul_plain_scalar(h, 1.0))
    with pytest.raises(ValueError, match="depth"):
        mock.rescale(mock.mul_plain_scalar(h, 1.0))


def test_mock_scale_tracking(mock, rng):
    h = mock.encrypt(rng.uniform(-1, 1, 4))
    h2 = mock.mul_plain_scalar(h, 0.5)
    assert h2.scale == mock.scale**2
    h3 = mock.rescale(h2)
    assert h3.scale == mock.scale


def test_mock_scale_mismatch_add(mock, rng):
    h = mock.encrypt(rng.uniform(-1, 1, 4))
    with pytest.raises(ValueError):
        mock.add(h, mock.mul_plain_scalar(h, 1.0))


def _one_row(backend, handles, ws):
    """The reference forward's map: one row of *ws* encoded afresh."""
    return EncodedMap([(None, backend.encode_taps(ws))], len(handles))


def test_weighted_sum_default_vs_override(real, mock, rng):
    """The RNS fast-path weighted sum matches the generic pairwise one."""
    vs = [rng.uniform(-1, 1, 8) for _ in range(6)]
    ws = rng.uniform(-1, 1, 6)
    hs_real = [real.encrypt(v) for v in vs]
    emap = _one_row(real, hs_real, ws)
    fast = real.decrypt(real.weighted_sum_encoded(hs_real, emap)[0], count=8)
    (generic,) = HeBackend.weighted_sum_encoded(real, hs_real, emap)
    generic = real.decrypt(generic, count=8)
    want = sum(w * v for w, v in zip(ws, vs))
    assert np.allclose(fast, want, atol=1e-3)
    assert np.allclose(fast, generic, atol=1e-3)


def test_weighted_sum_zero_weights(real, rng):
    vs = [rng.uniform(-1, 1, 8) for _ in range(3)]
    hs = [real.encrypt(v) for v in vs]
    out = real.decrypt(real.weighted_sum_encoded(hs, _one_row(real, hs, np.zeros(3)))[0], count=8)
    assert np.allclose(out, 0.0, atol=1e-3)


def test_weighted_sum_validation(mock):
    with pytest.raises(ValueError):
        _one_row(mock, [], np.array([]))
    h = mock.encrypt(np.zeros(4))
    with pytest.raises(ValueError):
        _one_row(mock, [h], np.array([1.0, 2.0]))


def _poly(backend, h, coeffs):
    """``poly_eval`` relinearised: the sweep lazy leaves to the consumer."""
    return backend.relinearize_ext(backend.poly_eval(h, coeffs))


@pytest.mark.parametrize("coeffs", [[0.1, 0.9], [0.3, -0.5, 0.2], [0.05, 0.5, 0.0, 0.25]])
def test_poly_eval_mock_matches_numpy(mock, coeffs, rng):
    x = rng.uniform(-1, 1, 8)
    h = mock.encrypt(x)
    out = mock.decrypt(_poly(mock, h, np.array(coeffs)))
    want = sum(c * x**k for k, c in enumerate(coeffs))
    assert np.allclose(out, want, atol=1e-5)


def test_poly_eval_real_matches_mock(real, mock, rng):
    coeffs = np.array([0.2, -0.4, 0.3, 0.15])
    x = rng.uniform(-1, 1, 8)
    hr = real.encrypt(x)
    hm = mock.encrypt(x)
    got_r = real.decrypt(_poly(real, hr, coeffs), count=8)
    got_m = mock.decrypt(_poly(mock, hm, coeffs))
    assert np.allclose(got_r, got_m, atol=5e-3)


def test_poly_eval_degree_bounds(mock, rng):
    h = mock.encrypt(rng.uniform(-1, 1, 4))
    with pytest.raises(ValueError):
        mock.poly_eval(h, np.array([1.0]))  # degree 0
    with pytest.raises(ValueError):
        mock.poly_eval(h, np.ones(10))  # degree 9 > MAX_POLY_DEGREE


def test_poly_eval_consumes_degree_levels(mock, rng):
    h = mock.encrypt(rng.uniform(-1, 1, 4))
    out = mock.poly_eval(h, np.array([0.0, 1.0, 1.0, 1.0]))
    assert h.level - out.level == 2  # ceil(log2(3 + 1))


def test_real_backend_square_mul(real, rng):
    x = rng.uniform(-1, 1, 8)
    h = real.encrypt(x)
    sq = real.decrypt(real.rescale(real.relinearize_ext(real.square_raw(h))), count=8)
    assert np.allclose(sq, x * x, atol=2e-3)
    mu = real.decrypt(real.rescale(real.relinearize_ext(real.mul_raw(h, h))), count=8)
    assert np.allclose(mu, x * x, atol=2e-3)


def test_mock_slots_past_a_short_handle_are_zeros_like_a_ciphertext():
    """A mock handle holding fewer values than ``max_batch`` rotates and
    takes a full-width plaintext like a CKKS-RNS ciphertext does."""
    mock = MockBackend(batch=16, levels=2)
    rns = CkksRnsBackend(
        CkksRnsParams(n=32, moduli_bits=(36, 26, 26), scale_bits=26, special_bits=45, hw=8), seed=0
    )
    rns.add_rotation_keys([1])
    x = np.array([1.0, 2.0, 3.0])
    wide = np.linspace(-1.0, 1.0, 16)
    for backend in (mock, rns):
        h = backend.encrypt(x)
        assert np.allclose(backend.decrypt(backend.rotate(h, 1), 3), [2.0, 3.0, 0.0], atol=1e-3)
        assert np.allclose(backend.decrypt(backend.add_plain(h, wide), 3), x + wide[:3], atol=1e-3)


def test_interface_stays_small_and_no_scheme_lacks_a_primitive():
    """``HeBackend`` is implemented three times, so every public name on
    it is paid for three times: the count may shrink, not grow."""
    interface = {
        name
        for name, member in vars(HeBackend).items()
        if not name.startswith("_") and (callable(member) or isinstance(member, property))
    }
    assert len(interface) <= 22, sorted(interface)
    for cls in (MockBackend, CkksBackend, CkksRnsBackend):
        assert not getattr(cls, "__abstractmethods__", None), cls
