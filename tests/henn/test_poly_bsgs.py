"""BSGS polynomial evaluation: equivalence, batch bit-identity, counters.

The baby-step/giant-step evaluator (``docs/KERNELS.md``) must agree
with direct polynomial evaluation on every backend:

* **mock, unquantized** — BSGS is a plain-float reassociation of the
  same polynomial, so it matches Horner/`polyval` to float rounding;
* **CKKS / CKKS-RNS** — decrypted results match the plaintext
  polynomial within the documented approximation bound for Δ = 2**26;
* **batching** — ``poly_eval_many`` packs positions into one batched
  ciphertext per ``(level, scale)`` group on CKKS-RNS, and runs every
  handle as its own group on CKKS and the mock; on all three it must be
  *bit-identical* to evaluating each handle alone, as must a linear
  map's batched rescale and bias add and ``encrypt_many``.
"""

import numpy as np
import pytest

from repro.ckks import CkksParams
from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksBackend, CkksRnsBackend, EncodedMap, MockBackend
from repro.nt.kernels import MAX_POLY_DEGREE, compile_poly_program
from repro.obs.metrics import get_registry
from repro.utils.rng import derive_rng

from .test_ciphertext_degree import _chain, _same
from .test_encrypt_batch import reference_encrypt

#: Documented decrypt-precision bound for BSGS SLAF evaluation at
#: Δ = 2**26 (see docs/KERNELS.md): noise grows with ct-mult count, so
#: the bound is per-degree rather than one global atol.
REAL_ATOL = {2: 5e-3, 3: 5e-3, 4: 1e-2, 5: 1e-2, 6: 2e-2, 7: 2e-2, 8: 2e-2}


@pytest.fixture(scope="module")
def mock_exact():
    return MockBackend(batch=8, levels=12, quantize=False)


@pytest.fixture(scope="module")
def rns():
    return CkksRnsBackend(
        CkksRnsParams(
            n=128, moduli_bits=(36,) + (26,) * 6, scale_bits=26, special_bits=45, hw=16
        ),
        seed=0,
    )


@pytest.fixture(scope="module")
def ckks():
    return CkksBackend(
        CkksParams(n=128, scale_bits=26, q0_bits=40, levels=6, hw=16), seed=0
    )


@pytest.fixture(scope="module")
def mock():
    return MockBackend(batch=8, levels=12)


#: ``poly_eval_many`` on packed groups (rns) and on the base class's
#: one-handle groups (ckks, the quantized mock).
BATCH_BACKENDS = pytest.mark.parametrize("kind", ["rns", "ckks", "mock"])


def _coeffs(rng, degree):
    c = rng.uniform(-0.5, 0.5, degree + 1)
    c[degree] = rng.choice([-1, 1]) * rng.uniform(0.1, 0.4)  # keep true degree
    return c


def _poly(backend, h, coeffs):
    """``poly_eval`` relinearised: the sweep lazy leaves to the consumer."""
    return backend.relinearize_ext(backend.poly_eval(h, coeffs))


@pytest.mark.parametrize("degree", range(2, MAX_POLY_DEGREE + 1))
def test_bsgs_matches_polyval_unquantized_mock(mock_exact, degree, rng):
    """On float arithmetic BSGS is a reassociated Horner: results agree to
    the coefficient-encoding grid (~2**-26, the only quantization left)."""
    coeffs = _coeffs(rng, degree)
    x = rng.uniform(-1, 1, 8)
    out = mock_exact.decrypt(_poly(mock_exact, mock_exact.encrypt(x), coeffs))
    want = np.polyval(coeffs[::-1], x)
    assert np.allclose(out, want, atol=1e-6)


@pytest.mark.parametrize("degree", range(2, MAX_POLY_DEGREE + 1))
def test_bsgs_real_backends_within_bound(rns, ckks, degree, rng):
    """Decrypted BSGS results track the plaintext polynomial on both schemes."""
    coeffs = _coeffs(rng, degree)
    x = rng.uniform(-1, 1, 8)
    want = np.polyval(coeffs[::-1], x)
    for backend in (rns, ckks):
        got = backend.decrypt(_poly(backend, backend.encrypt(x), coeffs), count=8)
        assert np.allclose(got, want, atol=REAL_ATOL[degree]), backend.name


def test_bsgs_final_scale_and_level(rns):
    """BSGS lands at ~Δ scale having consumed exactly program.depth levels."""
    for degree in (2, 3, 5, 8):
        prog = compile_poly_program(degree)
        h = rns.encrypt(np.linspace(-1, 1, 8))
        out = rns.poly_eval(h, np.ones(degree + 1) * 0.1)
        assert h.level - out.level == prog.depth
        assert np.isclose(out.scale, rns.scale, rtol=0.05)


@BATCH_BACKENDS
def test_poly_eval_many_bitidentical_to_singles(kind, request, rng):
    """Packed evaluation equals per-handle evaluation down to the last limb."""
    backend = request.getfixturevalue(kind)
    coeffs = np.array([0.1, -0.3, 0.25, 0.2])
    rows = np.tile(coeffs, (5, 1))
    handles = [backend.encrypt(rng.uniform(-1, 1, 8)) for _ in range(5)]
    batched = backend.relinearize_many(backend.poly_eval_many(handles, rows))
    singles = [_poly(backend, h, coeffs) for h in handles]
    for b, s in zip(batched, singles):
        _same(b, s, backend)
        if kind != "mock":
            assert np.array_equal(b.c0, s.c0) and np.array_equal(b.c1, s.c1)
            assert b.level == s.level and b.scale == s.scale


@BATCH_BACKENDS
def test_poly_eval_many_per_row_coeffs(kind, request, rng):
    """Per-position coefficient rows (the per-channel SLAF path) batch exactly."""
    backend = request.getfixturevalue(kind)
    rows = np.array([[0.1, 0.5, -0.2, 0.3], [0.0, -0.4, 0.1, 0.2], [0.2, 0.2, 0.2, 0.1]])
    handles = [backend.encrypt(rng.uniform(-1, 1, 8)) for _ in range(3)]
    batched = backend.relinearize_many(backend.poly_eval_many(handles, rows))
    for b, h, row in zip(batched, handles, rows):
        s = _poly(backend, h, row)
        _same(b, s, backend)
        if kind != "mock":
            assert np.array_equal(b.c0, s.c0) and np.array_equal(b.c1, s.c1)


@BATCH_BACKENDS
def test_poly_eval_many_mixed_levels(kind, request, rng):
    """Handles at different (level, scale) split into groups, still exact."""
    backend = request.getfixturevalue(kind)
    coeffs = np.array([0.1, 0.4, -0.3])
    hs = [backend.encrypt(rng.uniform(-1, 1, 8)) for _ in range(4)]
    hs[1] = backend.rescale(backend.mul_plain_scalar(hs[1], 0.5))
    hs[3] = backend.rescale(backend.mul_plain_scalar(hs[3], 0.25))
    batched = backend.relinearize_many(backend.poly_eval_many(hs, np.tile(coeffs, (4, 1))))
    for b, h in zip(batched, hs):
        s = _poly(backend, h, coeffs)
        _same(b, s, backend)
        if kind != "mock":
            assert np.array_equal(b.c0, s.c0) and np.array_equal(b.c1, s.c1)


def test_weighted_sum_rescale_and_bias_bitidentical(rns, rng):
    """A map's rows (a dense one and a pruned one) leave the fused limb GEMM
    rescaled and biased in one packed pass: bit for bit the lone handle's
    ``mul_plain_scalar`` / ``add`` / ``rescale`` / ``add_plain`` chain."""
    hs = [rns.encrypt(rng.uniform(-1, 1, 8)) for _ in range(4)]
    ws = rng.uniform(-1, 1, (2, 4))
    bias = rng.uniform(-1, 1, 2)
    rows = [(None, rns.encode_taps(ws[0])), ([1, 3], rns.encode_taps(ws[1, [1, 3]]))]
    batched = rns.weighted_sum_encoded(hs, EncodedMap(rows, 4, bias))
    for got, taps, w, b in zip(batched, (hs, [hs[1], hs[3]]), (ws[0], ws[1, [1, 3]]), bias):
        want = _chain(rns, taps, w, b)
        assert np.array_equal(got.c0, want.c0) and np.array_equal(got.c1, want.c1)
        assert (got.level, got.scale) == (want.level, want.scale)


def test_encrypt_many_bitidentical_to_sequential(rns, rng):
    """Batched encryption replays the sequential randomness order exactly.

    ``encrypt`` delegates to ``encrypt_many``, so the sequential side is
    the frozen pre-fusion formula of ``test_encrypt_batch``.
    """
    ctx, pk = rns.ctx, rns.keys.pk
    rows = [rng.uniform(-1, 1, 8) for _ in range(3)]
    r1 = derive_rng(123)
    seq = [reference_encrypt(ctx, pk, r, r1) for r in rows]
    r2 = derive_rng(123)
    batched = ctx.encrypt_many(pk, rows, r2)
    for b, s in zip(batched, seq):
        assert np.array_equal(b.c0, s.c0) and np.array_equal(b.c1, s.c1)


def test_bsgs_counters_incremented(rns, rng):
    reg = get_registry()
    evals0 = reg.counter("poly.bsgs.evals").value
    mults0 = reg.counter("poly.bsgs.ct_mults").value
    rns.poly_eval(rns.encrypt(rng.uniform(-1, 1, 8)), np.array([0.1, 0.2, 0.3, 0.1]))
    assert reg.counter("poly.bsgs.evals").value == evals0 + 1
    assert reg.counter("poly.bsgs.ct_mults").value == mults0 + compile_poly_program(3).ct_mults
