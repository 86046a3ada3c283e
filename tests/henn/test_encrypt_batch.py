"""One fused encryption call per request: bit-identity with the per-pixel loop.

``CkksRnsContext.encrypt_many`` is the only CKKS-RNS encryption path:
it encodes all rows with one batched FFT, adds the message to ``e0``
*before* transforming and runs one ``(k, 3B, n)`` sweep per row block
(the block size moves no bit either).  The oracle is
:func:`reference_encrypt` — a frozen copy of the formula it replaced
(four separate per-channel transforms per ciphertext, big-int encode and
big-int ciphertext assembly), kept here and built on no ``src`` helper
that the fused path shares.  Same seed, same ciphertexts, bit for bit.
"""

import numpy as np
import pytest

import repro.ckksrns.context as context_mod
from repro.ckks import CkksParams
from repro.ckks.sampling import sample_gaussian, sample_zo
from repro.ckksrns import CkksRnsParams, RnsCiphertext
from repro.henn.backend import CkksBackend, CkksRnsBackend, MockBackend
from repro.henn.inference import HeInferenceEngine
from repro.nt.ntt import NttPlan
from repro.resilience.faults import FaultInjector

SHAPE = (1, 3, 3)
RNS_PARAMS = CkksRnsParams(
    n=128, moduli_bits=(36,) + (26,) * 4, scale_bits=26, special_bits=45, hw=16
)
MAX_BATCH = RNS_PARAMS.n // 2


def _rns(seed=7, fault_injector=None):
    return CkksRnsBackend(RNS_PARAMS, seed=seed, fault_injector=fault_injector)


def _images(batch, seed=1):
    return np.random.default_rng(seed).uniform(0, 1, (batch, *SHAPE))


def _rows(images):
    """The slot rows of a batch: pixel position p (C-order) across the images."""
    return list(images.reshape(images.shape[0], -1).T)


def reference_encrypt(ctx, pk, values, rng, scale=None):
    """The pre-fusion single-ciphertext formula, frozen.

    ``c0 = NTT(v)·b + NTT(m) + NTT(e0)``, ``c1 = NTT(v)·a + NTT(e1)``:
    four :class:`NttPlan` transforms per channel, the message encoded
    with a 1-D FFT and rounded through Python big ints, the ciphertext
    assembled in big-int arithmetic.
    """
    scale = float(scale or ctx.params.scale)
    n, enc = ctx.n, ctx.encoder
    values = np.asarray(values, dtype=np.complex128)
    slots = np.zeros(n, dtype=np.complex128)
    slots[enc._nat_index[: values.shape[0]]] = values
    real = (2.0 / n) * np.real(enc._omega_neg * np.fft.fft(slots)) * scale
    m = [int(round(c)) for c in real]
    zo = sample_zo(n, rng)
    e0 = sample_gaussian(n, rng, ctx.params.sigma)
    e1 = sample_gaussian(n, rng, ctx.params.sigma)
    c0, c1 = [], []
    for i, q in enumerate(ctx.moduli):
        plan = NttPlan.get(n, q)

        def ntt(coeffs):
            residues = np.array([int(c) % q for c in coeffs], dtype=np.int64)
            return plan.forward(residues).astype(object)

        v = ntt(zo)
        c0.append((v * pk.b[i].astype(object) + ntt(m) + ntt(e0)) % q)
        c1.append((v * pk.a[i].astype(object) + ntt(e1)) % q)
    return RnsCiphertext(
        np.array(c0, dtype=object).astype(np.int64),
        np.array(c1, dtype=object).astype(np.int64),
        ctx.top_level,
        scale,
    )


def _loop_encrypt_images(backend, images):
    """The per-pixel ``backend.encrypt`` loop ``encrypt_images`` used to run."""
    c, h, w = images.shape[1:]
    enc = np.empty((c, h, w), dtype=object)
    for ci in range(c):
        for i in range(h):
            for j in range(w):
                enc[ci, i, j] = backend.encrypt(images[:, ci, i, j])
    return enc


def _same(got, want):
    """Handles agree bit for bit (payload, level, scale)."""
    for name in ("c0", "c1", "values"):
        if hasattr(want, name) and not np.array_equal(getattr(got, name), getattr(want, name)):
            return False
    return got.level == want.level and got.scale == want.scale


@pytest.mark.parametrize("batch", [1, 3, MAX_BATCH])
def test_every_rns_path_matches_frozen_reference(batch):
    """encrypt, encrypt_many and encrypt_images replay the old ciphertexts."""
    images = _images(batch)
    rows = _rows(images)
    ref_be = _rns()
    reference = [
        reference_encrypt(ref_be.ctx, ref_be.keys.pk, r, ref_be._rng) for r in rows
    ]

    be = _rns()
    single = [be.ctx.encrypt(be.keys.pk, r, be._rng) for r in rows]
    be = _rns()
    many = be.ctx.encrypt_many(be.keys.pk, rows, be._rng)
    be = _rns()
    packed = HeInferenceEngine(be, [], SHAPE).encrypt_images(images)

    assert packed.shape == SHAPE
    for path in (single, many, list(packed.ravel())):
        assert len(path) == len(reference)
        assert all(_same(got, want) for got, want in zip(path, reference))
    # One shared generator: every path left it in the reference's state.
    assert be._rng.integers(1 << 30) == ref_be._rng.integers(1 << 30)


@pytest.mark.parametrize(
    "make",
    [
        lambda: MockBackend(batch=8),
        lambda: CkksBackend(CkksParams(n=128, scale_bits=26, q0_bits=36, levels=4, hw=16), seed=3),
    ],
    ids=["mock", "ckks"],
)
def test_generic_backends_match_their_old_loop(make):
    images = _images(3)
    want = _loop_encrypt_images(make(), images)
    got = HeInferenceEngine(make(), [], SHAPE).encrypt_images(images)
    assert all(_same(g, w) for g, w in zip(got.ravel(), want.ravel()))


def _armed():
    return FaultInjector(seed=5).corrupt_ciphertext(channel=1, times=3).perturb_scale(1.5, times=2)


def test_fault_injector_parity_rns():
    """Same ciphertexts corrupted, same scales perturbed, same event order."""
    images = _images(3)
    ref_inj, inj = _armed(), _armed()
    ref_be = _rns()
    reference = []
    for row in _rows(images):
        ct = reference_encrypt(ref_be.ctx, ref_be.keys.pk, row, ref_be._rng)
        ct = ref_inj.apply_ciphertext_faults(ct)
        ct.scale = ref_inj.next_scale(ct.scale)
        reference.append(ct)
    got = HeInferenceEngine(_rns(fault_injector=inj), [], SHAPE).encrypt_images(images)
    assert all(_same(g, w) for g, w in zip(got.ravel(), reference))
    assert inj.events == ref_inj.events and len(inj.events) == 5
    clean = _rns().encrypt_many(_rows(images))
    corrupted = [not np.array_equal(g.c0, c.c0) for g, c in zip(got.ravel(), clean)]
    assert corrupted == [True] * 3 + [False] * 6


def test_fault_injector_parity_mock():
    images = _images(3)
    ref_inj, inj = _armed(), _armed()
    want = _loop_encrypt_images(MockBackend(batch=8, fault_injector=ref_inj), images)
    got = HeInferenceEngine(MockBackend(batch=8, fault_injector=inj), [], SHAPE).encrypt_images(images)
    assert all(_same(g, w) for g, w in zip(got.ravel(), want.ravel()))
    assert inj.events == ref_inj.events and len(inj.events) == 2


def test_bigint_fallback_matches_reference_and_round_trips():
    """A coefficient at 2**62 or beyond leaves int64: exact object residues."""
    be, ref_be = _rns(), _rns()
    # Coefficients are ~ value * Δ * 2/n: 2**45 * 2**26 / 64 = 2**65.  The
    # small row rides in the same batch, so it takes the object path too.
    rows = [np.array([2.0**45, -3.0 * 2.0**44]), np.array([0.25, -0.75])]
    assert be.ctx.encoder.encode_many(rows, be.scale).dtype == object
    assert be.ctx.encoder.encode_many(rows[1:], be.scale).dtype == np.int64
    got = be.ctx.encrypt_many(be.keys.pk, rows, be._rng)
    for ct, row, atol in zip(got, rows, (0.0, 1e-4)):
        assert _same(ct, reference_encrypt(ref_be.ctx, ref_be.keys.pk, row, ref_be._rng))
        assert np.allclose(be.decrypt(ct, count=len(row)), row, rtol=1e-9, atol=atol)


@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
def test_row_blocks_do_not_change_a_ciphertext(monkeypatch, big):
    """Every row's randomness is drawn before any block transforms, so
    blocks of 1, 2 or 3 rows replay the one-block ciphertexts bit for bit."""
    rows = [np.full(4, 0.125 * i) for i in range(7)]
    if big:  # one wide row sends the whole request down the object path
        rows[3] = np.array([2.0**45, -3.0 * 2.0**44])
    runs = []
    for block_rows in (7, 1, 2, 3):
        be = _rns()
        per_row = 3 * be.ctx.k_top * be.ctx.n
        monkeypatch.setattr(context_mod, "ENCRYPT_BLOCK_ELEMS", block_rows * per_row)
        runs.append((be.ctx.encrypt_many(be.keys.pk, rows, be._rng), be._rng.integers(1 << 30)))
    (whole, state), *blocked = runs
    for cts, after in blocked:
        assert after == state
        assert all(_same(got, want) for got, want in zip(cts, whole))


def test_complex_slots_keep_their_imaginary_part():
    be, ref_be = _rns(), _rns()
    row = np.array([0.5 + 0.25j, -0.125j, 1.0])
    ct = be.ctx.encrypt(be.keys.pk, row, be._rng)
    assert _same(ct, reference_encrypt(ref_be.ctx, ref_be.keys.pk, row, ref_be._rng))
    assert np.allclose(be.ctx.decrypt(be.keys.sk, ct, count=3), row, atol=1e-4)


def test_empty_batch_and_malformed_rows_rejected():
    eng = HeInferenceEngine(MockBackend(batch=8), [], SHAPE)
    with pytest.raises(ValueError, match="empty batch"):
        eng.encrypt_images(np.zeros((0, *SHAPE)))
    be = _rns()
    with pytest.raises(ValueError, match="empty batch"):
        HeInferenceEngine(be, [], SHAPE).encrypt_images(np.zeros((0, *SHAPE)))
    with pytest.raises(ValueError, match="1-D vector"):
        be.ctx.encrypt_many(be.keys.pk, [np.zeros(4), np.zeros((2, 2))])
    with pytest.raises(ValueError, match="1-D vector"):
        be.ctx.encrypt_many(be.keys.pk, [np.zeros(MAX_BATCH + 1)])
    with pytest.raises(ValueError, match="1-D vector"):
        be.encrypt(np.zeros(MAX_BATCH + 1))
    assert be.ctx.encrypt_many(be.keys.pk, []) == []
