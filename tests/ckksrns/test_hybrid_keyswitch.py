"""Hybrid (grouped-digit) key switching.

* **α = 1 is the old gadget, bit for bit.**  A frozen copy of the
  one-prime-per-digit sweep lives in this file (:func:`gadget_keyswitch`,
  written against per-channel plans and plain ``np.mod`` lifts, sharing
  nothing with the grouped code) and every switch an int
  ``special_bits`` context performs must be ``array_equal`` to it —
  one handle at a time, or packed and split into 2 and 3 position
  shards by the backend's ``relinearize_many``.
* **α > 1 is correct at every level.**  For α ∈ {2, 3, 4} on a 7-prime
  chain — partial last group, groups cut by the level — the switched
  ciphertext decrypts, in exact big-integer arithmetic, to the degree-2
  plaintext plus a noise inside the bound derived in docs/KERNELS.md
  "Hybrid key switching".
"""

import math

import numpy as np
import pytest

from repro.ckks.sampling import DEFAULT_SIGMA
from repro.ckksrns import CkksRnsContext, CkksRnsParams, keyswitch
from repro.ckksrns.ciphertext import RnsCiphertext
from repro.data import load_synth_mnist, normalize_unit, to_nchw
from repro.henn import CkksRnsBackend, build_cnn1, compile_model, slafify
from repro.henn.architectures import build_cnn2
from repro.henn.compiler import model_depth
from repro.henn.inference import HeInferenceEngine
from repro.nt.modarith import addmod, mulmod, negmod, submod
from repro.nt.ntt import NttPlan

from ..henn.test_lazy_relin import LAZY_EAGER_ATOL
from ..henn.test_shards import shards

N = 128
CHAIN = (36,) + (26,) * 6
HW = 16
SPECIALS = {1: 45, 2: (36, 36), 3: (36, 36, 36), 4: (36, 36, 36, 36)}
#: P barely covers the widest digit (62 = 36 + 26 bits, 90 vs 88): the
#: Q_g/P term of the noise, invisible under the roomy sets above, shows.
TIGHT_SPECIALS = [(31, 31), (30, 30, 30)]


def _params(alpha: "int | tuple[int, ...]") -> CkksRnsParams:
    return CkksRnsParams(
        n=N, moduli_bits=CHAIN, scale_bits=26, special_bits=SPECIALS.get(alpha, alpha), hw=HW
    )


def relinearize_all(backend: CkksRnsBackend, mode: str, xs: list) -> list:
    """Relinearise every handle of *xs*: each alone (``serial``), or packed
    and run as 2 and as 3 position shards (``sharded``), which must agree
    bit for bit."""
    if mode == "serial":
        return [backend.relinearize_ext(x) for x in xs]
    runs = []
    for count in (2, 3):
        with shards(backend, count):
            runs.append(backend.relinearize_many(xs))
    for a, b in zip(*runs):
        assert np.array_equal(a.c0, b.c0) and np.array_equal(a.c1, b.c1)
    return runs[0]


# -- the frozen one-prime-per-digit sweep (PR 12's _keyswitch_coeff) ----------


def gadget_keyswitch(ctx, x_coeff, kb, ka, level):
    """One digit per chain prime, one special prime; serial, unchunked.

    ``x_coeff`` is ``(p·k, ..., n)`` coefficient-domain, ``kb``/``ka``
    ``(p·k, k_top+1, n)``; returns the two ``(k, ..., n)`` eval stacks.
    """
    k = level + 1
    moduli = ctx.moduli[:k]
    (p_special,) = ctx.special_moduli
    ext = moduli + [p_special]
    q_top = math.prod(ctx.moduli)
    hat_inv_top = [pow(q_top // m, -1, m) for m in ctx.moduli]
    d_rows = x_coeff.shape[0]
    centered = np.empty(x_coeff.shape, dtype=np.int64)
    for j in range(d_rows):
        qj = moduli[j % k]
        d = mulmod(x_coeff[j], np.int64(hat_inv_top[j % k]), qj)
        centered[j] = np.where(d > qj // 2, d - qj, d)
    kshape = (d_rows,) + (1,) * (x_coeff.ndim - 2) + (x_coeff.shape[-1],)
    acc = np.empty((k + 1, 2) + x_coeff.shape[1:], dtype=np.int64)
    for i, m in enumerate(ext):
        lifted_eval = NttPlan.get(ctx.n, m).forward(np.mod(centered, np.int64(m)))
        key_idx = i if i < k else ctx.k_top
        acc[i, 0] = mulmod(lifted_eval, kb[:, key_idx].reshape(kshape), m).sum(axis=0) % m
        acc[i, 1] = mulmod(lifted_eval, ka[:, key_idx].reshape(kshape), m).sum(axis=0) % m
    last = NttPlan.get(ctx.n, p_special).inverse(acc[k])
    lifted = np.where(last > p_special // 2, last - p_special, last)
    out = np.empty((k,) + acc.shape[1:], dtype=np.int64)
    for i, m in enumerate(moduli):
        lift_eval = NttPlan.get(ctx.n, m).forward(np.mod(lifted, np.int64(m)))
        t = submod(acc[i], lift_eval, m)
        out[i] = mulmod(t, np.int64(pow(p_special % m, -1, m)), m)
    return out[:, 0], out[:, 1]


def _coeff(ctx, stack):
    """Per-channel inverse NTT of a ``(k, ..., n)`` eval stack."""
    return np.stack(
        [NttPlan.get(ctx.n, m).inverse(stack[i]) for i, m in enumerate(ctx.moduli[: len(stack)])]
    )


def _add_rows(ctx, a, b):
    return np.stack([addmod(a[i], b[i], m) for i, m in enumerate(ctx.moduli[: len(a)])])


def gadget_relinearize(ctx, x, relin, relin3=None):
    k = x.k
    if x.c3 is None:
        r0, r1 = gadget_keyswitch(ctx, _coeff(ctx, x.c2), relin.b[:k], relin.a[:k], x.level)
    else:
        x_coeff = np.concatenate([_coeff(ctx, x.c2), _coeff(ctx, x.c3)])
        kb = np.concatenate([relin.b[:k], relin3.b[:k]])
        ka = np.concatenate([relin.a[:k], relin3.a[:k]])
        r0, r1 = gadget_keyswitch(ctx, x_coeff, kb, ka, x.level)
    return _add_rows(ctx, x.c0, r0), _add_rows(ctx, x.c1, r1)


def _galois(a, g, q):
    """``m(X) -> m(X^g)`` on one coefficient row modulo *q*."""
    n = a.shape[-1]
    idx = (g * np.arange(n)) % (2 * n)
    out = np.empty_like(a)
    out[..., idx % n] = np.where(idx >= n, negmod(a, q), a)
    return out


def gadget_rotate(ctx, a, rotation, galois):
    g = ctx.galois_element(rotation)
    key = galois[g]
    moduli = ctx.moduli[: a.k]
    c0g = np.stack([_galois(r, g, m) for r, m in zip(_coeff(ctx, a.c0), moduli)])
    c1g = np.stack([_galois(r, g, m) for r, m in zip(_coeff(ctx, a.c1), moduli)])
    r0, r1 = gadget_keyswitch(ctx, c1g, key.b[: a.k], key.a[: a.k], a.level)
    c0_eval = np.stack([NttPlan.get(ctx.n, m).forward(c0g[i]) for i, m in enumerate(moduli)])
    return _add_rows(ctx, c0_eval, r0), r1


@pytest.fixture(scope="module")
def gadget_backend():
    backend = CkksRnsBackend(_params(1), seed=3)
    backend.add_rotation_keys((1, 5))
    return backend


def _degree3(ctx, ct, defer_high):
    y = ctx.rescale_ext(ctx.square_raw(ct))
    acc = ctx.rescale(ctx.mul_plain_scalar(ct, 0.5))
    return ctx.rescale_ext(ctx.mul_raw(acc, y), defer_high=defer_high)


@pytest.mark.parametrize("mode", ["serial", "sharded"])
def test_alpha1_relinearize_is_the_gadget(gadget_backend, mode, rng):
    """Degree 2 at every level and the merged s²/s³ sweep, serial and in position shards."""
    ctx, kp = gadget_backend.ctx, gadget_backend.keys
    cts = ctx.encrypt_many(kp.pk, [rng.uniform(-1, 1, ctx.slots) for _ in range(3)], 5)
    for level in range(ctx.top_level, -1, -1):
        xs = [ctx.square_raw(ctx.mod_switch_to(ct, level)) for ct in cts]
        for x, got in zip(xs, relinearize_all(gadget_backend, mode, xs)):
            want = gadget_relinearize(ctx, x, kp.relin)
            assert np.array_equal(got.c0, want[0]) and np.array_equal(got.c1, want[1]), level
    x3s = [_degree3(ctx, ct, defer_high=False) for ct in cts]
    for x3, got in zip(x3s, relinearize_all(gadget_backend, mode, x3s)):
        want = gadget_relinearize(ctx, x3, kp.relin, kp.relin3)
        assert np.array_equal(got.c0, want[0]) and np.array_equal(got.c1, want[1])


def test_alpha1_rotate_is_the_gadget(gadget_backend, rng):
    ctx, kp = gadget_backend.ctx, gadget_backend.keys
    ct = ctx.encrypt(kp.pk, rng.uniform(-1, 1, ctx.slots), 6)
    for src in (ct, ctx.mod_switch_to(ct, 2)):
        for r in (1, 5):
            got = ctx.rotate(src, r, kp.galois)
            want = gadget_rotate(ctx, src, r, kp.galois)
            assert np.array_equal(got.c0, want[0]) and np.array_equal(got.c1, want[1])


@pytest.mark.parametrize("mode", ["serial", "sharded"])
def test_alpha1_batched_switch_across_a_chunk_boundary(gadget_backend, mode, rng, monkeypatch):
    """Five positions in chunks of 2 + 2 + 1 — or in shards of 3 + 2 and
    2 + 2 + 1, each chunked again — equal the unchunked gadget."""
    ctx, kp = gadget_backend.ctx, gadget_backend.keys
    cts = ctx.encrypt_many(kp.pk, [rng.uniform(-1, 1, ctx.slots) for _ in range(5)], 9)
    batch = RnsCiphertext(
        np.stack([c.c0 for c in cts], axis=1), np.stack([c.c1 for c in cts], axis=1),
        ctx.top_level, cts[0].scale,
    )
    want = gadget_relinearize(ctx, ctx.square_raw(batch), kp.relin)
    xs = [ctx.square_raw(ct) for ct in cts] if mode == "sharded" else [ctx.square_raw(batch)]
    monkeypatch.setattr(
        keyswitch, "KEYSWITCH_CHUNK_ELEMS", 2 * (ctx.k_top + 1) * ctx.k_top * ctx.n
    )  # two positions
    got = relinearize_all(gadget_backend, mode, xs)
    c0 = np.stack([g.c0 for g in got], axis=1).reshape(want[0].shape)
    c1 = np.stack([g.c1 for g in got], axis=1).reshape(want[1].shape)
    assert np.array_equal(c0, want[0]) and np.array_equal(c1, want[1])


# -- α > 1: exact big-integer decryption against the derived bound -------------


def _phase(ctx, sk, comps, level):
    """``sum_j comps[j] * s^j  mod Q_level`` as centered big integers."""
    moduli = ctx.moduli[: level + 1]
    rows = []
    for i, m in enumerate(moduli):
        acc = np.zeros(ctx.n, dtype=np.int64)
        for comp in reversed(comps):  # Horner in s
            acc = addmod(mulmod(acc, sk.s[i], m), comp[i], m)
        rows.append(NttPlan.get(ctx.n, m).inverse(acc))
    return ctx.base(level).compose_centered(rows).astype(object)


def _center(x, q):
    x = x % q
    return np.where(x > q // 2, x - q, x)


def _digit_ratios(ctx, level):
    """``Q_g / P`` for every digit group cut to the level."""
    k = level + 1
    alpha = len(ctx.special_moduli)
    p = math.prod(ctx.special_moduli)
    return [math.prod(ctx.moduli[s : min(s + alpha, k)]) / p for s in range(0, k, alpha)]


def keyswitch_noise_bound(ctx, level):
    """docs/KERNELS.md: ``G·n·6σ·max_g Q_g/(2P) + (1 + h)/2`` (6σ error tail)."""
    ratios = _digit_ratios(ctx, level)
    return len(ratios) * ctx.n * 6 * DEFAULT_SIGMA * max(ratios) / 2 + (1 + HW) / 2


def keyswitch_noise_rms(ctx, level):
    """docs/KERNELS.md: ``sqrt(n·σ²/12 · Σ_g (Q_g/P)² + (1 + h)/12)``."""
    spread = sum(r * r for r in _digit_ratios(ctx, level))
    return math.sqrt(ctx.n * DEFAULT_SIGMA**2 / 12 * spread + (1 + HW) / 12)


@pytest.mark.parametrize("alpha", [2, 3, 4] + TIGHT_SPECIALS, ids=str)
def test_grouped_switch_decrypts_to_the_bigint_product_at_every_level(alpha, rng):
    ctx = CkksRnsContext(_params(alpha))
    alpha = ctx.alpha
    kp = ctx.keygen(3, rotations=(1,))
    digits = -(-ctx.k_top // alpha)
    assert kp.relin.b.shape == (digits, ctx.k_top + alpha, N)
    assert kp.galois[ctx.galois_element(1)].a.shape == (digits, ctx.k_top + alpha, N)
    ct = ctx.encrypt(kp.pk, rng.uniform(-1, 1, ctx.slots), 5)
    g = ctx.galois_element(1)
    for level in range(ctx.top_level, -1, -1):
        q = ctx.base(level).modulus
        bound = keyswitch_noise_bound(ctx, level)
        low = ctx.mod_switch_to(ct, level)
        x = ctx.square_raw(low)
        want = _phase(ctx, kp.sk, [x.c0, x.c1, x.c2], level)
        out = ctx.relinearize(x, kp.relin)
        noise = _center(_phase(ctx, kp.sk, [out.c0, out.c1], level) - want, q)
        assert max(abs(int(e)) for e in noise) <= bound, (alpha, level)
        # ... and its spread is the predicted one, P-term included.
        rms = float(np.sqrt(np.mean(noise.astype(np.float64) ** 2)))
        assert 0.7 < rms / keyswitch_noise_rms(ctx, level) < 1.3, (alpha, level)
        # Galois switch: the rotated phase is the permuted phase plus the same noise.
        rot = ctx.rotate(low, 1, kp.galois)
        plain = _phase(ctx, kp.sk, [low.c0, low.c1], level)
        idx = (g * np.arange(N)) % (2 * N)
        permuted = np.empty_like(plain)
        permuted[idx % N] = np.where(idx >= N, -plain, plain)
        noise = _center(_phase(ctx, kp.sk, [rot.c0, rot.c1], level) - permuted, q)
        assert max(abs(int(e)) for e in noise) <= bound, (alpha, level)


@pytest.mark.parametrize("alpha", [2, 3, 4])
def test_grouped_merged_degree3_and_executors_agree(alpha, rng):
    """s²/s³ merged sweep: exact phase within the two-key bound; sharded == serial."""
    backend = CkksRnsBackend(_params(alpha), seed=3)
    ctx, kp = backend.ctx, backend.keys
    values = np.random.default_rng(4).uniform(-1, 1, (3, ctx.slots))
    cts = ctx.encrypt_many(kp.pk, list(values), 5)
    outs = []
    for defer_high in (False, True):
        x3s = [_degree3(ctx, ct, defer_high) for ct in cts]
        serial = relinearize_all(backend, "serial", x3s)
        for x3, one, packed in zip(x3s, serial, relinearize_all(backend, "sharded", x3s)):
            assert np.array_equal(one.c0, packed.c0) and np.array_equal(one.c1, packed.c1)
            outs.append((one.c0, one.c1))
            if x3.coeff_high:
                continue  # the phase helper wants eval-domain components
            want = _phase(ctx, kp.sk, x3.components(), x3.level)
            got = _phase(ctx, kp.sk, [one.c0, one.c1], x3.level)
            noise = _center(got - want, ctx.base(x3.level).modulus)
            # two switched polynomials share the ModDown rounding
            bound = 2 * keyswitch_noise_bound(ctx, x3.level)
            assert max(abs(int(e)) for e in noise) <= bound
    # coefficient-domain high components change nothing (ring isomorphism)
    half = len(outs) // 2
    for (a0, a1), (b0, b1) in zip(outs[:half], outs[half:]):
        assert np.array_equal(a0, b0) and np.array_equal(a1, b1)


def test_grouped_batch_is_bit_identical_per_position_and_chunk_invariant(rng, monkeypatch):
    ctx = CkksRnsContext(_params(3))
    kp = ctx.keygen(3)
    cts = ctx.encrypt_many(kp.pk, [rng.uniform(-1, 1, ctx.slots) for _ in range(5)], 9)
    batch = RnsCiphertext(
        np.stack([c.c0 for c in cts], axis=1), np.stack([c.c1 for c in cts], axis=1),
        ctx.top_level, cts[0].scale,
    )
    whole = ctx.relinearize(ctx.square_raw(batch), kp.relin)
    for j, c in enumerate(cts):
        one = ctx.relinearize(ctx.square_raw(c), kp.relin)
        assert np.array_equal(whole.c0[:, j], one.c0) and np.array_equal(whole.c1[:, j], one.c1)
    digits = kp.relin.b.shape[0]
    monkeypatch.setattr(
        keyswitch, "KEYSWITCH_CHUNK_ELEMS", 2 * (ctx.k_top + 3) * digits * ctx.n
    )  # two positions
    chunked = ctx.relinearize(ctx.square_raw(batch), kp.relin)
    assert np.array_equal(whole.c0, chunked.c0) and np.array_equal(whole.c1, chunked.c1)


# -- smoke networks: α = 3 logits against α = 1 --------------------------------


@pytest.fixture(scope="module")
def smoke_models():
    xtr, ytr, xte, _ = load_synth_mnist(n_train=256, n_test=8, seed=7, image_size=12)
    x = to_nchw(normalize_unit(xtr))
    models = {
        "cnn1": slafify(build_cnn1(variant="tiny", seed=0), x, ytr, epochs=1, seed=0),
        "cnn2": slafify(build_cnn2(variant="tiny", seed=0), x, ytr, epochs=1, seed=0),
    }
    return {k: compile_model(m) for k, m in models.items()}, to_nchw(normalize_unit(xte))


@pytest.mark.parametrize("arch", ["cnn1", "cnn2"])
def test_smoke_logits_within_lazy_eager_atol_of_alpha1(smoke_models, arch):
    layers, images = smoke_models
    layers = layers[arch]
    depth = model_depth(layers)
    logits = {}
    for alpha, special in ((1, 49), (3, (36, 36, 36))):
        backend = CkksRnsBackend(
            CkksRnsParams(
                n=N, moduli_bits=(40,) + (26,) * depth, scale_bits=26,
                special_bits=special, hw=HW,
            ),
            seed=0,
        )
        logits[alpha] = HeInferenceEngine(backend, layers, (1, 12, 12)).classify(images[:4])
    assert np.allclose(logits[3], logits[1], atol=LAZY_EAGER_ATOL)
