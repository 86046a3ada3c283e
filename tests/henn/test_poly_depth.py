"""Depth-optimal BSGS schedule: level accounting on every backend.

Each Horner fold rescales the block sum *before* the product with the
giant power, so a degree-*d* SLAF consumes exactly ``PolyProgram.depth``
levels (2 for the paper's cubic) and the modulus chain is sized to that
number with no spare prime.  Contract:

* for degrees 1–8 × {eager oracle, lazy} × {mock, CKKS, CKKS-RNS single
  handle, CKKS-RNS ``poly_eval_many`` batch} a chain of exactly ``depth + 1``
  primes suffices, the output lands on level 0 at Δ up to the chain
  primes' own deviation from Δ, both interpreters agree on level and
  scale exactly, and values track ``np.polyval``;
* a chain of ``depth`` primes is refused when the engine is built
  (:class:`LevelBudgetError`), not on every request;
* degrees 1–2 never reach the fold and stay bit-identical to the parent
  commit (digests recorded there);
* CNN1/CNN2 logits on the shortened chains stay within
  ``LAZY_EAGER_ATOL`` of the parent schedule's (a frozen copy of the old
  fold lives in this file and runs on the old, longer chain).
"""

import hashlib
import math
from contextlib import nullcontext
from functools import lru_cache

import numpy as np
import pytest

import repro.henn.backend as backend_mod
from repro.ckks import CkksParams
from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksBackend, CkksRnsBackend, MockBackend
from repro.henn.compiler import model_depth
from repro.henn.inference import HeInferenceEngine
from repro.henn.layers import HePoly, LevelBudgetError
from repro.henn.plan import compile_plan
from repro.henn.protocol import CloudService, _sanitize
from repro.nt.kernels import MAX_POLY_DEGREE, compile_poly_program

from ..ckksrns.test_hybrid_keyswitch import HW, N, smoke_models  # noqa: F401 - fixture
from .eager_oracle import interpreting_eagerly
from .test_lazy_relin import LAZY_EAGER_ATOL
from .test_poly_bsgs import REAL_ATOL

DEGREES = range(1, MAX_POLY_DEGREE + 1)
MODES = ("eager", "lazy")
KINDS = ("mock", "ckks", "rns", "rns-batch")
#: Documented depth table (docs/KERNELS.md); the parent's was ct_mults + 1.
DEPTHS = {1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4, 7: 4, 8: 4}
X = np.linspace(-0.9, 0.9, 8)
POSITIONS = 3  # handles in the poly_eval_many batch


def _fresh(kind: str, top: int):
    """Backend whose chain has exactly ``top + 1`` primes (top level *top*)."""
    if kind == "mock":
        return MockBackend(batch=8, levels=top)
    if kind == "ckks":
        return CkksBackend(
            CkksParams(n=128, scale_bits=26, q0_bits=40, levels=top, hw=16), seed=0
        )
    return CkksRnsBackend(
        CkksRnsParams(
            n=128, moduli_bits=(36,) + (26,) * top, scale_bits=26, special_bits=45, hw=16
        ),
        seed=0,
    )


_cached = lru_cache(maxsize=None)(_fresh)


def _rows(degree: int) -> np.ndarray:
    """One coefficient row per batch position, true degree *degree*."""
    rng = np.random.default_rng(100 + degree)
    rows = rng.uniform(-0.5, 0.5, (POSITIONS, degree + 1))
    rows[:, degree] = rng.choice([-1, 1], POSITIONS) * rng.uniform(0.1, 0.4, POSITIONS)
    return rows


def _evaluate(backend, kind: str, mode: str, degree: int):
    """``(inputs, outputs, plaintext references)`` of one evaluation.

    ``mode`` ``"eager"`` runs the backend's ``poly_eval`` /
    ``poly_eval_many`` with the oracle interpreter swapped in, so their
    ``poly.bsgs.*`` accounting stays.  The outputs are relinearised —
    the sweep a lazy evaluation leaves to its consumer, run here the way
    the linear map behind it would.
    """
    rows = _rows(degree)
    with interpreting_eagerly() if mode == "eager" else nullcontext():
        if kind == "rns-batch":
            xs = [X * s for s in (1.0, 0.5, -0.8)]
            ins = [backend.encrypt(x) for x in xs]
            outs = backend.poly_eval_many(ins, rows)
        else:
            xs, rows = [X], rows[:1]
            ins = [backend.encrypt(X)]
            outs = [backend.poly_eval(ins[0], rows[0])]
    outs = backend.relinearize_many(outs)
    return ins, outs, [np.polyval(r[::-1], x) for r, x in zip(rows, xs)]


def _scale_drift_bound(backend, degree: int) -> float:
    """Bound on ``|scale / Δ - 1|`` of a degree-*d* result.

    The top monomial carries ``d + 1`` factors of Δ and is divided by
    *d* rescale primes, so the output scale is Δ times *d* ratios
    ``Δ / q_i``: within 0.1 % of Δ for the cubic on every chain here,
    exactly Δ where rescaling divides by Δ itself (mock, CKKS).
    """
    moduli = getattr(backend.ctx, "moduli", [])[1:] if backend.name == "ckks-rns" else []
    worst = max((abs(backend.scale / q - 1.0) for q in moduli), default=0.0)
    return (1.0 + worst) ** degree - 1.0 + 1e-12


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("degree", DEGREES)
def test_exact_chain_suffices_and_ends_on_level_zero(kind, degree):
    depth = compile_poly_program(degree).depth
    backend = _cached(kind.split("-")[0], depth)
    atol = 1e-5 if kind == "mock" else REAL_ATOL.get(degree, 5e-3)
    landed = {}
    for mode in MODES:
        ins, outs, wants = _evaluate(backend, kind, mode, degree)
        for h, out, want in zip(ins, outs, wants):
            assert h.level - out.level == depth, mode
            assert out.level == 0, mode  # no unused prime
            drift = abs(out.scale / backend.scale - 1.0)
            assert drift <= _scale_drift_bound(backend, degree), mode
            assert degree > 3 or drift < 1e-3, mode
            got = np.real(backend.decrypt(out, count=8))
            assert np.allclose(got, want, atol=atol), mode
        landed[mode] = [(o.level, o.scale) for o in outs]
    assert landed["eager"] == landed["lazy"]


@pytest.mark.parametrize("kind", ["mock", "ckks", "rns"])
@pytest.mark.parametrize("degree", DEGREES)
def test_one_prime_short_is_refused_at_construction(kind, degree):
    layers = [HePoly(_rows(degree)[0])]
    depth = model_depth(layers)
    assert depth == compile_poly_program(degree).depth
    HeInferenceEngine(_cached(kind, depth), layers, (1, 1, 1))  # exact: accepted
    if kind == "ckks" and depth == 1:
        return  # the multiprecision scheme has no zero-level parameter set
    short = _cached(kind, depth - 1)
    for build in (
        lambda: HeInferenceEngine(short, layers, (1, 1, 1)),
        lambda: compile_plan(short, layers, (1, 1, 1)),
    ):
        with pytest.raises(LevelBudgetError) as err:
            build()
        assert (err.value.needed, err.value.available) == (depth, depth - 1)


def test_short_chain_fails_the_service_not_every_request():
    """Reproduces on the parent: the service built fine on a 4-prime chain
    for a depth-5 graph and answered every request with a retryable
    ``ValueError`` ("cannot rescale below level 0")."""
    layers = [HePoly(_rows(3)[0]), HePoly(_rows(3)[1]), HePoly(_rows(1)[0, :2])]
    assert model_depth(layers) == 5
    backend = CkksRnsBackend(
        CkksRnsParams(n=128, moduli_bits=(36,) + (26,) * 3, scale_bits=26, special_bits=45, hw=16),
        seed=0,
    )
    with pytest.raises(LevelBudgetError) as err:
        CloudService(backend, layers, (1, 1, 1))
    error = _sanitize(err.value)
    assert (error.code, error.category, error.retryable) == ("LevelBudgetError", "state", False)
    assert "5" not in error.detail  # canned sentence, no exception arguments


def test_depth_table_and_lower_bound():
    for degree in DEGREES:
        prog = compile_poly_program(degree)
        assert prog.depth == DEPTHS[degree], degree
        assert prog.depth >= math.ceil(math.log2(degree + 1)), degree
    assert compile_poly_program(3).depth == math.ceil(math.log2(3 + 1))
    assert repr(HePoly(np.ones(4))) == "HePoly(degree=3, per_channel=False)"


# -- degrees 1-2: bit-identical to the parent commit --------------------------------


def _component_bytes(a: np.ndarray) -> bytes:
    if a.dtype == object:  # multiprecision coefficients
        return repr([int(v) for v in a]).encode()
    return np.ascontiguousarray(a).tobytes()


def digest(backend, outs) -> str:
    h = hashlib.sha256()
    for out in outs:
        for comp in ("values", "c0", "c1"):
            if hasattr(out, comp):
                h.update(_component_bytes(getattr(out, comp)))
        h.update(repr((out.level, float(out.scale))).encode())
    return h.hexdigest()[:16]


def low_degree_digests() -> dict[tuple[str, str, int], str]:
    """Output digests of degrees 1–2 on fresh exact-chain backends."""
    table = {}
    for kind in KINDS:
        for mode in MODES:
            for degree in (1, 2):
                backend = _fresh(kind.split("-")[0], DEPTHS[degree])
                _, outs, _ = _evaluate(backend, kind, mode, degree)
                table[kind, mode, degree] = digest(backend, outs)
    return table


#: ``low_degree_digests()`` under ``PYTHONPATH=<clone of 6e9b7a0>/src``.
PARENT_DIGESTS = {
    ('ckks', 'eager', 1): '0f1992f24d5d8e05',
    ('ckks', 'eager', 2): '932504303e1bb11e',
    ('ckks', 'lazy', 1): '0f1992f24d5d8e05',
    ('ckks', 'lazy', 2): '02a57eda1c319d04',
    ('mock', 'eager', 1): 'a56bb0f2a54c5819',
    ('mock', 'eager', 2): '728c0f2544f72aca',
    ('mock', 'lazy', 1): 'a56bb0f2a54c5819',
    ('mock', 'lazy', 2): '728c0f2544f72aca',
    ('rns', 'eager', 1): 'db94fdaa4c827f48',
    ('rns', 'eager', 2): '323788ae48209dd2',
    ('rns', 'lazy', 1): 'db94fdaa4c827f48',
    ('rns', 'lazy', 2): 'c8df5087f79a2b8e',
    ('rns-batch', 'eager', 1): '2ba3cbf639da7f6c',
    ('rns-batch', 'eager', 2): 'dd962ffe13122a54',
    ('rns-batch', 'lazy', 1): '2ba3cbf639da7f6c',
    ('rns-batch', 'lazy', 2): 'dac3f152e25b1f47',
}


def test_degrees_one_and_two_bit_identical_to_parent():
    assert low_degree_digests() == PARENT_DIGESTS


# -- CNN1 / CNN2 against the parent schedule -----------------------------------------


def _parent_fold_lazy(b, prog, x, coeffs):
    """Frozen copy of PR 13's lazy interpreter: ``rescale(acc * y)`` after
    each fold (Δ²·Δ → two rescales), one level more per fold.  Schedule as
    recorded; only the op names follow the one-family backend interface."""
    powers = {1: x}
    y_raw = None
    for j in range(2, prog.baby_top + 1):
        prev = powers[j - 1]
        raw = b.square_raw(prev) if j == 2 else b.mul_raw(prev, x)
        if j == prog.baby_m and prog.giants > 1:
            y_raw = b.rescale(raw)
        else:
            powers[j] = b.relinearize_ext(b.rescale(raw, defer_high=True))
    m = prog.baby_m
    acc = acc_ext = pending = None
    for g in range(prog.giants - 1, -1, -1):
        base = g * m
        bd = prog.block_degrees[g]
        if acc is None and acc_ext is None and pending is None:
            if bd == 0:
                pending = coeffs[:, base]
                continue
            target = powers[bd].scale * b.scale
        elif pending is not None:
            acc_ext = b._mul_consts(y_raw, pending, b.scale)
            pending = None
            target = acc_ext.scale
        else:
            if acc_ext is not None:
                acc = b.relinearize_ext(acc_ext)
                acc_ext = None
            acc_ext = b.rescale(b.mul_raw(acc, y_raw), defer_high=True)
            acc = None
            target = acc_ext.scale
        for j in range(bd, 0, -1):
            ps = target / powers[j].scale
            term = b._mul_consts(powers[j], coeffs[:, base + j], ps)
            if acc_ext is not None:
                acc_ext = b.add(acc_ext, term)
            else:
                acc = term if acc is None else b.add(acc, term)
        if acc_ext is not None:
            acc_ext = b._add_consts(acc_ext, coeffs[:, base])
        else:
            acc = b._add_consts(acc, coeffs[:, base])
    if acc_ext is not None:
        return b.relinearize_ext(b.rescale(acc_ext, defer_high=True))
    return b.rescale(acc)


def _smoke_engine(layers, depth: int) -> HeInferenceEngine:
    backend = CkksRnsBackend(
        CkksRnsParams(
            n=N, moduli_bits=(40,) + (26,) * depth, scale_bits=26,
            special_bits=(36, 36, 36), hw=HW,
        ),
        seed=0,
    )
    return HeInferenceEngine(backend, layers, (1, 12, 12))


@pytest.mark.parametrize("arch, consumed, paper", [("cnn1", 7, 9), ("cnn2", 10, 13)])
def test_smoke_logits_within_atol_of_parent_schedule(
    smoke_models, monkeypatch, arch, consumed, paper  # noqa: F811
):
    layers, images = smoke_models
    layers = layers[arch]
    assert model_depth(layers) == consumed
    engine = _smoke_engine(layers, consumed)
    enc = engine.encrypt_images(images[:4])
    scores = engine.run_encrypted(enc)
    assert {h.level for h in scores} == {0}
    logits = np.stack([engine.backend.decrypt(h, count=4) for h in scores], axis=1)

    monkeypatch.setattr(backend_mod, "_run_poly_program", _parent_fold_lazy)
    parent = _smoke_engine(layers, paper).classify(images[:4])
    assert np.allclose(logits, parent, atol=LAZY_EAGER_ATOL)
