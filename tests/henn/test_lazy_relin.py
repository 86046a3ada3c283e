"""Lazy relinearisation: precision bounds and sweep counts.

The library's BSGS interpreter keeps products in degree-2/3 extended
space and relinearises each block sum once (``docs/KERNELS.md``).  It is
held to the frozen eager interpreter of ``eager_oracle.py``, which
relinearises every product at once.  Contract:

* **mock** — lazy is *bit-identical* to eager: the mock's extended
  handles carry exact float values, so deferring the (no-op) keyswitch
  changes nothing;
* **CKKS / CKKS-RNS** — lazy is *not* bit-identical (keyswitch noise is
  injected after rescales instead of before, changing the last few
  bits) but both decrypt within the documented per-degree SLAF bound,
  and their mutual difference stays inside ``LAZY_EAGER_ATOL``;
* **counts** — a degree-*d* SLAF performs exactly ``program.relins``
  keyswitch sweeps lazily (``~ceil(d / giant_step)``) versus
  ``program.ct_mults`` eagerly (``~2*sqrt(d)``), metered through
  ``relin.count`` / ``relin.deferred``;
* **fuzz** — random coefficient rows and inputs, single handles and
  position batches, against the oracle (``-m fuzz`` runs many).
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ckks import CkksParams
from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksBackend, CkksRnsBackend, MockBackend
from repro.nt.kernels import MAX_POLY_DEGREE, compile_poly_program
from repro.obs.metrics import get_registry

from .eager_oracle import interpreting_eagerly
from .test_poly_bsgs import REAL_ATOL

#: Documented bound on |lazy - eager| decrypt drift at Δ = 2**26: both
#: orders evaluate the same exact-integer block schedule, differing only
#: in where keyswitch noise (a few bits at Δ) enters, so their gap is an
#: order below the absolute SLAF bound of ``REAL_ATOL``.
LAZY_EAGER_ATOL = 2e-3


def _rns():
    return CkksRnsBackend(
        CkksRnsParams(
            n=128, moduli_bits=(36,) + (26,) * 6, scale_bits=26, special_bits=45, hw=16
        ),
        seed=0,
    )


def _ckks():
    return CkksBackend(
        CkksParams(n=128, scale_bits=26, q0_bits=40, levels=6, hw=16), seed=0
    )


@pytest.fixture(scope="module")
def rns():
    return _rns()


@pytest.fixture(scope="module")
def ckks():
    return _ckks()


def _coeffs(rng, degree):
    c = rng.uniform(-0.5, 0.5, degree + 1)
    c[degree] = rng.choice([-1, 1]) * rng.uniform(0.1, 0.4)
    return c


def _eval_mode(backend, ct, coeffs, mode):
    """``poly_eval`` by the library (``"lazy"``) or the oracle (``"eager"``),
    relinearised (lazy leaves that sweep to the consumer)."""
    with interpreting_eagerly() if mode == "eager" else nullcontext():
        return backend.relinearize_ext(backend.poly_eval(ct, coeffs))


@pytest.mark.parametrize("degree", range(2, MAX_POLY_DEGREE + 1))
def test_lazy_bitidentical_to_eager_on_mock(degree, rng):
    backend = MockBackend(batch=8, levels=12, quantize=False)
    coeffs = _coeffs(rng, degree)
    x = rng.uniform(-1, 1, 8)
    lazy = _eval_mode(backend, backend.encrypt(x), coeffs, "lazy")
    eager = _eval_mode(backend, backend.encrypt(x), coeffs, "eager")
    assert np.array_equal(backend.decrypt(lazy), backend.decrypt(eager))
    assert lazy.level == eager.level and lazy.scale == eager.scale


@pytest.mark.parametrize("degree", range(2, MAX_POLY_DEGREE + 1))
def test_lazy_within_bound_of_eager_on_real_schemes(rns, ckks, degree, rng):
    coeffs = _coeffs(rng, degree)
    x = rng.uniform(-1, 1, 8)
    want = np.polyval(coeffs[::-1], x)
    for backend in (rns, ckks):
        ct = backend.encrypt(x)
        lazy = backend.decrypt(_eval_mode(backend, ct, coeffs, "lazy"), count=8)
        eager = backend.decrypt(_eval_mode(backend, ct, coeffs, "eager"), count=8)
        # Same schedule, same final scale; only keyswitch-noise placement
        # differs.  Each mode tracks the plaintext polynomial...
        assert np.allclose(lazy, want, atol=REAL_ATOL[degree]), backend.name
        assert np.allclose(eager, want, atol=REAL_ATOL[degree]), backend.name
        # ...and they track each other an order tighter.
        assert np.allclose(lazy, eager, atol=LAZY_EAGER_ATOL), backend.name


@pytest.mark.parametrize("degree", range(1, MAX_POLY_DEGREE + 1))
def test_relin_count_matches_program(rns, degree, rng):
    """Lazy sweeps == program.relins (~ceil(d/gs)); eager == ct_mults."""
    prog = compile_poly_program(max(degree, 1))
    reg = get_registry()
    coeffs = _coeffs(rng, degree) if degree > 1 else np.array([0.1, 0.4])
    for mode, expected in (("lazy", prog.relins), ("eager", prog.ct_mults)):
        before = reg.counter("relin.count").value
        deferred_before = reg.counter("relin.deferred").value
        _eval_mode(rns, rns.encrypt(rng.uniform(-1, 1, 8)), coeffs, mode)
        relins = reg.counter("relin.count").value - before
        deferred = reg.counter("relin.deferred").value - deferred_before
        assert relins == expected, (mode, degree)
        # Every lazy sweep runs post-rescale (deferred); eager sweeps never do.
        assert deferred == (relins if mode == "lazy" else 0), (mode, degree)


def test_relin_count_table_documented():
    """The per-degree sweep table in docs/KERNELS.md stays truthful."""
    table = {1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3, 8: 3}
    for degree, relins in table.items():
        prog = compile_poly_program(degree)
        assert prog.relins == relins, degree
        assert prog.relins <= prog.ct_mults


def test_defer_high_relin_bitidentical(rns, rng):
    """Coefficient-domain high components change nothing downstream.

    ``rescale_ext(defer_high=True)`` holds c2/c3 in coefficient form;
    relinearisation must produce the exact same ciphertext as the
    eval-domain route (the NTT is a ring isomorphism, so rescale and
    inverse transform commute)."""
    ctx, keys = rns.ctx, rns.keys
    ct = rns.encrypt(rng.uniform(-1, 1, 8))
    raw = ctx.square_raw(ct)

    evald = ctx.relinearize(ctx.rescale_ext(raw), keys.relin)
    coeffd = ctx.relinearize(ctx.rescale_ext(raw, defer_high=True), keys.relin)
    assert np.array_equal(evald.c0, coeffd.c0)
    assert np.array_equal(evald.c1, coeffd.c1)
    assert evald.level == coeffd.level and evald.scale == coeffd.scale

    # Degree 3 (a Horner fold) through the merged sweep, both domains.
    y = ctx.rescale_ext(raw)
    acc = ctx.rescale(ctx.mul_plain_scalar(ct, 0.5))
    raw3 = ctx.mul_raw(acc, y)
    evald3 = ctx.relinearize(ctx.rescale_ext(raw3), keys.relin, keys.relin3)
    coeffd3 = ctx.relinearize(
        ctx.rescale_ext(raw3, defer_high=True), keys.relin, keys.relin3
    )
    assert np.array_equal(evald3.c0, coeffd3.c0)
    assert np.array_equal(evald3.c1, coeffd3.c1)


def test_defer_high_survives_multiple_rescales(rns, rng):
    """A coeff-high ext rescaled twice equals the all-eval route exactly."""
    ctx, keys = rns.ctx, rns.keys
    ct = rns.encrypt(rng.uniform(-1, 1, 8))
    raw = ctx.square_raw(ct)
    a = ctx.rescale_ext(ctx.mul_plain_scalar(ctx.rescale_ext(raw), 0.5))
    b = ctx.rescale_ext(
        ctx.mul_plain_scalar(ctx.rescale_ext(raw, defer_high=True), 0.5)
    )
    assert b.coeff_high and not a.coeff_high
    ra, rb = ctx.relinearize(a, keys.relin), ctx.relinearize(b, keys.relin)
    assert np.array_equal(ra.c0, rb.c0) and np.array_equal(ra.c1, rb.c1)


def test_mixed_domain_add_ext_rejected(rns, rng):
    ctx = rns.ctx
    ct = rns.encrypt(rng.uniform(-1, 1, 8))
    evald = ctx.rescale_ext(ctx.square_raw(ct))
    coeffd = ctx.rescale_ext(ctx.square_raw(ct), defer_high=True)
    with pytest.raises(ValueError, match="mismatched high-component domains"):
        ctx.add(evald, coeffd)


def test_coeff_high_ext_cannot_multiply(rns, rng):
    ctx = rns.ctx
    ct = rns.encrypt(rng.uniform(-1, 1, 8))
    acc = ctx.rescale(ctx.mul_plain_scalar(ct, 0.5))
    coeffd = ctx.rescale_ext(ctx.square_raw(ct), defer_high=True)
    with pytest.raises(ValueError, match="NTT domain"):
        ctx.mul_raw(acc, coeffd)


# -- differential fuzz against the eager oracle ---------------------------------------


@st.composite
def poly_cases(draw):
    """``(rows, xs)``: 1–3 positions, one degree-1..8 coefficient row and
    one 8-slot input per position."""
    degree = draw(st.integers(1, MAX_POLY_DEGREE))
    positions = draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.lists(st.floats(-0.5, 0.5), min_size=degree + 1, max_size=degree + 1),
        min_size=positions, max_size=positions,
    ))
    xs = draw(st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        min_size=positions, max_size=positions,
    ))
    return np.array(rows), np.array(xs)


def _both(backend, fn):
    """``fn()`` under the library's interpreter and under the oracle, relinearised."""
    lazy = backend.relinearize_many(fn())
    with interpreting_eagerly():
        eager = backend.relinearize_many(fn())
    landed = [[(h.level, h.scale) for h in hs] for hs in (lazy, eager)]
    assert landed[0] == landed[1]
    return lazy, eager


@pytest.mark.fuzz
def test_interpreter_matches_the_eager_oracle(rns, fuzz_examples):
    """Mock: bit-identical.  CKKS-RNS, one handle and a 1–3 position
    ``poly_eval_many`` batch: within ``LAZY_EAGER_ATOL``.  Both: the
    same final level and scale."""
    mock = MockBackend(batch=8, levels=6)

    @settings(
        max_examples=fuzz_examples(6, 150), deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(poly_cases())
    @example((np.full((3, 9), 0.5), np.ones((3, 8))))
    @example((np.array([[0.0, -0.5]]), -np.ones((1, 8))))
    def check(case):
        rows, xs = case
        x = mock.encrypt(xs[0])
        lazy, eager = _both(mock, lambda: [mock.poly_eval(x, rows[0])])
        assert np.array_equal(lazy[0].values, eager[0].values)

        x = rns.encrypt(xs[0])
        lazy, eager = _both(rns, lambda: [rns.poly_eval(x, rows[0])])
        handles = rns.encrypt_many(list(xs))
        batch = _both(rns, lambda: rns.poly_eval_many(handles, rows))
        for got, want in zip(lazy + batch[0], eager + batch[1]):
            assert np.allclose(
                rns.decrypt(got, count=8), rns.decrypt(want, count=8), atol=LAZY_EAGER_ATOL
            )

    check()
