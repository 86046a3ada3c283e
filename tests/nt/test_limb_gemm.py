"""Exact limb GEMMs: the linear-map kernel against big-int arithmetic.

:func:`repro.nt.kernels.limb_gemm` evaluates ``(W @ x) mod m`` with
float64 BLAS over signed weight limbs and residue limbs sized by
:func:`repro.nt.kernels.compile_limb_matrix` so that every partial sum
is an integer below ``2**53``.  Contract:

* the result equals the Python big-int ``sum_t W[r, t] * x[t] mod m``
  exactly, for 1..4096 taps, signed weights up to ``2**31``, moduli of
  20..60 bits, 1..4 components side by side, all-zero rows and the
  fully-pruned "one zero-weight tap" rows of the tap programs;
* it also equals the per-tap modular kernel it replaced
  (``fused_weighted_sum``, frozen below) wherever that one applied;
* the chosen split honours the bound it was sized for;
* a matrix that cannot be made exact is refused with
  :class:`~repro.nt.kernels.MapBoundError` when it is compiled — by the
  plan compiler too — and weights right below the limit still come out
  exact (nothing is rounded).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksRnsBackend, EncodedMap, MockBackend
from repro.henn.layers import HeLinear
from repro.henn.plan import compile_plan
from repro.nt.kernels import EXACT_BITS, MapBoundError, compile_limb_matrix, limb_gemm
from repro.nt.modarith import NARROW_MODULUS_BITS, mulmod

# -- the per-tap kernel of the parent commit, frozen ---------------------------------


def _check_tap_budget(taps: int, m: int) -> None:
    if taps * m > 2**62:  # pragma: no cover - parameter guard
        raise ValueError("too many taps for exact int64 accumulation")


def weighted_accumulate(stack: np.ndarray, w_mod: np.ndarray, m: int) -> np.ndarray:
    """``(sum_t stack[t] * w_mod[t]) mod m`` along the leading tap axis."""
    _check_tap_budget(stack.shape[0], m)
    w = np.asarray(w_mod, dtype=np.int64).reshape((-1,) + (1,) * (stack.ndim - 1))
    return mulmod(stack, w, m).sum(axis=0) % m


def fused_weighted_sum(stack: np.ndarray, w_res: np.ndarray, moduli: list[int]) -> np.ndarray:
    """All residue channels of one weighted sum: ``(taps, k, ..., n)`` -> ``(k, ..., n)``."""
    taps, k = stack.shape[:2]
    out = np.empty(stack.shape[1:], dtype=np.int64)
    mods = np.asarray(moduli, dtype=np.int64)
    narrow = mods < (1 << NARROW_MODULUS_BITS)
    tail = (1,) * (stack.ndim - 2)
    if narrow.any():
        for m in mods[narrow]:
            _check_tap_budget(taps, int(m))
        sub = stack[:, narrow]
        w = w_res[:, narrow].reshape(w_res[:, narrow].shape + tail)
        mb = mods[narrow].reshape((1, -1) + tail)
        prod = np.multiply(sub, w, dtype=np.int64) % mb
        out[narrow] = prod.sum(axis=0) % mb[0]
    for i in np.nonzero(~narrow)[0]:
        out[i] = weighted_accumulate(stack[:, i], w_res[:, i], int(mods[i]))
    return out


# -- references ----------------------------------------------------------------------


def _bigint(weights: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    return (weights.astype(object) @ x.astype(object)) % m


def _parent_rows(weights: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """The frozen kernel, one call per row over that row's nonzero taps."""
    out = []
    for row in weights:
        keep = [t for t, c in enumerate(row) if c != 0] or [0]  # the parent's zero-skip
        w_res = np.array([[int(row[t]) % m] for t in keep], dtype=np.int64)
        out.append(fused_weighted_sum(x[keep][:, None], w_res, [m])[0])
    return np.array(out)


@st.composite
def maps(draw):
    taps = draw(st.integers(1, 4096))
    rows = draw(st.integers(1, 4))
    comps = draw(st.integers(1, 4))
    bits = draw(st.integers(20, 60))
    wbits = draw(st.integers(1, 31))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2 ** (bits - 1) + 1, 2**bits)) | 1
    weights = rng.integers(-(2**wbits), 2**wbits + 1, size=(rows, taps))
    weights[rng.random((rows, taps)) < draw(st.sampled_from([0.0, 0.5, 0.95]))] = 0
    kind = draw(st.sampled_from(["dense", "zero row", "zero-term row"]))
    if kind == "zero row":
        weights[0] = 0
    elif kind == "zero-term row":  # a fully pruned window keeps one zero-weight tap
        weights[-1] = 0
    # residues of `comps` components side by side, n = 3 coefficients each
    x = rng.integers(0, m, size=(taps, comps * 3))
    x[:, 0] = m - 1  # the widest residue every time
    return weights, x, m


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(maps())
def test_limb_gemm_is_exact(case):
    weights, x, m = case
    compiled = compile_limb_matrix(weights)
    got = limb_gemm(x, compiled, m)
    assert got.dtype == np.int64 and got.shape == (weights.shape[0], x.shape[1])
    assert np.array_equal(got.astype(object), _bigint(weights, x, m))
    # the split honours the bound it was sized for
    width, rb = compiled.width, compiled.residue_bits
    assert np.array_equal(
        sum(limb.astype(object) * 2 ** (a * width) for a, limb in enumerate(compiled.limbs)),
        weights.astype(object),
    )
    for limb in compiled.limbs:
        assert int(np.abs(limb).sum(axis=1).max()) * (2**rb - 1) < 2**EXACT_BITS
    if m < 2**50 and x.shape[0] * m <= 2**62:  # where the per-tap kernel applied
        assert np.array_equal(got, _parent_rows(weights, x, m))


def test_one_bit_short_of_the_limit_is_still_exact():
    """62-bit weights against 50-bit residues: many limbs, no rounding."""
    rng = np.random.default_rng(0)
    m = (1 << 50) - 27
    weights = rng.integers(-(2**62) + 1, 2**62, size=(3, 40))
    x = rng.integers(0, m, size=(40, 5))
    compiled = compile_limb_matrix(weights)
    assert len(compiled.limbs) > 1
    assert np.array_equal(limb_gemm(x, compiled, m).astype(object), _bigint(weights, x, m))


def test_unmeetable_bound_is_refused_at_compile_time():
    assert issubclass(MapBoundError, ValueError)
    with pytest.raises(MapBoundError, match="bits"):
        compile_limb_matrix(np.array([[1, 2**63]], dtype=object))
    # a dense layer whose quantised weights outgrow the bound: the plan
    # compiler refuses the graph, on every backend, before any request
    huge = HeLinear(np.full((2, 3), 2.0**40), None)
    rns = CkksRnsBackend(
        CkksRnsParams(n=64, moduli_bits=(36, 26), scale_bits=26, special_bits=45, hw=8),
        seed=0,
    )
    for backend in (MockBackend(batch=4, levels=2), rns):
        with pytest.raises(MapBoundError):
            compile_plan(backend, [huge], (3,))
    with pytest.raises(MapBoundError):  # the reference forward's one-row map
        EncodedMap([(None, rns.encode_taps(np.array([2.0**40])))], 1)
