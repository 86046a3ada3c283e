"""Ablation — DESIGN.md §5.1: multiprecision vs RNS polynomial
multiplication across ring degrees.

This isolates the arithmetic-level source of the Tables III/V speed-up:
one negacyclic product in R_q with ~200-bit q.  The multiprecision ring
keeps big-int coefficients and pays a temporary CRT per product
(decompose over enough NTT primes for the exact integer product, then
recompose); the RNS representation keeps its 8 channels resident and
runs the same transforms on them alone.
"""

import numpy as np
import pytest
from conftest import save_record

from repro.nt.crt import CrtBasis
from repro.nt.ntt import BatchedNttPlan
from repro.nt.polynomial import PolyRing
from repro.nt.primes import gen_ntt_primes
from repro.utils.timing import Timer


def _rns_mul(basis, plan, sa, sb):
    fa, fb = plan.forward(sa), plan.forward(sb)
    return plan.inverse(np.stack(basis.mul(list(fa), list(fb))))


def _best_ms(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        with Timer() as t:
            fn()
        best = min(best, t.elapsed)
    return best * 1e3


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_ablation_poly_mul(benchmark, n):
    rng = np.random.default_rng(0)
    basis = CrtBasis(gen_ntt_primes([26] * 8, n))
    ring = PolyRing(n, basis.modulus)
    a = ring.random_uniform(rng)
    b = ring.random_uniform(rng)
    plan = BatchedNttPlan.get(n, tuple(basis.moduli))
    sa = np.stack(basis.decompose(a))
    sb = np.stack(basis.decompose(b))

    benchmark(lambda: _rns_mul(basis, plan, sa, sb))
    t_mp = _best_ms(lambda: ring.mul(a, b))
    t_rns = _best_ms(lambda: _rns_mul(basis, plan, sa, sb))
    save_record(
        f"ablation_arith_n{n}",
        ["representation", "one product (ms)"],
        [
            ["multiprecision big-int (temporary CRT product)", t_mp],
            ["RNS channels (8 x 26-bit, NTT)", t_rns],
            ["speed-up", t_mp / max(t_rns, 1e-9)],
        ],
        f"Polynomial product in R_q, n={n}, log q ~ 208",
    )
