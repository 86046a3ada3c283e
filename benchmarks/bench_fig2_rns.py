"""Fig. 2 — RNS decomposition micro-benchmarks.

Measures the decompose / componentwise-op / recompose pipeline on an
image-sized integer tensor, demonstrating that channel arithmetic is
word-sized and the CRT bracket is where the (small) overhead lives.
"""

import numpy as np
from conftest import save_record

from repro.nt.crt import CrtBasis
from repro.nt.primes import gen_ntt_primes
from repro.utils.timing import Timer


def test_fig2_decompose_roundtrip(benchmark, rng=np.random.default_rng(0)):
    base = CrtBasis(gen_ntt_primes([26, 26, 26], 64))
    # |x|^2 < 2^74 stays inside the basis's signed range of ~2^77.
    x = rng.integers(-(2**37), 2**37, (64, 28, 28))

    def roundtrip():
        res = base.decompose(x)
        return base.compose_centered(base.mul(res, res))

    out = benchmark(roundtrip)
    assert (out == x.astype(object) ** 2).all()

    res = base.decompose(x)
    prod = base.mul(res, res)
    rows = []
    for stage, fn in [
        ("decompose", lambda: base.decompose(x)),
        ("channel mul", lambda: base.mul(res, res)),
        ("recompose", lambda: base.compose_centered(prod)),
    ]:
        with Timer() as t:
            fn()
        rows.append([stage, t.elapsed * 1000])
    save_record(
        "fig2", ["stage", "ms"], rows, "FIG 2 — RNS decomposition stages (batch=64)"
    )
