"""Fig. 2 / Fig. 5 walk-through: RNS decomposition of a convolution.

Shows the paper's mechanism on real numbers: an image is quantised to
wide fixed-point integers, decomposed into co-prime residue channels,
convolved independently per channel, and recomposed exactly by CRT —
then compares the k-channel latency profile (Tables IV/VI mechanism).

Run:  python examples/rns_decomposition.py
"""

import time

import numpy as np

from repro.data import load_synth_mnist, normalize_unit
from repro.henn.rnscnn import QuantizedConvSpec, RnsIntegerConv, basis_for_budget
from repro.nt.crt import CrtBasis
from repro.nt.primes import gen_ntt_primes


def main() -> None:
    print("== Fig. 2: a number becomes residues; ops act componentwise ==")
    base = CrtBasis(gen_ntt_primes([26, 26, 26], 64))
    x = np.array([123456789, -987654321])
    channels = base.decompose(x)
    print(f"   moduli: {base.moduli}")
    for i, m in enumerate(base.moduli):
        print(f"   x mod {m} = {channels[i]}")
    print(f"   CRT recompose -> {base.compose_centered(channels)} (exact)")

    print("\n== Fig. 5: decompose -> parallel conv channels -> recompose ==")
    xtr, *_ = load_synth_mnist(n_train=64, n_test=10, seed=3)
    imgs = normalize_unit(xtr)
    rng = np.random.default_rng(0)
    weight = rng.normal(0, 0.3, (5, 1, 5, 5))
    spec = QuantizedConvSpec(input_bits=116, weight_bits=104)

    ref = None
    print(f"   {'k':>3} {'bits/prime':>11} {'latency':>10}  exact")
    for k in (1, 3, 5, 9, 10):
        conv = RnsIntegerConv(
            weight, basis_for_budget(k, 232), stride=2, padding=1, spec=spec
        )
        t0 = time.perf_counter()
        out = conv.forward(imgs) if k > 1 else conv.forward_direct(imgs)
        dt = time.perf_counter() - t0
        if ref is None:
            ref = out
        exact = np.allclose(out, ref)
        bits = conv.base.moduli[0].bit_length()
        print(f"   {k:>3} {bits:>11} {dt * 1e3:>8.1f}ms  {exact}")
    print("   (k = 1 is the non-decomposed multiprecision baseline)")


if __name__ == "__main__":
    main()
