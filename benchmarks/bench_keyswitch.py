"""Key switching on the SLAF tail, swept over α.

One SLAF evaluation per degree 2..8 on both real schemes — CKKS-RNS
over ``RNS_POSITIONS`` ciphertexts batched through one program
(``poly_eval_many``, the ``(k, B, n)`` stack the encrypted tail runs),
multiprecision CKKS over one.  The interpreter is lazy: products stay
in degree-2/3 extended space and each block sum relinearises once,
post-rescale (``program.relins ~ sqrt(d)`` sweeps, against the
``program.ct_mults ~ 2*sqrt(d)`` of relinearising every product).

CKKS-RNS runs at α = 1 (one 49-bit special prime, the
one-prime-per-digit gadget), at α ∈ {2, 3, 4} 36-bit special primes
(hybrid key switching, ``docs/KERNELS.md``): ``⌈k/α⌉·(k+α)``
lifted-digit transforms per sweep instead of ``k·(k+1)``, and at the
benchmark presets' 3 × 31 bits: the digits of 3 × 36, every special
channel below 2³¹ (int64 ``mulmod``, two limb GEMMs per NTT pass).

Every round encrypts a **fresh** ciphertext outside the timed region,
as every request does.  ``relin.count`` is metered per round, must
agree across rounds, and is recorded alongside the timings, so the
sweep-count claim (``program.relins``) is checked structurally, not by
wall-clock.  See ``docs/KERNELS.md`` for the per-degree relin table.
"""

import time

import numpy as np
import pytest
from conftest import save_record

from repro.ckks import CkksParams
from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksBackend, CkksRnsBackend
from repro.nt.kernels import compile_poly_program
from repro.obs.metrics import get_registry

RNS_N = 512
CKKS_N = 256
#: Chain levels (9 primes, so the α sweep has digits to group) — not the
#: depth of any program here: degree-8 BSGS consumes program.depth = 4.
DEPTH = 8
DEGREES = range(2, 9)
ROUNDS = 3
RNS_POSITIONS = 16  # ciphertexts per evaluation, one batched program
#: special_bits per swept set, by result key; α is their count.  4 x 36
#: bits covers the widest group (40, 26, 26, 26), 3 x 31 = 93 the widest
#: (40, 26, 26).
SPECIAL_SETS = {
    "a1": 49,
    "a2": (36, 36),
    "a3": (36, 36, 36),
    "a3x31": (31, 31, 31),
    "a4": (36, 36, 36, 36),
}


def _coeffs(degree: int) -> np.ndarray:
    return np.random.default_rng(degree).uniform(-0.5, 0.5, degree + 1)


def _rns_backend(special: int | tuple[int, ...]) -> CkksRnsBackend:
    return CkksRnsBackend(
        CkksRnsParams(n=RNS_N, moduli_bits=(40,) + (26,) * DEPTH, special_bits=special),
        seed=0,
    )


@pytest.fixture(scope="module")
def ckks_backend():
    return CkksBackend(
        CkksParams(n=CKKS_N, scale_bits=26, q0_bits=40, levels=DEPTH), seed=0
    )


def _meter_eval(backend, rng, positions, coeffs):
    """(seconds, relins) for one evaluation of freshly encrypted
    ciphertexts (encryption is outside the timed region)."""
    cts = backend.encrypt_many(
        [rng.uniform(-1, 1, min(backend.max_batch, 64)) for _ in range(positions)]
    )
    reg = get_registry()
    relin0 = reg.counter("relin.count").value
    t0 = time.perf_counter()
    # The activation's last sweep belongs to its consumer: relinearise
    # here, as the linear map behind it would, so each cell is one SLAF.
    backend.relinearize_many(backend.poly_eval_many(cts, coeffs))
    secs = time.perf_counter() - t0
    return secs, reg.counter("relin.count").value - relin0


def _run_degrees(backend, key, alpha, special, positions):
    """Benchmark every degree on one backend.

    Each cell keeps the best-of-ROUNDS wall time over fresh ciphertexts
    and the per-round sweep count, which every round must reproduce.
    """
    rows = []
    rng = np.random.default_rng(7)
    for degree in DEGREES:
        coeffs = _coeffs(degree)
        rounds = [_meter_eval(backend, rng, positions, coeffs) for _ in range(ROUNDS)]
        best = min(secs for secs, _ in rounds)
        counts = {c for _, c in rounds}
        assert len(counts) == 1, (
            f"{backend.name} degree {degree}: rounds disagree on relins: {sorted(counts)}"
        )
        (relins,) = counts
        prog = compile_poly_program(degree)
        assert relins == prog.relins, (
            f"{backend.name} degree {degree}: {relins} relins, expected {prog.relins}"
        )
        # The headline: never more sweeps than relinearising every product.
        assert relins <= prog.ct_mults, (backend.name, degree)
        rows.append([backend.name, key, alpha, special, degree, positions, best, relins])
    return rows


def test_keyswitch_strategies(benchmark, ckks_backend):
    rows = []
    for key, special in SPECIAL_SETS.items():
        bits = (special,) if isinstance(special, int) else special
        label = f"{len(bits)}x{bits[0]}"
        rows += _run_degrees(_rns_backend(special), key, len(bits), label, RNS_POSITIONS)
    rows += _run_degrees(ckks_backend, "a-", "-", "-", 1)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    results = {
        f"{scheme}.{key}.lazy.d{degree}.seconds": secs
        for scheme, key, _, _, degree, _, secs, _ in rows
    }
    save_record(
        "keyswitch",
        ["scheme", "alpha", "special", "degree", "positions", "seconds", "relins"],
        [row[:1] + row[2:] for row in rows],
        f"KEYSWITCH — lazy SLAF evaluation, alpha special primes "
        f"(RNS n={RNS_N}, CKKS n={CKKS_N}, depth={DEPTH}, best of {ROUNDS} "
        f"fresh ciphertexts)",
        results=results,
    )
