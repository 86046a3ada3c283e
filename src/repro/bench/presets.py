"""Benchmark size presets.

The preset controls dataset size, training length, architecture variant
and HE parameters.  Select with ``REPRO_BENCH_PRESET`` (``tiny`` |
``reduced`` | ``paper``); the default keeps a full benchmark sweep
inside CI time on a single core.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.ckks import CkksParams
from repro.ckksrns import CkksRnsParams
from repro.henn.security import he_standard_max_logq

__all__ = ["BenchPreset", "get_preset", "PRESETS"]


@dataclass(frozen=True)
class BenchPreset:
    """All knobs one benchmark run depends on."""

    name: str
    variant: str  # architecture size: tiny | reduced | full
    n_train: int
    n_test: int
    epochs: int
    slaf_epochs: int
    n_ring: int  # ring degree for both schemes
    accuracy_samples: int  # test images scored via the mock backend
    latency_repeats: int  # timed encrypted classifications per row
    sweep_total_bits: int = 232  # Table IV/VI precision budget
    sweep_batch: int = 256  # images per conv-stage sweep measurement

    def rns_params(self, depth: int) -> CkksRnsParams:
        """CKKS-RNS chain long enough for *depth* rescales.

        Hybrid key switching with α = 3 special primes of 31 bits: a
        third of the digits of α = 1, and 3 × 31 = 93 bits still cover
        the widest digit group, 40 + 26 + 26 = 92.  Below 2³¹ a special
        channel multiplies in one int64 product (``repro.nt.modarith``)
        and its NTT takes two limb GEMMs per pass; the 36-bit specials
        used before took three GEMMs per pass and the float-Barrett
        ``mulmod``.  Only the 40-bit ``q_0`` stays wide.  Where the ring
        degree makes a security claim (the chain fits the HE-standard
        budget), α is the largest value ≤ 3 whose ``log QP`` still fits
        it, falling back to 2 × 36 bits and then to the single 49-bit
        prime that covers ``q_0`` alone.
        """
        bits = (40,) + (26,) * depth
        special: int | tuple[int, ...] = (31,) * 3
        headroom = he_standard_max_logq(self.n_ring) - sum(bits)
        if 0 <= headroom < sum(special):
            special = (36, 36) if headroom >= 72 else 49
        return CkksRnsParams(
            n=self.n_ring,
            moduli_bits=bits,
            scale_bits=26,
            special_bits=special,
        )

    def mp_params(self, depth: int) -> CkksParams:
        """Multiprecision CKKS parameters for the same depth."""
        return CkksParams(n=self.n_ring, scale_bits=26, q0_bits=40, levels=depth)


PRESETS: dict[str, BenchPreset] = {
    "tiny": BenchPreset(
        name="tiny",
        variant="tiny",
        n_train=6000,
        n_test=1200,
        epochs=15,
        slaf_epochs=5,
        n_ring=512,
        accuracy_samples=512,
        latency_repeats=2,
    ),
    "reduced": BenchPreset(
        name="reduced",
        variant="reduced",
        n_train=10_000,
        n_test=2000,
        epochs=12,
        slaf_epochs=4,
        n_ring=1024,
        accuracy_samples=1024,
        latency_repeats=3,
    ),
    "paper": BenchPreset(
        name="paper",
        variant="full",
        n_train=50_000,
        n_test=10_000,
        epochs=30,
        slaf_epochs=5,
        n_ring=2**14,
        accuracy_samples=8192,
        latency_repeats=3,
        sweep_total_bits=366,
    ),
}


def get_preset(name: str | None = None) -> BenchPreset:
    """Resolve a preset by name or the ``REPRO_BENCH_PRESET`` env var."""
    name = name or os.environ.get("REPRO_BENCH_PRESET", "tiny")
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]
