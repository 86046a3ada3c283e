"""Small shared utilities: RNG handling, timing, and the plaintext cache."""

from repro.utils.cache import PlaintextCache
from repro.utils.rng import derive_rng, spawn_rngs
from repro.utils.timing import LatencyStats, Timer

__all__ = ["derive_rng", "spawn_rngs", "LatencyStats", "Timer", "PlaintextCache"]
