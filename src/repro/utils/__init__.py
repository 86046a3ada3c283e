"""Small shared utilities: RNG handling, timing, and the plaintext cache."""

from repro.utils.cache import PlaintextCache
from repro.utils.rng import derive_rng
from repro.utils.timing import LatencyStats, Timer

__all__ = ["derive_rng", "LatencyStats", "Timer", "PlaintextCache"]
