"""Deterministic random-number-generator plumbing.

Every stochastic component in the library (key generation, noise sampling,
weight init, dataset synthesis) takes either an ``int`` seed or a
``numpy.random.Generator``.  These helpers normalise that convention so
results are reproducible end to end.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_rng"]


def derive_rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """Return a ``Generator`` from a seed, an existing generator, or ``None``.

    ``None`` yields a fresh, OS-entropy-seeded generator;  an existing
    generator is returned as-is (shared state).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)
