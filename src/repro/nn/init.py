"""Weight initialisation — Kaiming (He) init per §V.D / [41]."""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_normal", "zeros"]


def kaiming_normal(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-normal: N(0, sqrt(2/fan_in)) — for ReLU-trained conv/dense layers."""
    if fan_in <= 0:
        raise ValueError("fan_in must be positive")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)
