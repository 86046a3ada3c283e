"""Input transforms used by the training/inference pipelines."""

from __future__ import annotations

import numpy as np

__all__ = ["normalize_unit", "to_nchw"]


def normalize_unit(images: np.ndarray) -> np.ndarray:
    """Map uint8 images to floats in [0, 1] — the paper's normalisation
    (and the source of the §III.C near-zero encoding concern)."""
    return np.asarray(images, dtype=np.float64) / 255.0


def to_nchw(images: np.ndarray) -> np.ndarray:
    """Add the channel axis: ``(N, H, W) -> (N, 1, H, W)``."""
    x = np.asarray(images)
    if x.ndim != 3:
        raise ValueError(f"expected (N, H, W), got {x.shape}")
    return x[:, None, :, :]
