"""Small dataset container utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import derive_rng

__all__ = ["Dataset", "train_test_split"]


@dataclass
class Dataset:
    """Images + labels with shape checks and batch iteration."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y must have the same number of samples")

    def __len__(self) -> int:
        return self.x.shape[0]

    def batches(self, batch_size: int, shuffle: bool = False, seed: int | None = None):
        """Yield ``(x_batch, y_batch)`` pairs."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        idx = np.arange(len(self))
        if shuffle:
            derive_rng(seed).shuffle(idx)
        for start in range(0, len(self), batch_size):
            sel = idx[start : start + batch_size]
            yield self.x[sel], self.y[sel]


def train_test_split(
    x: np.ndarray, y: np.ndarray, test_fraction: float = 0.2, seed: int | None = None
) -> tuple[Dataset, Dataset]:
    """Shuffled split into train/test datasets."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    n = x.shape[0]
    idx = derive_rng(seed).permutation(n)
    n_test = int(round(n * test_fraction))
    test_idx, train_idx = idx[:n_test], idx[n_test:]
    return Dataset(x[train_idx], y[train_idx]), Dataset(x[test_idx], y[test_idx])
