"""Activation functions: ReLU (training-time), Square, and SLAF.

The Self-Learning Activation Function (SLAF, Eq. 2 of the paper) is a
polynomial ``f(x) = a_0 + a_1 x + ... + a_d x^d`` with **trainable**
coefficients, learned jointly with (or after) the network weights by
backpropagation.  It is the cryptographically compatible replacement
for ReLU: only additions and multiplications, hence directly computable
under CKKS.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter

__all__ = ["ReLU", "Square", "SLAF", "fit_relu_coeffs"]


class ReLU(Module):
    """``max(x, 0)`` — used in the clear-training phase only."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad * self._mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ReLU()"


class Square(Module):
    """``x^2`` — the CryptoNets activation; a fixed degree-2 polynomial."""

    def __init__(self) -> None:
        super().__init__()
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x * x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._x * grad

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Square()"


def fit_relu_coeffs(degree: int, lo: float = -4.0, hi: float = 4.0, points: int = 513) -> np.ndarray:
    """Least-squares polynomial fit of ReLU on ``[lo, hi]``.

    Useful as a warm-start for SLAF coefficients (the paper initialises
    at zero and relies on retraining; both paths are supported).
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    xs = np.linspace(lo, hi, points)
    ys = np.maximum(xs, 0.0)
    v = np.vander(xs, degree + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(v, ys, rcond=None)
    return coeffs


class SLAF(Module):
    """Self-Learning Activation Function (paper Eq. 2).

    Parameters
    ----------
    degree:
        Polynomial degree *d* (the paper's experiments use 3).
    init:
        ``"zero"`` (the paper's choice), ``"square"`` (CryptoNets
        ``x^2``), or ``"relu"`` (least-squares ReLU fit — a practical
        warm start for the retraining phase).
    channels:
        If given, one coefficient vector per feature channel (input
        shaped ``(N, C, H, W)`` or ``(N, C)``); otherwise a single
        layer-wide vector.
    """

    def __init__(self, degree: int = 3, init: str = "zero", channels: int | None = None):
        super().__init__()
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.channels = channels
        rows = channels if channels else 1
        if init == "zero":
            base = np.zeros(degree + 1)
        elif init == "square":
            base = np.zeros(degree + 1)
            if degree < 2:
                raise ValueError("square init needs degree >= 2")
            base[2] = 1.0
        elif init == "relu":
            base = fit_relu_coeffs(degree)
        else:
            raise ValueError(f"unknown SLAF init {init!r}")
        self.coeffs = Parameter(np.tile(base, (rows, 1)), name="slaf.coeffs")
        self._cache: tuple | None = None

    def _coeff_view(self, x: np.ndarray) -> np.ndarray:
        """Coefficient tensor broadcastable against *x*, shape (..., d+1)."""
        c = self.coeffs.data
        if self.channels is None:
            return c.reshape((1,) * x.ndim + (self.degree + 1,))
        if x.ndim == 4:
            return c.reshape(1, self.channels, 1, 1, self.degree + 1)
        if x.ndim == 2:
            return c.reshape(1, self.channels, self.degree + 1)
        raise ValueError(f"SLAF with channels expects 2-D or 4-D input, got {x.ndim}-D")

    def forward(self, x: np.ndarray) -> np.ndarray:
        powers = np.stack([x**k for k in range(self.degree + 1)], axis=-1)
        cview = self._coeff_view(x)
        out = (powers * cview).sum(axis=-1)
        self._cache = (x, powers)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, powers = self._cache
        cview = self._coeff_view(x)
        # d f / d a_k = x^k  (per channel if channelled)
        gp = grad[..., None] * powers  # (..., d+1)
        if self.channels is None:
            self.coeffs.grad += gp.reshape(-1, self.degree + 1).sum(axis=0, keepdims=True)
        else:
            axes = tuple(i for i in range(gp.ndim - 1) if i != 1)
            self.coeffs.grad += gp.sum(axis=axes)
        # d f / d x = sum_k k a_k x^{k-1}
        dfdx = np.zeros_like(x)
        for k in range(1, self.degree + 1):
            dfdx = dfdx + k * cview[..., k] * powers[..., k - 1]
        return grad * dfdx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = f"channels={self.channels}" if self.channels else "layerwise"
        return f"SLAF(degree={self.degree}, {mode})"
