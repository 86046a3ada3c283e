"""Ciphertext container for the multiprecision scheme."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

__all__ = ["Ciphertext", "CiphertextDegreeError", "require_degree1", "with_components"]


class CiphertextDegreeError(ValueError):
    """A degree-1-only operation was handed an unrelinearised ciphertext.

    Decryption, rotation, serialisation, plaintext-vector products and
    weighted sums read ``(c0, c1)`` only; on a ciphertext that still
    carries ``c2``/``c3`` they would silently drop the ``s²``/``s³``
    terms and return a wrong plaintext.  Relinearise first.
    """


def require_degree1(ct: Any, op: str) -> None:
    """Raise :class:`CiphertextDegreeError` unless *ct* has two components."""
    if ct.degree != 1:
        raise CiphertextDegreeError(
            f"{op} needs a degree-1 ciphertext, got degree {ct.degree}: relinearize first"
        )


def with_components(ct: Any, comps: Sequence[np.ndarray], **changes: Any) -> Any:
    """*ct* (either scheme's) with ``c0, c1[, c2[, c3]]`` — and any other
    field named in *changes* — replaced; flags and the rest carry over."""
    return replace(ct, **dict(zip(("c0", "c1", "c2", "c3"), comps)), **changes)


@dataclass
class Ciphertext:
    """``c = (c0, c1[, c2[, c3]]) in R_{q_level}`` with scale bookkeeping.

    ``level`` counts remaining rescaling steps: a fresh ciphertext is at
    ``level = L`` and each :meth:`~repro.ckks.context.CkksContext.rescale`
    decrements it.  ``scale`` is the current plaintext scaling factor Δ'.

    A ciphertext decrypts under ``(1, s, s², s³)``: raw tensor products
    (``mul_raw`` / ``square_raw``) leave ``c2`` (and, against a raw
    degree-2 operand, ``c3``) in place until
    :meth:`~repro.ckks.context.CkksContext.relinearize` switches them
    back.  ``deferred`` is True once a rescale has run on the extended
    form (the relinearisation then happens at the lower level).
    """

    c0: np.ndarray  # object coefficient array mod q_level
    c1: np.ndarray
    level: int
    scale: float
    n: int
    c2: np.ndarray | None = None
    c3: np.ndarray | None = None
    deferred: bool = False

    @property
    def degree(self) -> int:
        """Highest secret-key power the ciphertext decrypts under."""
        return 1 if self.c2 is None else 2 if self.c3 is None else 3

    def components(self) -> list[np.ndarray]:
        return [c for c in (self.c0, self.c1, self.c2, self.c3) if c is not None]

    def copy(self) -> "Ciphertext":
        return with_components(self, [c.copy() for c in self.components()])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Ciphertext(n={self.n}, degree={self.degree}, level={self.level}, "
            f"scale=2^{np.log2(self.scale):.1f})"
        )
