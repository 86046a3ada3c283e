"""RNS ciphertexts: residue-channel stacks in the NTT (evaluation) domain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.ciphertext import with_components

__all__ = ["RnsCiphertext"]


@dataclass
class RnsCiphertext:
    """``c = (c0, c1[, c2[, c3]])``, each component an ``(k, n)`` int64 channel stack.

    ``level`` indexes the active prefix of the moduli chain: the stack has
    ``k = level + 1`` channels.  ``c0``/``c1`` are always kept in the NTT
    ("evaluation") domain so multiplications are dyadic.

    The ciphertext decrypts under ``(1, s, s², s³)``.  Raw tensor
    products (:meth:`~repro.ckksrns.context.CkksRnsContext.mul_raw`,
    ``square_raw``) leave ``c2`` in place; multiplying a degree-1
    ciphertext by a raw degree-2 one (a BSGS giant-step fold) adds
    ``c3``; :meth:`~repro.ckksrns.context.CkksRnsContext.relinearize`
    switches both back.  ``deferred`` is True once a rescale has been
    applied to the extended form (the relinearisation will run at the
    lower level — the lazy win).

    When ``coeff_high`` is True the high components (``c2``/``c3``) are
    held in *coefficient* domain instead: they are only ever consumed by
    relinearisation, which needs them there anyway, so a deferring
    rescale inverse-transforms them once and then divides channel-wise
    without any further forward lifts.
    """

    c0: np.ndarray
    c1: np.ndarray
    level: int
    scale: float
    c2: np.ndarray | None = None
    c3: np.ndarray | None = None
    deferred: bool = False
    coeff_high: bool = False

    def __post_init__(self) -> None:
        if any(c.shape != self.c0.shape for c in self.components()[1:]):
            raise ValueError("component shape mismatch")
        if self.c0.shape[0] != self.level + 1:
            raise ValueError(
                f"level {self.level} requires {self.level + 1} channels, got {self.c0.shape[0]}"
            )

    @property
    def degree(self) -> int:
        """Highest secret-key power the ciphertext decrypts under."""
        return 1 if self.c2 is None else 2 if self.c3 is None else 3

    @property
    def k(self) -> int:
        """Number of active residue channels."""
        return self.level + 1

    @property
    def n(self) -> int:
        return self.c0.shape[1]

    def components(self) -> list[np.ndarray]:
        return [c for c in (self.c0, self.c1, self.c2, self.c3) if c is not None]

    def copy(self) -> "RnsCiphertext":
        return with_components(self, [c.copy() for c in self.components()])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RnsCiphertext(n={self.n}, degree={self.degree}, level={self.level}, "
            f"k={self.k}, scale=2^{np.log2(self.scale):.2f})"
        )
