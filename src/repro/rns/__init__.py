"""Residue Number System substrate (paper §II Fig. 2, §III Fig. 5).

* :mod:`repro.rns.base` — :class:`RnsBase`, a CRT basis of NTT-friendly
  primes with per-channel metadata (the "moduli chain" of §VI).
* :mod:`repro.rns.decompose` — decomposition/recomposition of integer
  *tensors* into residue channels, exactly the operation drawn in Fig. 2
  and applied to input images in the CNN-RNS architectures of Fig. 5.
* :mod:`repro.rns.arithmetic` — componentwise channel arithmetic on
  stacked residue tensors.
* :mod:`repro.rns.convert` — fast base conversion with exact centered
  overflow correction: the ModUp/ModDown of hybrid key switching.
"""

from repro.rns.base import RnsBase
from repro.rns.decompose import rns_decompose, rns_recompose_signed
from repro.rns.arithmetic import channel_mul
from repro.rns.convert import approx_base_convert

__all__ = [
    "RnsBase",
    "rns_decompose",
    "rns_recompose_signed",
    "channel_mul",
    "approx_base_convert",
]
