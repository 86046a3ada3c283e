"""Residue Number System kernels beyond the CRT basis (paper §II, §III Fig. 5).

The basis itself — decomposition, componentwise arithmetic and CRT
recomposition of integer tensors (Fig. 2) — is
:class:`repro.nt.crt.CrtBasis`.  This package holds what is built on it:

* :mod:`repro.rns.convert` — fast base conversion with exact centered
  overflow correction: the ModUp/ModDown of hybrid key switching.
* :mod:`repro.rns.limb` — multi-limb (multiprecision) kernels of the
  hybrid conv stage's residue channels.
"""

from repro.rns.convert import approx_base_convert

__all__ = ["approx_base_convert"]
