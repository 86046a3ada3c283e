"""Textbook (multiprecision) CKKS — Cheon-Kim-Kim-Song 2017 [8].

This is the scheme behind the paper's non-RNS "CNN-HE" baselines.  All
ring elements live in :class:`repro.nt.polynomial.PolyRing` with Python
big-integer coefficients, i.e. the "multi-precision library" cost model
that the RNS variant (:mod:`repro.ckksrns`) eliminates.

Primitives follow §II of the paper: ``KeyGen``, ``Encrypt``, ``Decrypt``,
``Add``, ``Mult`` (+ relinearisation with the ``P = q_L`` evaluation-key
trick), ``Resc`` (rescaling) and ``Rot`` (slot rotation via Galois keys).
"""

from repro.ckks.encoder import CkksEncoder
from repro.ckks.context import CkksContext, CkksParams
from repro.ckks.ciphertext import Ciphertext, CiphertextDegreeError
from repro.ckks.keys import KeyPair, PublicKey, RelinKey, GaloisKey, SecretKey

__all__ = [
    "CkksEncoder",
    "CkksContext",
    "CkksParams",
    "Ciphertext",
    "CiphertextDegreeError",
    "KeyPair",
    "SecretKey",
    "PublicKey",
    "RelinKey",
    "GaloisKey",
]
