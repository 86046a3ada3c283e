"""Full-RNS CKKS — Cheon-Han-Kim-Kim-Song 2019 [9].

The scheme the paper's CNN-HE-RNS models run on.  Every ring element is
a stack of ``k`` independent residue channels (int64, NTT/evaluation
domain), so

* addition / multiplication are componentwise single-word operations,
* rescaling is the exact RNS division by the dropped prime,
* key switching uses the hybrid RNS-digit gadget, and
* every primitive is slot-parallel over packed positions, which the
  backend shards over the cores — the "decomposed into several parts
  and propagated homomorphically and independently in parallel" of the
  paper's abstract.
"""

from repro.ckksrns.params import CkksRnsParams
from repro.ckksrns.ciphertext import RnsCiphertext
from repro.ckksrns.keys import RnsKeyPair, RnsPublicKey, RnsSecretKey
from repro.ckksrns.keyswitch import SwitchKey
from repro.ckksrns.context import CkksRnsContext

__all__ = [
    "CkksRnsParams",
    "CkksRnsContext",
    "RnsCiphertext",
    "RnsKeyPair",
    "RnsSecretKey",
    "RnsPublicKey",
    "SwitchKey",
]
