"""Fault tolerance for RNS inference.

Two cooperating pieces (see ``docs/RESILIENCE.md``):

* :class:`RedundantBasis` — RRNS channel recovery: ``r`` redundant
  moduli detect and correct a corrupted or dropped residue channel of
  the hybrid conv stage's integer pipeline.
* :class:`FaultInjector` — seeded, deterministic fault source threaded
  through the stack's hooks so recovery can be proven end-to-end.

The typed errors (:class:`ChannelIntegrityError`, :class:`ProtocolError`)
let the protocol layer classify failures without parsing messages.
"""

from repro.resilience.errors import (
    ChannelIntegrityError,
    ProtocolError,
    ResilienceError,
)
from repro.resilience.faults import FaultInjector
from repro.resilience.rrns import RedundantBasis

__all__ = [
    "ResilienceError",
    "ChannelIntegrityError",
    "ProtocolError",
    "FaultInjector",
    "RedundantBasis",
]
