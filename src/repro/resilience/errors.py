"""Typed failures of the fault-tolerant inference stack.

Every recoverable condition gets its own exception class so callers —
the protocol layer above all — can classify failures without parsing
messages (and without leaking payload data into error strings).
"""

from __future__ import annotations

__all__ = [
    "ResilienceError",
    "ChannelIntegrityError",
    "ProtocolError",
]


class ResilienceError(RuntimeError):
    """Base class of all resilience-subsystem failures."""


class ChannelIntegrityError(ResilienceError):
    """Residue channels fail the RRNS consistency check and cannot be
    reconstructed from the surviving channels.

    Parameters
    ----------
    message:
        Human-readable diagnosis (channel indices only — never data).
    suspects:
        Channel indices implicated by the projection test (empty when the
        corruption could not be localised at all).
    """

    def __init__(self, message: str, suspects: tuple[int, ...] = ()):
        super().__init__(message)
        self.suspects = tuple(suspects)


class ProtocolError(ResilienceError):
    """A cloud classification request failed after client-side retries.

    Carries the cloud's *structured* (sanitised) error — see
    :class:`repro.henn.protocol.ServiceError` — never the raw exception.
    """

    def __init__(self, error: object, attempts: int):
        super().__init__(f"classification failed after {attempts} attempt(s): {error}")
        self.error = error
        self.attempts = attempts
