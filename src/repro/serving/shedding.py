"""Tiered overload shedding: accept -> defer -> reject -> shed.

A single hard queue bound (PR 5's ``max_queue_depth``) answers every
overload the same way; under a sustained spike that is either too eager
(rejecting load a draining queue could still absorb) or too polite
(accepting requests that will time out anyway while the pool is
saturated).  :class:`ShedPolicy` grades the response into four tiers,
driven by a single *load index* combining queue fill and worker-pool
saturation:

* ``accept`` — normal admission.
* ``defer`` — admit, but stamp the request with a shedding deadline:
  if no batch picks it up within :data:`DEFER_DEADLINE_S` the scheduler
  fails it with the retryable overload error instead of evaluating a
  request whose client has likely given up.
* ``reject`` — retryable :class:`~repro.serving.errors.ServiceOverloadedError`
  at admission (the PR 5 backpressure signal, now fired *before* the
  queue is completely full).
* ``shed`` — non-retryable :class:`~repro.serving.errors.ServiceShedError`:
  queue and pool are saturated beyond recovery-by-retry, so clients
  must route elsewhere rather than pile on.

Telemetry: the ``serving.shed.tier`` gauge tracks the tier of the most
recent admission decision (0–3), and ``serving.shed.deferred`` /
``serving.shed.rejected`` / ``serving.shed.hard`` /
``serving.shed.expired`` counters record every non-accept outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ShedPolicy", "SHED_TIERS"]

#: Tier names in escalation order; index = the ``serving.shed.tier`` gauge value.
SHED_TIERS = ("accept", "defer", "reject", "shed")

#: Load index at which admissions are deferred-with-deadline.
DEFER_FILL = 0.5
#: Load index at which admissions get the retryable overload error.
REJECT_FILL = 0.8
#: Load index at which admissions are hard-shed (non-retryable).
SHED_FILL = 1.0
#: Extra queueing a deferred request tolerates before the scheduler
#: expires it with the retryable overload error.
DEFER_DEADLINE_S = 2.0


@dataclass(frozen=True)
class ShedPolicy:
    """The tiered shedding ladder: load index against fixed thresholds.

    The load index is ``queue_fill + saturation_weight * saturation``
    where ``queue_fill`` is the admission queue's fill fraction and
    ``saturation`` is the worker pool's busy fraction (0 when unknown).
    A policy therefore starts shedding *earlier* when the pool is
    already saturated — queue depth alone lags the actual overload.
    The thresholds are :data:`DEFER_FILL`, :data:`REJECT_FILL` and
    :data:`SHED_FILL`.

    Attributes
    ----------
    saturation_weight:
        How strongly pool saturation advances the ladder (0 disables).
    """

    saturation_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.saturation_weight < 0:
            raise ValueError("saturation_weight must be >= 0")

    def load_index(self, queue_depth: int, max_depth: int, saturation: float) -> float:
        """The scalar the tier thresholds are compared against."""
        fill = queue_depth / max_depth if max_depth > 0 else 1.0
        return fill + self.saturation_weight * max(0.0, min(1.0, saturation))

    def tier(self, queue_depth: int, max_depth: int, saturation: float = 0.0) -> str:
        """Tier name for one admission decision (see :data:`SHED_TIERS`)."""
        load = self.load_index(queue_depth, max_depth, saturation)
        if load >= SHED_FILL:
            return "shed"
        if load >= REJECT_FILL:
            return "reject"
        if load >= DEFER_FILL:
            return "defer"
        return "accept"
