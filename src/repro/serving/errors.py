"""Typed failures of the serving gateway.

Like :mod:`repro.resilience.errors`, every condition a caller can react
to gets its own class, so the protocol layer can map failures onto the
fixed :class:`~repro.henn.protocol.ServiceError` vocabulary without
parsing messages (and without leaking request data into error strings).
"""

from __future__ import annotations

__all__ = [
    "ServingError",
    "ServiceOverloadedError",
    "ServiceShedError",
    "SchedulerClosedError",
    "DrainTimeoutError",
    "RequestValidationError",
    "WorkerLostError",
    "ClusterUnavailableError",
]


class ServingError(RuntimeError):
    """Base class of all serving-gateway failures."""


class ServiceOverloadedError(ServingError):
    """The admission queue is at capacity; the request was not enqueued.

    This is the *backpressure* signal: it is retryable by design —
    :meth:`repro.henn.protocol.Client.classify_with_retry` backs off and
    resubmits, and a load balancer can route elsewhere.
    """


class SchedulerClosedError(ServingError):
    """The scheduler is shut down; no further requests are accepted.

    Pending futures failed by a non-draining :meth:`close` also carry
    this error, so a waiting client always gets an answer — the
    scheduler never drops a future silently.
    """


class ServiceShedError(ServingError):
    """The hard shedding tier rejected the request outright.

    Unlike :class:`ServiceOverloadedError` this is the *load-shedding
    endgame*: the queue and the worker pool are both saturated beyond
    the retryable tier, so an immediate resubmit is guaranteed to be
    wasted work.  Deliberately **not** retryable — clients should route
    elsewhere or surface the failure, not pile on.
    """


class DrainTimeoutError(ServingError):
    """Shutdown drain gave up before this request could be evaluated.

    Raised into every future still pending when
    :meth:`~repro.serving.scheduler.BatchingScheduler.close` exhausts
    its drain ``timeout``.  Retryable by design: the request itself was
    fine, the service instance simply went away — resubmitting against
    a healthy replica succeeds.
    """


class RequestValidationError(ServingError):
    """A request was rejected at admission (shape / level / scale).

    Raised *before* the request joins a batch: a poisoned request must
    fail alone, never its batchmates.  Not retryable — resubmitting the
    same malformed ciphertexts cannot succeed.
    """


class WorkerLostError(ServingError):
    """An engine worker died (or its pipe broke) while holding a batch.

    The dispatcher raises this into a batch's future only after the
    failover retry budget is spent — a single worker death is normally
    absorbed by requeueing onto a survivor.  Retryable: the request
    ciphertexts were never the problem.
    """


class ClusterUnavailableError(ServingError):
    """The worker pool cannot fork its workers on this platform.

    A lost pool never surfaces this to a request: the dispatcher
    degrades to serial in-process evaluation instead.
    """
