"""Dynamic request batching and multi-worker serving for the HE path.

``repro.serving`` turns the one-request-per-call
:class:`~repro.henn.protocol.CloudService` into a throughput-oriented
gateway: independent client requests are coalesced into batches
(:func:`repro.henn.inference.evaluate_batch` shares slots where the
backend can do so exactly), fired by a fill-or-deadline
scheduler with bounded-queue backpressure and tiered overload shedding
(:mod:`repro.serving.scheduler`, :mod:`repro.serving.shedding`), routed
across a fault-tolerant pool of process-backed engine workers with
health-weighted dispatch and failover (:mod:`repro.serving.cluster`),
and observed end to end through :mod:`repro.obs` (``serving.*`` /
``cluster.*`` metrics, Prometheus export, ``/healthz``).

The protocol-level entry points are
:class:`repro.henn.protocol.BatchedCloudService` (single engine) and
:class:`repro.henn.protocol.ClusteredCloudService` (worker pool); this
package holds the reusable machinery beneath them.
"""

from repro.serving.cluster import ClusterWorker, Dispatcher, WorkerPool
from repro.serving.errors import (
    ClusterUnavailableError,
    DrainTimeoutError,
    RequestValidationError,
    SchedulerClosedError,
    ServiceOverloadedError,
    ServiceShedError,
    ServingError,
    WorkerLostError,
)
from repro.serving.scheduler import BatchingScheduler
from repro.serving.shedding import SHED_TIERS, ShedPolicy

__all__ = [
    "BatchingScheduler",
    "ClusterWorker",
    "Dispatcher",
    "WorkerPool",
    "ShedPolicy",
    "SHED_TIERS",
    "ServingError",
    "ServiceOverloadedError",
    "ServiceShedError",
    "SchedulerClosedError",
    "DrainTimeoutError",
    "RequestValidationError",
    "WorkerLostError",
    "ClusterUnavailableError",
]
