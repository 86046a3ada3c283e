"""The Fig. 1 protocol: blind, two-party, non-interactive classification.

* The **client** owns the secret key: it encrypts its images, ships the
  ciphertexts (and evaluation keys) to the cloud, and decrypts the
  returned encrypted scores.
* The **cloud** holds the (plaintext) model and only ever touches
  ciphertexts: it cannot read the inputs, the features, or the scores.

These classes are a thin choreography over
:class:`~repro.henn.inference.HeInferenceEngine`; they exist to make
the trust boundary explicit (and testable: the cloud object never
receives the secret key).

Fault paths respect the same boundary.  A failing evaluation must not
become a side channel, so :meth:`CloudService.try_classify` answers
with a :class:`ServiceError` built from a **fixed vocabulary** — the
exception *class name* and a canned detail string, never the exception
arguments (which could embed slot values or scales derived from the
client's data).  The client drives bounded retry on top
(:meth:`Client.classify_with_retry`), re-encrypting fresh request
ciphertexts each attempt.

Serving telemetry follows the same rule: every ``try_classify`` call
emits ``henn.request.*`` lifecycle events through
:mod:`repro.obs.logs` (silent until a sink is configured) carrying only
durations, handle counts and sanitised error codes, and
:meth:`CloudService.start_observability` optionally exposes the process
metrics on ``/metrics`` + ``/healthz`` scrape endpoints.

Per-request distributed tracing (:mod:`repro.obs.rtrace`) is opt-in via
``trace_policy``: the gateway mints a :class:`TraceContext` at
admission, the scheduler and cluster dispatcher attribute the serving
stages (gateway, queue wait, pack, compute, split, failover) to it,
sampled batches bring worker-process spans home with the result, and
retained traces appear on ``/debug/traces`` (see
``tools/trace_critical_path.py`` for the breakdown CLI).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ckks.ciphertext import CiphertextDegreeError
from repro.henn.backend import HeBackend
from repro.henn.inference import HeInferenceEngine, evaluate_batch
from repro.henn.layers import HeLayer, LevelBudgetError
from repro.henn.packing import published_layout
from repro.obs import health as _obs_health
from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry
from repro.obs.rtrace import RequestTracer, SamplingPolicy, TraceContext, batch_stage
from repro.obs.server import ObservabilityServer
from repro.resilience.errors import ChannelIntegrityError, ProtocolError
from repro.serving.cluster import SPAWN_TIMEOUT_S, Dispatcher, WorkerPool
from repro.serving.errors import (
    ClusterUnavailableError,
    DrainTimeoutError,
    RequestValidationError,
    SchedulerClosedError,
    ServiceOverloadedError,
    ServiceShedError,
    WorkerLostError,
)
from repro.serving.scheduler import BatchingScheduler
from repro.serving.shedding import SHED_TIERS, ShedPolicy

__all__ = [
    "Client",
    "CloudService",
    "BatchedCloudService",
    "ClusteredCloudService",
    "ServiceError",
    "CloudResponse",
]


#: Longest a blocking :meth:`BatchedCloudService.try_classify` waits on
#: its future before answering with a ``compute`` error.
REQUEST_TIMEOUT_S = 120.0

#: Jittered fraction of each :meth:`Client.classify_with_retry` backoff
#: delay, in ``[0, 1]``: ``1.0`` draws the whole delay uniformly from
#: ``[0, base]``; ``0.0`` is the deterministic exponential schedule.
RETRY_JITTER = 1.0


@dataclass(frozen=True)
class ServiceError:
    """Sanitised failure report crossing the cloud -> client boundary.

    Attributes
    ----------
    code:
        The exception class name (type only — no arguments).
    category:
        ``"integrity"`` (residue channels unrecoverable), ``"compute"``
        (executors exhausted / timed out), ``"state"`` (ciphertext
        bookkeeping rejected the request), or ``"internal"``.
    retryable:
        Whether the client may usefully resubmit the request.
    detail:
        One of a fixed set of canned sentences; deliberately never
        interpolates exception arguments, so no plaintext-derived value
        can leak through the error path.
    """

    code: str
    category: str
    retryable: bool
    detail: str


@dataclass(frozen=True)
class CloudResponse:
    """What the cloud returns: encrypted scores, or a sanitised error."""

    ok: bool
    scores: np.ndarray | None = None
    error: ServiceError | None = None


#: The fixed error vocabulary, ``(exception types, category, retryable,
#: canned detail)``; the first matching row wins, so subclasses come
#: before their bases.
_VOCABULARY: tuple[tuple[type | tuple[type, ...], str, bool, str], ...] = (
    (ChannelIntegrityError, "integrity", True, "residue channel check failed beyond recovery"),
    (ServiceShedError, "overload", False, "service saturated, route elsewhere"),
    (ServiceOverloadedError, "overload", True, "service at capacity, retry with backoff"),
    (RequestValidationError, "state", False, "request rejected at admission"),
    (LevelBudgetError, "state", False, "modulus chain too short for the model"),
    (CiphertextDegreeError, "state", False, "unrelinearised ciphertext where degree 1 is required"),
    (DrainTimeoutError, "unavailable", True, "service drained out before evaluation"),
    (WorkerLostError, "compute", True, "evaluation worker lost mid-batch"),
    (ClusterUnavailableError, "unavailable", True, "worker pool unavailable"),
    (SchedulerClosedError, "unavailable", False, "service is shutting down"),
    (ValueError, "state", True, "ciphertext bookkeeping rejected the request"),
)


def _sanitize(exc: BaseException) -> ServiceError:
    """Map an internal exception onto the fixed error vocabulary."""
    code = type(exc).__name__
    for types, category, retryable, detail in _VOCABULARY:
        if isinstance(exc, types):
            return ServiceError(code, category, retryable, detail)
    return ServiceError(code, "internal", False, "internal evaluation failure")


def _tags(error: ServiceError) -> dict:
    """Log-event fields of a sanitised error (the canned detail stays out)."""
    return {"code": error.code, "category": error.category, "retryable": error.retryable}


class _ClientPacker(HeInferenceEngine):
    """The engine's client half (encrypt, decrypt) without a graph or a plan.

    The layers — and every encoded weight — stay on the cloud: this
    object holds the backend and the input shape only.  With no graph of
    its own it cannot decide the packed layout, so it reads what the
    cloud plans on its backend published
    (:func:`repro.henn.packing.published_layout`) at each request: the
    score width, and the gather of the ciphertexts to send — the first
    map's input *geometry* at most, never a weight.
    """

    def __init__(self, backend: HeBackend, input_shape: tuple[int, int, int]):
        self.backend = backend
        self.input_shape = input_shape

    @property
    def packed_width(self) -> "int | None":
        layout = published_layout(self.backend, self.input_shape)
        return None if layout is None else layout[0]

    @property
    def packed_input(self) -> "np.ndarray | None":
        layout = published_layout(self.backend, self.input_shape)
        return None if layout is None else layout[1]


class Client:
    """Data owner: encrypts queries and decrypts responses.

    A single image travels in the packed layout when the cloud plans on
    the same backend object offer it; a client on a backend of its own
    (another process) always sends the per-position layout.
    """

    def __init__(self, backend: HeBackend, input_shape: tuple[int, int, int]):
        self.backend = backend
        self.input_shape = input_shape
        self._packer = _ClientPacker(backend, input_shape)

    def encrypt_request(self, images: np.ndarray) -> np.ndarray:
        """Package a batch of images as ciphertext handles."""
        return self._packer.encrypt_images(images)

    def decrypt_response(self, encrypted_scores: np.ndarray, batch: int) -> np.ndarray:
        """Recover ``(batch, classes)`` logits from encrypted scores."""
        return self._packer.decrypt_scores(np.asarray(encrypted_scores, dtype=object), batch)

    def classify_with_retry(
        self,
        cloud: "CloudService",
        images: np.ndarray,
        max_attempts: int = 3,
        backoff_seconds: float = 0.0,
        *,
        seed: int | None = None,
    ) -> np.ndarray:
        """Full round trip with bounded client-side retry.

        Each attempt encrypts a *fresh* request (a transient fault may
        have corrupted the previous ciphertexts in flight).  A
        non-retryable :class:`ServiceError`, or ``max_attempts``
        retryable ones, raise
        :class:`~repro.resilience.errors.ProtocolError` carrying the
        sanitised error only.

        ``backoff_seconds`` > 0 backs off exponentially before retry
        *k*, from the base delay ``backoff_seconds * 2^(k-2)`` — the
        polite response to an ``overload`` rejection from a
        backpressured :class:`BatchedCloudService` (its queue needs
        draining, not hammering).  The delay is **fully jittered**
        (:data:`RETRY_JITTER`; uniform in ``[0, base]``, AWS-style): a
        fleet of clients rejected together must not retry in lockstep,
        or every backoff wave arrives as the same thundering herd that
        overloaded the gateway in the first place.

        Parameters
        ----------
        seed:
            Seeds the jitter RNG (reproducible tests); ``None`` draws
            from the process RNG.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        images = np.asarray(images, dtype=np.float64)
        rng = random.Random(seed)
        error: ServiceError | None = None
        for attempt in range(1, max_attempts + 1):
            if attempt > 1:
                base = backoff_seconds * 2 ** (attempt - 2)
                delay = base * (1.0 - RETRY_JITTER) + rng.uniform(0.0, base * RETRY_JITTER)
                get_registry().counter("resilience.protocol_retries").inc()
                if delay > 0:
                    time.sleep(delay)
            response = cloud.try_classify(self.encrypt_request(images))
            if response.ok:
                return self.decrypt_response(response.scores, images.shape[0])
            error = response.error
            if not error.retryable:
                raise ProtocolError(error, attempts=attempt)
        raise ProtocolError(error, attempts=max_attempts)


class CloudService:
    """Untrusted evaluator: holds the model, never the secret key.

    Request tracing is opt-in: pass a
    :class:`~repro.obs.rtrace.SamplingPolicy` as *trace_policy* and the
    service mints a per-request :class:`~repro.obs.rtrace.TraceContext`
    at admission, attributes the serving stages to it, and retains
    sampled / errored / slow-tail records in :attr:`rtrace`'s store
    (exposed on ``/debug/traces`` by :meth:`start_observability`).
    Without a policy the request path stays trace-free.
    """

    def __init__(
        self,
        backend: HeBackend,
        layers: list[HeLayer],
        input_shape: tuple[int, int, int],
        *,
        trace_policy: SamplingPolicy | None = None,
    ):
        self.engine = HeInferenceEngine(backend, layers, input_shape)
        self._obs_server: ObservabilityServer | None = None
        self.rtrace = RequestTracer(policy=trace_policy)
        # Request ids must stay unique under concurrent try_classify
        # calls: itertools.count.__next__ is atomic under the GIL, and
        # the served/latency bookkeeping shares one lock.
        self._request_ids = itertools.count(1)
        self._state_lock = threading.Lock()
        self._requests_served = 0
        self._last_latency = 0.0

    def classify_encrypted(self, encrypted_images: np.ndarray) -> np.ndarray:
        """Run the CNN homomorphically; inputs and outputs stay encrypted."""
        return self.engine.run_encrypted(encrypted_images)

    def try_classify(self, encrypted_images: np.ndarray) -> CloudResponse:
        """Like :meth:`classify_encrypted`, but failures come back as a
        structured :class:`CloudResponse` instead of a raw exception.

        Each call is one request-lifecycle: ``henn.request.start`` then
        ``henn.request.ok`` / ``henn.request.error`` JSON log events
        (with handle counts, latency and the sanitised error code —
        never exception arguments), plus ``henn.requests`` counters
        labelled by outcome (see :meth:`_settle`).
        """
        rid = next(self._request_ids)
        ctx = self.rtrace.mint(rid)
        handles = int(np.asarray(encrypted_images).size)
        get_logger().event("henn.request.start", request=rid, handles=handles)
        t0 = time.perf_counter()
        try:
            outcome = [self.classify_encrypted(encrypted_images)]
        except Exception as exc:
            outcome = exc
        seconds = time.perf_counter() - t0
        (response,) = self._settle([rid], seconds, outcome)
        if ctx is not None:
            ctx.add_stage(
                "compute", t0, t0 + seconds, outcome="ok" if response.ok else "error"
            )
            self._close_trace(ctx, response)
        return response

    def _settle(
        self,
        rids: Sequence[int],
        seconds: float,
        outcome: "Sequence[np.ndarray] | BaseException",
    ) -> list[CloudResponse]:
        """Account one evaluation's outcome; returns its requests' responses.

        The one place the lifecycle's second half lives, whichever
        service evaluated.  *outcome* is one score array per request
        id, or the exception that failed the whole evaluation (a
        cancelled dispatch included): ``henn.requests{outcome}`` and the
        ``henn.request.ok|error`` events count per request,
        ``resilience.service_errors`` once per failed evaluation.
        """
        log = get_logger()
        reg = get_registry()
        failed = isinstance(outcome, BaseException)
        reg.counter("henn.requests", {"outcome": "error" if failed else "ok"}).inc(len(rids))
        if failed:
            reg.counter("resilience.service_errors").inc()
            error = _sanitize(outcome)
            for rid in rids:
                log.event("henn.request.error", request=rid, seconds=seconds, **_tags(error))
            responses = [CloudResponse(ok=False, error=error)] * len(rids)
        else:
            latency = reg.histogram("henn.request.seconds")
            responses = []
            for rid, scores in zip(rids, outcome):
                latency.observe(seconds)
                log.event(
                    "henn.request.ok", request=rid, seconds=seconds, scores=int(len(scores))
                )
                responses.append(CloudResponse(ok=True, scores=scores))
        # Snapshot per evaluation under the lock: reading the engine's
        # mutable trace here would race concurrent classifications.
        with self._state_lock:
            self._requests_served += len(rids)
            if not failed:
                self._last_latency = seconds
        return responses

    def _close_trace(self, ctx: TraceContext, response: CloudResponse) -> None:
        """Finish one request's trace with its response's outcome."""
        if response.ok:
            self.rtrace.finish(ctx, "ok")
        else:
            self.rtrace.finish(ctx, "error", error_code=response.error.code)

    # -- scrape endpoints --------------------------------------------------------

    def start_observability(
        self, port: int = 0, host: str = "127.0.0.1"
    ) -> ObservabilityServer:
        """Expose ``/metrics`` + ``/healthz`` for this service (opt-in).

        ``/healthz`` reports ready=true once at least one request has
        been served, along with request counts and the last latency.
        When request tracing is enabled (``trace_policy``), the retained
        per-request traces are also served on ``/debug/traces``.
        Returns the running :class:`ObservabilityServer`; read its
        ``port``/``url`` for the bound address (``port=0`` = ephemeral).
        Idempotent while running.
        """
        if self._obs_server is not None and self._obs_server.running:
            return self._obs_server
        self._obs_server = ObservabilityServer(
            port=port,
            host=host,
            health_fn=self._health,
            trace_store=self.rtrace.store if self.rtrace.enabled else None,
        ).start()
        return self._obs_server

    def stop_observability(self) -> None:
        """Shut down the scrape endpoints, if running."""
        if self._obs_server is not None:
            self._obs_server.stop()
            self._obs_server = None

    def _health(self) -> dict:
        with self._state_lock:
            served = self._requests_served
        return {
            "ok": True,
            "ready": served > 0,
            "requests": served,
            "backend": self.engine.backend.name,
            "last_latency_seconds": self.last_latency,
        }

    @property
    def last_latency(self) -> float:
        """Seconds spent on the most recent encrypted classification.

        Snapshotted per request inside :meth:`try_classify` (reading
        the engine's shared layer timings would race concurrent
        requests); direct :meth:`classify_encrypted` callers get the sum
        of the engine's :attr:`~HeInferenceEngine.layer_seconds`.
        """
        with self._state_lock:
            if self._requests_served:
                return self._last_latency
        return float(sum(seconds for _, seconds in self.engine.layer_seconds))


class BatchedCloudService(CloudService):
    """Dynamic-batching gateway: coalesces requests into slot-packed runs.

    The serving-throughput problem this solves: a CKKS classification
    costs nearly the same wall-clock whether 1 or ``max_batch`` SIMD
    slots are filled, yet :meth:`CloudService.try_classify` evaluates
    one request per call — single-image clients pay full price and
    throughput is ``1/latency``.  This gateway admits requests into a
    bounded queue, a :class:`~repro.serving.scheduler.BatchingScheduler`
    worker coalesces them (fire on slots-full or ``max_wait_ms``
    deadline of the oldest request), the engine evaluates the packed
    batch **once**, and the score ciphertexts are split back so each
    response carries only its own slot range.

    Guarantees:

    * **Error isolation** — shapes, levels and scales are validated at
      admission; a poisoned request is rejected alone (non-retryable
      ``state`` error) and never joins a batch.  A backend fault while
      a batch runs fails all its members with the same *retryable*
      sanitised error.
    * **Backpressure** — beyond ``max_queue_depth`` pending requests,
      admission answers the retryable ``overload``
      :class:`ServiceError`, which
      :meth:`Client.classify_with_retry` backs off on.
    * **Exactness** — a batch never approximates: requests share slots
      only where the backend concatenates them bit-identically
      (``native_slot_concat`` — the mock), and a fired batch on the real
      CKKS schemes is evaluated member by member, returning the very
      handles the serial service would (see
      :func:`~repro.henn.inference.evaluate_batch`).
    * **Telemetry** — ``serving.*`` gauges/histograms plus the same
      ``henn.request.*`` lifecycle events and counters as the serial
      service, all visible on ``/metrics`` and ``/healthz``.

    Parameters
    ----------
    backend, layers, input_shape:
        As for :class:`CloudService`; *backend* is what the clients
        share.
    max_batch_slots:
        Slot capacity of one coalesced batch (default: the backend's
        ``max_batch``).
    max_wait_ms:
        Most latency a partial batch may add waiting for batchmates.
    max_queue_depth:
        Admission bound (requests) before overload rejections start.
    shed_policy:
        Optional :class:`~repro.serving.shedding.ShedPolicy` replacing
        the single hard queue bound with the tiered
        accept/defer/reject/shed ladder (see
        :mod:`repro.serving.shedding`); queue fill alone drives it here
        (the cluster gateway adds the worker pool's busy fraction).

    One lifecycle serves every gateway: ``submit`` admits, the
    scheduler fires :meth:`_run_batch`, which runs :meth:`_execute`
    (here: evaluate on this process's engine) and hands the outcome to
    :meth:`CloudService._settle`.  A subclass that evaluates elsewhere
    overrides :meth:`_execute` only.
    """

    def __init__(
        self,
        backend: HeBackend,
        layers: list[HeLayer],
        input_shape: tuple[int, int, int],
        *,
        max_batch_slots: int | None = None,
        max_wait_ms: float = 5.0,
        max_queue_depth: int = 64,
        shed_policy: ShedPolicy | None = None,
        trace_policy: SamplingPolicy | None = None,
    ):
        super().__init__(backend, layers, input_shape, trace_policy=trace_policy)
        self._expected_level = _obs_health._top_level(backend)
        self._expected_scale = float(backend.scale)
        self.scheduler = BatchingScheduler(
            self._run_batch,
            max_batch_slots=int(max_batch_slots or backend.max_batch),
            max_wait_ms=max_wait_ms,
            max_queue_depth=max_queue_depth,
            shed_policy=shed_policy,
        )

    # -- admission ----------------------------------------------------------------

    def _request_slots(self, encrypted_images: np.ndarray, count: int | None) -> int:
        """Slots a request claims: declared, or discovered from the mock
        handles (real ciphertexts hide their occupancy — that is the
        point of HE — so multi-image clients must declare)."""
        if count is not None:
            return int(count)
        cell = encrypted_images.reshape(-1)[0] if encrypted_images.size else None
        values = getattr(cell, "values", None)
        if values is not None:
            return int(np.asarray(values).shape[0])
        return 1

    def _validate_request(self, encrypted_images: object, count: int) -> np.ndarray:
        """Admission gate: shape/level/scale checks, *before* batching.

        Raises :class:`~repro.serving.errors.RequestValidationError`
        (index-only messages — never slot values) so one malformed or
        drifted request cannot poison its batchmates mid-batch.  A
        packed single-image request is admitted where the plan offers
        that layout, as the ``(T,)`` handles of its gather
        (:attr:`~repro.henn.inference.HeInferenceEngine.packed_input`)
        — a packed request of another ``T`` (a stale layout) is refused.
        """
        enc = np.asarray(encrypted_images, dtype=object)
        windows = self.engine.packed_input
        packed = windows is not None and enc.shape == (len(windows),) != tuple(
            self.engine.input_shape
        )
        if enc.shape != self.engine.input_shape and not packed:
            raise RequestValidationError(
                f"request shape {enc.shape} != expected {self.engine.input_shape}"
            )
        if packed and count != 1:
            raise RequestValidationError(f"a packed request carries one image, not {count}")
        if not 1 <= count <= self.scheduler.max_batch_slots:
            raise RequestValidationError(
                f"request claims {count} slots, capacity {self.scheduler.max_batch_slots}"
            )
        for i, cell in enumerate(enc.reshape(-1)):
            try:
                level = int(cell.level)
                scale = float(cell.scale)
            except Exception as exc:
                raise RequestValidationError(f"handle {i} is not a ciphertext") from exc
            if self._expected_level is not None and level != self._expected_level:
                raise RequestValidationError(
                    f"handle {i} at level {level}, expected {self._expected_level}"
                )
            if scale != self._expected_scale:
                raise RequestValidationError(f"handle {i} off the base scale")
            values = getattr(cell, "values", None)
            if values is not None and np.asarray(values).shape[0] != count:
                raise RequestValidationError(
                    f"handle {i} holds a different slot count than declared"
                )
        return enc

    def submit(self, encrypted_images: object, count: int | None = None) -> Future:
        """Non-blocking admission: returns a future of the
        :class:`CloudResponse`.

        Admission failures (validation, overload, shutdown) resolve the
        future immediately with the sanitised error response — callers
        never need to distinguish sync from async rejection.

        When request tracing is on, a :class:`TraceContext` is minted
        here (the ``gateway`` stage covers admission validation) and
        rides the scheduler payload; the trace is finished from the
        future's done-callback, after the scheduler has attributed the
        queue-wait and compute stages.
        """
        log = get_logger()
        reg = get_registry()
        rid = next(self._request_ids)
        ctx = self.rtrace.mint(rid)
        t_adm = time.perf_counter()
        try:
            enc = np.asarray(encrypted_images, dtype=object)
            slots = self._request_slots(enc, count)
            log.event("henn.request.start", request=rid, handles=int(enc.size))
            validated = self._validate_request(enc, slots)
            if ctx is not None:
                ctx.add_stage("gateway", t_adm, time.perf_counter())
            future = self.scheduler.submit((rid, validated, ctx), slots, trace=ctx)
            if ctx is not None:
                future.add_done_callback(lambda fut: self._finish_trace(ctx, fut))
            return future
        except Exception as exc:
            error = _sanitize(exc)
            reg.counter("henn.requests", {"outcome": "rejected"}).inc()
            self.rtrace.finish(ctx, "rejected", error_code=error.code)
            log.event("henn.request.rejected", request=rid, **_tags(error))
            future = Future()
            future.set_result(CloudResponse(ok=False, error=error))
            return future

    def _finish_trace(self, ctx: TraceContext, fut: Future) -> None:
        """Close one request's trace from its future's final state.

        Runs as a done-callback, i.e. *after* the scheduler recorded the
        queue-wait and compute stages — the last writer on every path
        (success, batch failure, drain timeout, shutdown).
        """
        try:
            self._close_trace(ctx, self._response(fut, timeout=0))
        except Exception:  # telemetry must never fail a served request
            get_registry().counter("rtrace.finish_errors").inc()

    @staticmethod
    def _response(future: Future, timeout: float) -> CloudResponse:
        """A request future's answer; scheduler faults, cancellation and
        timeouts come back sanitised like any other failure."""
        try:
            return future.result(timeout=timeout)
        except Exception as exc:
            return CloudResponse(ok=False, error=_sanitize(exc))

    # -- request path --------------------------------------------------------------

    def try_classify(self, encrypted_images: np.ndarray, count: int | None = None) -> CloudResponse:
        """Blocking classify through the batching queue.

        Same contract as :meth:`CloudService.try_classify` — the
        coalescing is invisible apart from the throughput — plus the
        ``overload`` rejection when the queue is full.
        """
        return self._response(self.submit(encrypted_images, count), REQUEST_TIMEOUT_S)

    def classify_encrypted(self, encrypted_images: np.ndarray) -> np.ndarray:
        """Single-request evaluation, routed through the batch path.

        The scheduler thread owns the engine (it is not re-entrant), so
        the inherited direct call is re-pointed at the queue; a failure
        raises :class:`~repro.resilience.errors.ProtocolError` carrying
        the sanitised error.
        """
        response = self.try_classify(encrypted_images)
        if not response.ok:
            raise ProtocolError(response.error, attempts=1)
        return response.scores

    def _run_batch(
        self, payloads: list, slots: list[int]
    ) -> "list[CloudResponse] | Future":
        """Scheduler callback: :meth:`_execute` the batch, settle its outcome.

        Runs on the single scheduler worker thread.  When
        :meth:`_execute` answers with a future, the responses settle
        from its completion and this returns a future of them — the
        scheduler's pipelined mode, which fires the next batch at once.
        """
        rids, requests, ctxs = (list(column) for column in zip(*payloads))
        t0 = time.perf_counter()
        try:
            outcome = self._execute(requests, slots, ctxs)
        except Exception as exc:
            outcome = exc
        if not isinstance(outcome, Future):
            return self._settle(rids, time.perf_counter() - t0, outcome)
        settled: Future = Future()

        def settle(fut: Future) -> None:
            if fut.cancelled():
                result = SchedulerClosedError("dispatch cancelled during shutdown")
            elif fut.exception() is not None:
                result = fut.exception()
            else:
                result = fut.result()
            settled.set_result(self._settle(rids, time.perf_counter() - t0, result))

        outcome.add_done_callback(settle)
        return settled

    def _execute(
        self, requests: list, counts: list[int], ctxs: list
    ) -> "list[np.ndarray] | Future":
        """Evaluate one fired batch: per-request scores, or a future of them.

        Here on this process's engine (never concurrently — one
        scheduler thread), pack and split (where slots are shared)
        attributed to every member's trace; the scheduler clocks
        ``compute`` around the whole call.
        """
        return evaluate_batch(
            self.engine,
            requests,
            counts,
            lambda phase: nullcontext() if phase == "evaluate" else batch_stage(ctxs, phase),
        )

    # -- lifecycle -----------------------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Drain (default) or abort the queue, then stop scrapes.

        The drain is bounded: past *timeout* seconds still-pending
        futures fail with the retryable
        :class:`~repro.serving.errors.DrainTimeoutError` (see
        :meth:`BatchingScheduler.close`).
        """
        self.scheduler.close(drain=drain, timeout=timeout)
        self.stop_observability()

    def __enter__(self) -> "BatchedCloudService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _health(self) -> dict:
        status = super()._health()
        status["serving"] = self.scheduler.stats()
        # Padding-waste visibility: cumulative slot accounting of every
        # batch this process assembled into shared slots (see
        # BatchLayout.record; all zero under the per-request strategy).
        snap = get_registry().snapshot()
        status["packing"] = {
            "strategy": "slots" if self.engine.backend.native_slot_concat else "per-request",
            **{
                key: int(snap.get(f"serving.pack.{key}", {}).get("value", 0))
                for key in ("batches", "requests", "slots", "pad_slots")
            },
        }
        return status


def _worker_engine(
    backend: HeBackend,
    layers: list[HeLayer],
    input_shape: tuple[int, int, int],
) -> HeInferenceEngine:
    """Rebuilds the gateway's engine inside a cluster worker child.

    Fork inheritance carries the backend (same key material the clients
    encrypted against); the plan is recompiled per worker — that compile
    *is* the warm-up the pool's ``warming`` state covers.  On CKKS /
    CKKS-RNS the fork also carries the parent plan's cache as the
    context's ``plain_cache``, which :func:`~repro.henn.plan.compile_plan`
    adopts, so the runtime plaintexts the gateway already encoded
    (biases, SLAF constants) are hits on pages shared copy-on-write with
    it; the taps themselves are only quantized, never encoded.
    """
    return HeInferenceEngine(backend, layers, input_shape)


class ClusteredCloudService(BatchedCloudService):
    """Multi-worker serving gateway: the batching queue feeds a pool.

    Same trust boundary, admission checks and sanitised error vocabulary
    as :class:`BatchedCloudService`; the difference is what happens
    after a batch fires.  Instead of evaluating on the scheduler thread,
    :meth:`_execute` hands the batch to a
    :class:`~repro.serving.cluster.Dispatcher` over a
    :class:`~repro.serving.cluster.WorkerPool` of process-backed
    engines and returns its future — the scheduler's pipelined mode —
    so one gateway keeps all N workers busy at once.  Workers are
    forked after the gateway's plan is compiled and warm up from the
    cache they inherit; construction blocks until every worker is ready.

    Robustness contract (the point of the cluster):

    * A worker killed mid-batch never drops a future: the dispatcher
      requeues the orphaned batch onto a survivor within a bounded
      retry budget, while the pool respawns and re-warms the dead
      worker in the background.
    * Whole-pool loss (every worker dead with its respawn budget,
      :data:`~repro.serving.cluster.RESPAWN_MAX_ATTEMPTS`, spent)
      degrades to serial in-process evaluation on the gateway's own
      engine.
    * Overload is shed in tiers (:class:`ShedPolicy`, on by default
      here) driven by queue depth *and* pool saturation.
    * ``/healthz`` reports pool size, per-worker state
      (warming/ready/dead/respawning), health and in-flight counts,
      plus the current shed tier.

    Parameters (beyond :class:`BatchedCloudService`)
    ------------------------------------------------
    workers:
        Pool size (process-backed engine workers).
    fault_injector:
        Seeded :class:`~repro.resilience.FaultInjector` armed with
        ``kill_cluster_worker`` for failover tests.
    """

    def __init__(
        self,
        backend: HeBackend,
        layers: list[HeLayer],
        input_shape: tuple[int, int, int],
        *,
        workers: int = 3,
        fault_injector: object | None = None,
        shed_policy: ShedPolicy | None = None,
        **batched_kwargs: object,
    ):
        super().__init__(
            backend,
            layers,
            input_shape,
            shed_policy=shed_policy or ShedPolicy(),
            **batched_kwargs,  # type: ignore[arg-type]
        )
        self._serial_lock = threading.Lock()
        self.pool = WorkerPool(
            functools.partial(_worker_engine, self.engine.backend, layers, input_shape),
            workers,
            fault_injector=fault_injector,
        ).start()
        self.dispatcher = Dispatcher(self.pool, self._serial_fallback)
        # The shed ladder sees the pool's busy fraction from here on
        # (admission only starts once the constructor returns).
        self.scheduler.saturation_fn = self.pool.saturation
        self.pool.wait_ready(timeout=SPAWN_TIMEOUT_S)

    def _serial_fallback(self, requests: list, slots: list[int]) -> list:
        """Whole-pool-loss degradation: evaluate on the gateway's engine.

        Serialised by a lock — failover threads may race here, and the
        engine is not re-entrant.  Slow, but alive: exactly the PR 5
        single-engine behaviour the cluster normally improves on.
        """
        with self._serial_lock:
            return evaluate_batch(self.engine, requests, slots)

    def _execute(self, requests: list, counts: list[int], ctxs: list) -> Future:
        """Dispatch to the pool; the future pipelines the scheduler, which
        fires the next batch once this one is assigned — that is what
        spreads consecutive batches across the workers."""
        return self.dispatcher.dispatch(requests, counts, traces=ctxs)

    # -- lifecycle / health ----------------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Drain the queue through the pool, then tear the pool down."""
        super().close(drain=drain, timeout=timeout)
        self.pool.close()

    def _health(self) -> dict:
        status = super()._health()
        tier_value = get_registry().gauge("serving.shed.tier").value
        status["cluster"] = {
            **self.pool.stats(),
            "degraded_serial": self.dispatcher.degraded,
            "shed_tier": (
                "accept" if math.isnan(tier_value) else SHED_TIERS[int(tier_value)]
            ),
        }
        return status
