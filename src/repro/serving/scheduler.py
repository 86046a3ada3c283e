"""Slot-packed coalescing scheduler: Triton/TF-Serving-style batching.

A CKKS classification costs nearly the same wall-clock whether one or
all of the ciphertext's SIMD slots are filled, so serving throughput is
won by *coalescing*: independent requests claim slots of one batch and
the engine runs once.  :class:`BatchingScheduler` implements the
generic half of that bargain, with no knowledge of HE:

* ``submit(payload, slots)`` enqueues a request and returns a
  :class:`concurrent.futures.Future`; admission is bounded by
  ``max_queue_depth`` and over-capacity submits raise the retryable
  :class:`~repro.serving.errors.ServiceOverloadedError` (backpressure,
  never silent queueing without bound).  An optional
  :class:`~repro.serving.shedding.ShedPolicy` grades that response into
  the accept / defer / reject / shed ladder, fed by queue fill and the
  ``saturation_fn`` attribute (a pool-saturation callback the cluster
  gateway installs).
* A single worker thread fires a batch when either the pending prefix
  fills ``max_batch_slots`` (or the next request no longer fits), or
  the *oldest* pending request has waited ``max_wait_ms`` — the classic
  fill-or-deadline policy.  While the worker is busy evaluating one
  batch, new arrivals accumulate, so the batch size adapts to offered
  load by itself.
* ``process_batch(payloads, slots)`` — the owner's callback — returns
  one result per request (an exception instance fails just that
  request); the scheduler distributes results to the futures.  When the
  callback instead returns a :class:`~concurrent.futures.Future` of the
  results (a dispatcher shipping the batch to a worker pool), the
  scheduler registers a completion callback and immediately moves on to
  the next batch — that *pipelined* mode is what lets one scheduler
  keep N cluster workers busy at once.  Every admitted future is
  resolved on every path, including worker faults and shutdown: the
  scheduler never deadlocks a waiting client.

Telemetry (:mod:`repro.obs.metrics`): ``serving.queue.depth``,
``serving.slot_utilization`` and ``serving.shed.tier`` gauges,
``serving.batch.size`` / ``serving.batch.slots`` /
``serving.batch.wait_seconds`` histograms, the outcome-labelled
``serving.batch.compute_seconds`` histogram (failed-batch latency in
its own series), the ``serving.requests`` outcome-labelled counter and
the ``serving.shed.*`` shedding counters, all exported through the
existing Prometheus path.  Per-request attribution (queue wait and
compute stages of one particular request) flows through the optional
``trace`` context accepted by :meth:`BatchingScheduler.submit`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs.metrics import get_registry
from repro.serving import shedding
from repro.serving.errors import (
    DrainTimeoutError,
    SchedulerClosedError,
    ServiceOverloadedError,
    ServiceShedError,
)

__all__ = ["BatchingScheduler"]

#: Name prefix of the batcher thread.
SCHEDULER_NAME = "henn-serving"


@dataclass
class _Pending:
    """One admitted request waiting for a batch slot."""

    payload: Any
    slots: int
    future: Future
    enqueued_at: float
    #: Shedding deadline of a tier-``defer`` admission (None = firm).
    shed_deadline: float | None = None
    #: Optional request-trace context (duck-typed: anything with
    #: ``add_stage(name, start, end, **tags)``); the scheduler records
    #: per-request ``queue_wait`` and ``compute`` stages into it.
    trace: Any | None = None
    #: ``perf_counter`` at admission, clocking the queue-wait stage.
    enqueued_pc: float = 0.0


def _resolve(future: Future, result: Any = None, error: BaseException | None = None) -> None:
    """Resolve a future exactly once; later resolutions are no-ops.

    Pipelined dispatch and shutdown race by design (a drain timeout may
    fail a future the dispatcher resolves a moment later); losing that
    race must never crash either side.
    """
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


class BatchingScheduler:
    """Bounded-queue request coalescer with a fill-or-deadline worker.

    Parameters
    ----------
    process_batch:
        ``(payloads, slots) -> results`` callback evaluating one fired
        batch; must return one result per payload, in order.  A result
        that is an exception instance fails only its own request; a
        raised exception fails the whole batch (every future gets it).
        Returning a :class:`~concurrent.futures.Future` of the results
        switches that batch to pipelined mode: the scheduler fires the
        next batch without waiting, and distributes this batch's results
        when the future completes.
    max_batch_slots:
        Slot capacity of one batch (for the HE gateway: the backend's
        SIMD slot count).  A batch fires early once its pending prefix
        can grow no further.
    max_wait_ms:
        Deadline of the *oldest* pending request: a partial batch fires
        at most this long after its first request was admitted.  ``0``
        fires immediately with whatever accumulated while the worker
        was busy (pure adaptive batching, minimal added latency).
    max_queue_depth:
        Admission bound (in requests).  Submits beyond it raise
        :class:`ServiceOverloadedError` — backpressure the client can
        retry on.
    shed_policy:
        Optional :class:`~repro.serving.shedding.ShedPolicy` grading
        admission into the accept/defer/reject/shed tiers.  Without
        one, only the hard ``max_queue_depth`` bound applies (the PR 5
        behaviour).
    start:
        Start the worker thread immediately (tests may defer).

    The :attr:`saturation_fn` attribute is ``None`` (queue fill alone
    drives the tiers) until an owner with a worker pool sets it to a
    zero-argument callable reporting the pool's busy fraction in
    ``[0, 1]``, which advances the shedding ladder.
    """

    def __init__(
        self,
        process_batch: Callable[[list[Any], list[int]], Sequence[Any]],
        *,
        max_batch_slots: int,
        max_wait_ms: float = 5.0,
        max_queue_depth: int = 64,
        shed_policy: shedding.ShedPolicy | None = None,
        start: bool = True,
    ):
        if max_batch_slots < 1:
            raise ValueError("max_batch_slots must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self._process_batch = process_batch
        self.max_batch_slots = int(max_batch_slots)
        self.max_wait = float(max_wait_ms) / 1e3
        self.max_queue_depth = int(max_queue_depth)
        self.shed_policy = shed_policy
        self.saturation_fn: Callable[[], float] | None = None
        self._queue: deque[_Pending] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._batches = 0
        self._completed = 0
        self._rejected = 0
        self._shed_expired = 0
        self._last_utilization = 0.0
        #: Batches handed to a pipelined dispatcher, not yet distributed.
        self._inflight: dict[Future, list[_Pending]] = {}
        #: Batch currently inside a synchronous process_batch call.
        self._firing: list[_Pending] = []
        self._worker = threading.Thread(
            target=self._loop, name=f"{SCHEDULER_NAME}-batcher", daemon=True
        )
        if start:
            self._worker.start()

    # -- admission ---------------------------------------------------------------

    def _saturation(self) -> float:
        if self.saturation_fn is None:
            return 0.0
        try:
            return float(self.saturation_fn())
        except Exception:  # a sick pool must not break admission
            return 1.0

    def _admission_tier(self, depth: int) -> str:
        """Shedding tier of one admission attempt (under the lock)."""
        if self.shed_policy is None:
            return "reject" if depth >= self.max_queue_depth else "accept"
        if depth >= self.max_queue_depth:
            return "shed"
        return self.shed_policy.tier(depth, self.max_queue_depth, self._saturation())

    def submit(self, payload: Any, slots: int = 1, trace: Any | None = None) -> Future:
        """Enqueue one request claiming *slots*; returns its future.

        *trace* optionally attaches a request-trace context (an object
        with ``add_stage(name, start, end, **tags)``, e.g. a
        :class:`~repro.obs.rtrace.TraceContext`): the scheduler then
        attributes this request's queue wait and batch compute time to
        it.  ``None`` (the default) keeps the hot path trace-free.

        Raises
        ------
        ValueError
            *slots* is not in ``1..max_batch_slots`` (can never fit).
        SchedulerClosedError
            The scheduler is shut down.
        ServiceOverloadedError
            The queue is at capacity, or the shed policy's ``reject``
            tier fired (backpressure; retry with backoff).
        ServiceShedError
            The shed policy's hard tier fired — do not retry here.
        """
        slots = int(slots)
        if not 1 <= slots <= self.max_batch_slots:
            raise ValueError(
                f"request claims {slots} slots, capacity is {self.max_batch_slots}"
            )
        reg = get_registry()
        with self._cond:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            tier = self._admission_tier(len(self._queue))
            reg.gauge("serving.shed.tier").set(shedding.SHED_TIERS.index(tier))
            if tier in ("reject", "shed"):
                self._rejected += 1
                reg.counter("serving.requests", {"outcome": "rejected"}).inc()
                if tier == "shed":
                    reg.counter("serving.shed.hard").inc()
                    raise ServiceShedError(
                        "service saturated beyond the retryable tier"
                    )
                reg.counter("serving.shed.rejected").inc()
                raise ServiceOverloadedError(
                    f"queue at capacity ({self.max_queue_depth} requests)"
                )
            now = time.monotonic()
            deadline = None
            if tier == "defer":
                deadline = now + shedding.DEFER_DEADLINE_S
                reg.counter("serving.shed.deferred").inc()
            future: Future = Future()
            self._queue.append(
                _Pending(
                    payload,
                    slots,
                    future,
                    now,
                    deadline,
                    trace=trace,
                    enqueued_pc=time.perf_counter() if trace is not None else 0.0,
                )
            )
            reg.gauge("serving.queue.depth").set(len(self._queue))
            self._cond.notify_all()
            return future

    # -- worker ------------------------------------------------------------------

    def _expire_deferred(self, now: float) -> None:
        """Fail deferred requests whose shedding deadline passed (locked).

        A deferred admission promised "we will evaluate you soon, or
        tell you to retry elsewhere" — this is the second half.  The
        error is the *retryable* overload, matching the promise.
        """
        if not any(p.shed_deadline is not None for p in self._queue):
            return
        kept: deque[_Pending] = deque()
        expired: list[_Pending] = []
        for pending in self._queue:
            if pending.shed_deadline is not None and now >= pending.shed_deadline:
                expired.append(pending)
            else:
                kept.append(pending)
        if not expired:
            return
        self._queue = kept
        reg = get_registry()
        reg.gauge("serving.queue.depth").set(len(self._queue))
        for pending in expired:
            self._shed_expired += 1
            reg.counter("serving.shed.expired").inc()
            reg.counter("serving.requests", {"outcome": "rejected"}).inc()
            if pending.future.set_running_or_notify_cancel():
                _resolve(
                    pending.future,
                    error=ServiceOverloadedError(
                        "deferred request expired before a batch could take it"
                    ),
                )

    def _fillable(self) -> tuple[list[_Pending], int, bool]:
        """Greedy FIFO prefix that fits the slot budget (under the lock).

        Returns ``(prefix, slots, blocked)`` where *blocked* means a
        queued request exists beyond the prefix — the batch cannot grow
        further, so waiting for the deadline would only add latency.
        """
        batch: list[_Pending] = []
        slots = 0
        for pending in self._queue:
            if slots + pending.slots > self.max_batch_slots:
                return batch, slots, True
            batch.append(pending)
            slots += pending.slots
        return batch, slots, False

    def _next_batch(self) -> list[_Pending] | None:
        """Block until a batch should fire; ``None`` means shut down."""
        with self._cond:
            while True:
                if not self._queue:
                    if self._closed:
                        return None
                    self._cond.wait()
                    continue
                now = time.monotonic()
                self._expire_deferred(now)
                if not self._queue:
                    continue
                deadline = self._queue[0].enqueued_at + self.max_wait
                batch, slots, blocked = self._fillable()
                full = slots >= self.max_batch_slots
                if self._closed or full or blocked or now >= deadline:
                    for _ in batch:
                        self._queue.popleft()
                    get_registry().gauge("serving.queue.depth").set(len(self._queue))
                    live = [p for p in batch if p.future.set_running_or_notify_cancel()]
                    if live:
                        return live
                    continue  # everything in the prefix was cancelled
                self._cond.wait(timeout=deadline - now)

    def _loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._fire(batch)

    def _fire(self, batch: list[_Pending]) -> None:
        reg = get_registry()
        now = time.monotonic()
        slots = sum(p.slots for p in batch)
        utilization = slots / self.max_batch_slots
        reg.histogram("serving.batch.size").observe(len(batch))
        reg.histogram("serving.batch.slots").observe(slots)
        reg.histogram("serving.batch.wait_seconds").observe_many(
            now - p.enqueued_at for p in batch
        )
        reg.gauge("serving.slot_utilization").set(utilization)
        t0 = time.perf_counter()
        for p in batch:
            if p.trace is not None:
                p.trace.add_stage("queue_wait", p.enqueued_pc, t0)
        error: BaseException | None = None
        results: Any = None
        with self._cond:
            self._firing = list(batch)
        try:
            results = self._process_batch(
                [p.payload for p in batch], [p.slots for p in batch]
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to the futures
            error = exc
        finally:
            with self._cond:
                self._firing = []
        if error is None and isinstance(results, Future):
            # Pipelined mode: the dispatcher owns the evaluation; track
            # the batch so shutdown can fail it if the pool never
            # answers, and move straight on to the next batch.
            with self._cond:
                self._inflight[results] = batch
                self._last_utilization = utilization
            results.add_done_callback(
                lambda fut, b=batch, t=t0: self._on_dispatched(fut, b, t)
            )
            return
        self._observe_compute(batch, t0, error)
        self._distribute(batch, results, error, utilization)

    def _observe_compute(
        self, batch: list[_Pending], t0: float, error: BaseException | None
    ) -> None:
        """Batch compute time: outcome-labelled histogram + trace stages.

        The ``outcome`` label keeps failed-batch latency out of the
        success compute series (a fast-failing pool would otherwise
        drag the apparent compute p50 down).
        """
        t1 = time.perf_counter()
        outcome = "ok" if error is None else "error"
        get_registry().histogram(
            "serving.batch.compute_seconds", {"outcome": outcome}
        ).observe(t1 - t0)
        for p in batch:
            if p.trace is not None:
                p.trace.add_stage("compute", t0, t1, outcome=outcome)

    def _on_dispatched(self, fut: Future, batch: list[_Pending], t0: float) -> None:
        """Completion callback of a pipelined batch (dispatcher thread)."""
        with self._cond:
            if self._inflight.pop(fut, None) is None:
                return  # shutdown already failed this batch
        error: BaseException | None = None
        results: Sequence[Any] | None = None
        if fut.cancelled():
            error = SchedulerClosedError("dispatch cancelled during shutdown")
        elif fut.exception() is not None:
            error = fut.exception()
        else:
            results = fut.result()
        self._observe_compute(batch, t0, error)
        self._distribute(batch, results, error, self._last_utilization)

    def _distribute(
        self,
        batch: list[_Pending],
        results: Sequence[Any] | None,
        error: BaseException | None,
        utilization: float,
    ) -> None:
        """Hand one batch's results (or its shared failure) to the futures."""
        if error is None and (results is None or len(results) != len(batch)):
            error = RuntimeError(
                f"process_batch returned {0 if results is None else len(results)} "
                f"results for {len(batch)} requests"
            )
        for i, pending in enumerate(batch):
            if error is not None:
                _resolve(pending.future, error=error)
            elif isinstance(results[i], BaseException):
                _resolve(pending.future, error=results[i])
            else:
                _resolve(pending.future, results[i])
        with self._cond:
            self._batches += 1
            self._completed += len(batch)
            self._last_utilization = utilization
            self._cond.notify_all()

    # -- lifecycle / introspection -----------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Shut down the worker; idempotent.

        With ``drain=True`` (default) every pending request is still
        evaluated (the worker fires residual batches until the queue is
        empty, ignoring the deadline), bounded by *timeout* seconds:
        when the budget elapses — a wedged pool, a stuck callback — all
        still-unresolved futures fail with the **retryable**
        :class:`~repro.serving.errors.DrainTimeoutError` instead of
        leaving callers blocked.  With ``drain=False`` pending futures
        fail with :class:`SchedulerClosedError` immediately.  Either
        way no future is ever left unresolved past the timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._closed = True
            if not drain:
                while self._queue:
                    pending = self._queue.popleft()
                    if pending.future.set_running_or_notify_cancel():
                        _resolve(
                            pending.future,
                            error=SchedulerClosedError(
                                "scheduler closed before evaluation"
                            ),
                        )
                for batch in self._inflight.values():
                    for pending in batch:
                        _resolve(
                            pending.future,
                            error=SchedulerClosedError(
                                "scheduler closed before evaluation"
                            ),
                        )
                self._inflight.clear()
            self._cond.notify_all()
        if self._worker.is_alive():
            self._worker.join(
                timeout=None if deadline is None else max(0.0, deadline - time.monotonic())
            )
        if drain:
            # Wait out pipelined batches still with the dispatcher.
            with self._cond:
                while self._queue or self._inflight or self._firing:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        break
                    if not self._cond.wait(timeout=remaining):
                        break
                stranded = list(self._queue)
                self._queue.clear()
                for batch in self._inflight.values():
                    stranded.extend(batch)
                self._inflight.clear()
                stranded.extend(self._firing)
                get_registry().gauge("serving.queue.depth").set(0)
            for pending in stranded:
                fut = pending.future
                # Queued futures are still PENDING; batch futures are
                # already RUNNING — only the former need the transition.
                if not fut.running() and not fut.done():
                    if not fut.set_running_or_notify_cancel():
                        continue  # cancelled by the caller: already resolved
                if not fut.done():
                    _resolve(
                        fut,
                        error=DrainTimeoutError(
                            "shutdown drain timed out before evaluation"
                        ),
                    )

    def __enter__(self) -> "BatchingScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def queue_depth(self) -> int:
        """Requests currently admitted but not yet fired."""
        with self._cond:
            return len(self._queue)

    def stats(self) -> dict[str, Any]:
        """Counters for health endpoints: batches, sizes, rejections."""
        with self._cond:
            batches = self._batches
            completed = self._completed
            return {
                "queue_depth": len(self._queue),
                "inflight_batches": len(self._inflight),
                "batches": batches,
                "requests_completed": completed,
                "requests_rejected": self._rejected,
                "requests_shed_expired": self._shed_expired,
                "mean_batch_size": (completed / batches) if batches else 0.0,
                "last_slot_utilization": self._last_utilization,
                "max_batch_slots": self.max_batch_slots,
                "max_wait_ms": self.max_wait * 1e3,
                "shed_tiers": self.shed_policy is not None,
                "closed": self._closed,
            }
