"""Multi-worker serving cluster: pool, health-weighted dispatch, failover.

PR 5's gateway coalesces requests but still evaluates every batch on a
single in-process engine — one stuck or crashed engine takes the whole
service down.  This module puts a pool of **process-backed engine
workers** behind the :class:`~repro.serving.scheduler.BatchingScheduler`:

* :class:`WorkerPool` owns N engine workers.  Each worker is a forked
  process that builds its engine on spawn (plan compile = warm-up,
  against whatever plaintext cache the fork inherited from the
  parent's backend), answers batches over a duplex pipe, and reports
  liveness through heartbeat pings.  The pool watches
  every worker two ways — a receiver thread per pipe (broken pipe /
  EOF = death) and a heartbeat thread (``is_alive`` + idle pings) — and
  respawns dead workers in the background.
* :class:`Dispatcher` routes each coalesced batch to a worker chosen by
  **health-weighted load balancing**: a worker holds one batch at a
  time, and among the idle ready workers the highest health wins,
  where health decays with recent faults and recovers with successful
  batches (exported as ``cluster.worker.health`` gauges).
  Robustness is the contract: a worker killed mid-batch never drops a
  future — the in-flight batch is requeued onto a survivor with a
  bounded retry budget (:data:`FAILOVER_MAX_RETRIES` attempts with
  seeded exponential backoff), and if the *whole* pool
  is lost the dispatcher degrades to serial in-process evaluation
  through the owner's fallback callable.

Everything observable lands in the process registry: ``cluster.*``
counters (dispatches, failovers, respawns, worker deaths, serial
degradations, heartbeat kills), per-worker gauges (state, health,
inflight) and the ``cluster.batch.seconds`` histogram — all scraped
through the existing Prometheus path and summarised on ``/healthz`` by
:class:`~repro.henn.protocol.ClusteredCloudService`.  Worker-side
telemetry ships home too: every batch reply carries the child's
:meth:`~repro.obs.metrics.MetricsRegistry.to_delta` document, which the
receiver :meth:`~repro.obs.metrics.MetricsRegistry.merge_delta`-folds
into the gateway totals — so ``/metrics`` reflects worker-side
NTT/keyswitch/plan-cache counters —
and a batch holding sampled request traces additionally ships the
worker's finished spans for the gateway to merge into the per-request
cross-process traces (:mod:`repro.obs.rtrace`).

Fault injection: arm a seeded
:class:`~repro.resilience.FaultInjector` with
:meth:`~repro.resilience.FaultInjector.kill_cluster_worker` and pass it
to the pool — the chosen worker SIGKILLs itself at the start of its
n-th batch, which is exactly the mid-batch death the failover tests and
``tools/ci_cluster_smoke.py`` count-assert recovery from.
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Sequence

try:  # pragma: no cover - platform guard
    import multiprocessing as _mp
except ImportError:  # pragma: no cover
    _mp = None  # type: ignore[assignment]

from repro.obs.metrics import get_registry
from repro.serving.errors import (
    ClusterUnavailableError,
    SchedulerClosedError,
    ServiceOverloadedError,
    WorkerLostError,
)
from repro.serving.scheduler import _resolve

__all__ = [
    "WorkerPool",
    "Dispatcher",
    "ClusterWorker",
    "WORKER_STATES",
]

#: Worker lifecycle states, in the order the failover machine walks them.
WORKER_STATES = ("warming", "ready", "dead", "respawning")

#: Liveness cadence: every interval the monitor checks ``Process.is_alive``
#: and pings *idle* workers; an idle worker whose pong is overdue by the
#: timeout is SIGKILLed and treated as dead (a hung worker is as lost as
#: a crashed one).
HEARTBEAT_INTERVAL_S = 0.25
HEARTBEAT_TIMEOUT_S = 10.0
#: Budget for one worker to report ready before its spawn counts as failed.
SPAWN_TIMEOUT_S = 120.0
#: Spawn attempts per death before that slot is abandoned; when every
#: slot is abandoned the pool reports itself lost.  A child that dies
#: before it reports ready uses up the attempt that spawned it.
RESPAWN_MAX_ATTEMPTS = 3
#: Name prefix of the pool's worker processes and watcher threads.
POOL_NAME = "henn-cluster"
#: Longest one batch may wait for a free worker before the dispatcher
#: answers with retryable overload backpressure.
DISPATCH_TIMEOUT_S = 60.0
#: Failover budget: extra dispatch attempts per batch after worker losses.
FAILOVER_MAX_RETRIES = 2
#: Backoff before failover attempt ``a``:
#: ``min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2**(a-1))``, scaled by a jitter
#: of ``1 ± BACKOFF_JITTER`` drawn from an RNG seeded with 0.
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0
BACKOFF_JITTER = 0.1


def _count(event: str, n: int = 1) -> None:
    get_registry().counter(f"cluster.{event}").inc(n)


def _backoff_delay(attempt: int, rng: random.Random) -> float:
    """Sleep before failover *attempt* (1-based), jittered deterministically."""
    base = min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2.0 ** (attempt - 1))
    return base * (1.0 + BACKOFF_JITTER * rng.uniform(-1.0, 1.0))


# ------------------------------------------------------------------ worker child


def _worker_main(index: int, conn: Any, engine_factory: Callable[[], Any],
                 kill_batches: Sequence[int]) -> None:
    """Child-process loop: build engine, answer batches until stopped.

    First act: install a *fresh* metrics registry and RNG-free state so
    a lock the parent held at fork time can never deadlock the child.
    The engine build (plan compile against the inherited cache) is the
    per-worker warm-up; ``("ready", ...)`` is only sent once it is done,
    so the pool's ``warming`` state covers the whole expensive part.

    Every batch reply carries the worker's metric delta for that batch
    (the registry is swapped fresh after each send, so deltas stay small
    and merge cleanly parent-side; the first one also carries the
    warm-up metrics).  When the batch message flags sampled request
    traces, the worker additionally activates a fresh
    :class:`~repro.obs.tracer.Tracer` around the evaluation — the
    engine's internal ``henn.*``/``ckksrns.*`` spans land under
    ``rtrace.worker.*`` phase spans — and ships the finished spans back
    with the result for the gateway to merge into the request traces.
    """
    from repro.henn.inference import evaluate_batch
    from repro.obs import metrics as _metrics
    from repro.obs import tracer as _tracer

    _metrics.set_registry(_metrics.MetricsRegistry())
    try:
        engine = engine_factory()
    except BaseException as exc:  # noqa: BLE001 - reported, then exit
        try:
            conn.send(("spawn_error", None, RuntimeError(type(exc).__name__)))
        except Exception:
            pass
        return
    try:
        conn.send(("ready", None, os.getpid()))
    except Exception:
        return

    def take_delta() -> dict:
        delta = _metrics.get_registry().to_delta()
        _metrics.set_registry(_metrics.MetricsRegistry())
        return delta

    batches = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        kind, job_id, payload = msg
        if kind == "stop":
            return
        if kind == "ping":
            try:
                conn.send(("pong", job_id, None))
            except Exception:
                return
            continue
        batches += 1
        if batches in kill_batches:
            # Seeded mid-batch death: the job was received but will
            # never be answered — exactly what failover must absorb.
            os.kill(os.getpid(), signal.SIGKILL)
        requests, slots, sampled = payload
        tracer: Any = None
        prev_tracer: Any = None
        stage = None
        if sampled:
            tracer = _tracer.Tracer()
            prev_tracer = _tracer.set_tracer(tracer)
            stage = lambda phase: tracer.span(  # noqa: E731 - this batch's phases only
                f"rtrace.worker.{phase}", batch=len(requests)
            )
        t0 = time.perf_counter()
        try:
            per_request = evaluate_batch(engine, requests, slots, stage)
            seconds = time.perf_counter() - t0
            span_dicts = (
                [s.to_dict() for s in tracer.finished()] if tracer is not None else []
            )
            reply = ("result", job_id, (per_request, seconds, take_delta(), span_dicts))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            delta = take_delta()
            try:
                reply = ("error", job_id, (exc, delta))
                conn.send(reply)
                continue
            except Exception:
                reply = (
                    "error",
                    job_id,
                    (RuntimeError(f"{type(exc).__name__} (unpicklable)"), delta),
                )
        finally:
            if tracer is not None:
                _tracer.set_tracer(prev_tracer)
        try:
            conn.send(reply)
        except Exception:
            return


class _Job:
    """One dispatched batch: payload + the future the dispatcher returned."""

    __slots__ = (
        "job_id",
        "requests",
        "slots",
        "traces",
        "future",
        "attempts",
        "created_at",
    )

    def __init__(
        self,
        job_id: int,
        requests: Sequence[Any],
        slots: Sequence[int],
        traces: Sequence[Any] | None = None,
    ):
        self.job_id = job_id
        self.requests = requests
        self.slots = list(slots)
        #: Per-request trace contexts (same order as *requests*; members
        #: may be ``None``).  Sampled members receive the worker's
        #: shipped spans when the result arrives.
        self.traces: list[Any] = list(traces) if traces is not None else []
        self.future: Future = Future()
        self.future.set_running_or_notify_cancel()
        self.attempts = 0
        self.created_at = time.monotonic()

    @property
    def sampled(self) -> bool:
        """Whether any member wants worker-side spans shipped back."""
        return any(getattr(ctx, "sampled", False) for ctx in self.traces if ctx is not None)


class ClusterWorker:
    """Parent-side handle of one engine worker process."""

    def __init__(self, index: int):
        self.index = index
        self.generation = 0
        self.proc: Any = None
        self.conn: Any = None
        self.state = "warming"
        self.pid: int | None = None
        self.send_lock = threading.Lock()
        self.inflight: dict[int, _Job] = {}
        self.batches = 0
        self.faults = 0.0  # decays on success, bumps on death/error
        self.ewma_seconds = 0.0
        self.spawned_at = 0.0
        self.ready_at = 0.0
        self.ping_sent: float | None = None
        self.last_pong = 0.0

    # -- health-weighted balancing -------------------------------------------------

    def health(self) -> float:
        """Dispatch weight in ``(0, 1]``: 1 = pristine, decays with faults."""
        return 1.0 / (1.0 + self.faults)

    def describe(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "state": self.state,
            "pid": self.pid,
            "generation": self.generation,
            "inflight": len(self.inflight),
            "batches": self.batches,
            "health": round(self.health(), 4),
            "ewma_batch_seconds": round(self.ewma_seconds, 6),
        }


class WorkerPool:
    """N process-backed engine workers with spawn/respawn lifecycle.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable building the worker's
        :class:`~repro.henn.inference.HeInferenceEngine`; runs in the
        child after fork (closures over the parent's backend are fine —
        fork inheritance carries the key material).
    size:
        Worker count; each worker holds at most one batch.
    fault_injector:
        Optional seeded :class:`~repro.resilience.FaultInjector` (armed
        via ``kill_cluster_worker``); consulted parent-side at every
        (re)spawn, handing matching armed kills to the child as an
        explicit SIGKILL schedule.
    """

    def __init__(
        self,
        engine_factory: Callable[[], Any],
        size: int = 3,
        *,
        fault_injector: Any | None = None,
    ):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.engine_factory = engine_factory
        self.size = int(size)
        self.fault_injector = fault_injector
        self.cond = threading.Condition()
        self.workers = [ClusterWorker(i) for i in range(self.size)]
        self._closed = False
        self._abandoned: set[int] = set()
        #: Slots a respawn loop owns; a death there fails the loop's attempt.
        self._respawning: set[int] = set()
        self._respawns = 0
        self._deaths = 0
        #: Dispatcher callback for jobs orphaned by a worker death.
        self.on_job_orphaned: Callable[[_Job], None] | None = None
        self._ctx = None
        if _mp is not None:
            try:
                self._ctx = _mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX
                self._ctx = _mp.get_context()
        self._recv_threads: dict[int, threading.Thread] = {}
        self._monitor = threading.Thread(
            target=self._heartbeat_loop, name=f"{POOL_NAME}-heartbeat", daemon=True
        )

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn every worker and start the heartbeat monitor."""
        for worker in self.workers:
            self._spawn(worker)
        self._monitor.start()
        get_registry().gauge("cluster.pool.size").set(self.size)
        return self

    def _spawn(self, worker: ClusterWorker) -> None:
        """Fork one worker (caller ensures the slot is free); may raise."""
        if self._ctx is None:
            raise ClusterUnavailableError("multiprocessing unavailable")
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        kill_batches: list[int] = []
        if self.fault_injector is not None:
            kill_batches = self.fault_injector.take_cluster_kills(worker.index)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker.index, child_conn, self.engine_factory, kill_batches),
            name=f"{POOL_NAME}-worker-{worker.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent's copy must go or EOF never arrives
        with self.cond:
            worker.generation += 1
            worker.proc = proc
            worker.conn = parent_conn
            worker.pid = proc.pid
            worker.state = "warming"
            worker.inflight = {}
            worker.spawned_at = time.monotonic()
            worker.ping_sent = None
            self._publish(worker)
        thread = threading.Thread(
            target=self._recv_loop,
            args=(worker, worker.generation),
            name=f"{POOL_NAME}-recv-{worker.index}",
            daemon=True,
        )
        self._recv_threads[worker.index] = thread
        thread.start()

    def wait_ready(self, timeout: float | None = None, count: int | None = None) -> bool:
        """Block until *count* workers (default: all) report ready."""
        want = self.size if count is None else count
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while sum(1 for w in self.workers if w.state == "ready") < want:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                if self._closed:
                    return False
                self.cond.wait(timeout=remaining)
            return True

    def close(self) -> None:
        """Stop every worker (idempotent): polite stop, then SIGKILL."""
        with self.cond:
            if self._closed:
                return
            self._closed = True
            self.cond.notify_all()
        for worker in self.workers:
            conn, proc = worker.conn, worker.proc
            if conn is not None:
                try:
                    with worker.send_lock:
                        conn.send(("stop", None, None))
                except Exception:
                    pass
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=2.0)
            if conn is not None:
                try:
                    conn.close()
                except Exception:
                    pass
            with self.cond:
                worker.state = "dead"
        for thread in self._recv_threads.values():
            thread.join(timeout=2.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- receive / death ------------------------------------------------------------

    def _recv_loop(self, worker: ClusterWorker, generation: int) -> None:
        conn = worker.conn
        reg = get_registry()
        while True:
            try:
                kind, job_id, payload = conn.recv()
            except (EOFError, OSError):
                self._handle_death(worker, generation)
                return
            if kind == "ready":
                with self.cond:
                    if worker.generation != generation:
                        return
                    worker.state = "ready"
                    worker.ready_at = time.monotonic()
                    self._publish(worker)
                    self.cond.notify_all()
                reg.histogram("cluster.worker.warmup_seconds").observe(
                    worker.ready_at - worker.spawned_at
                )
                continue
            if kind == "spawn_error":
                # The child could not build its engine; it exits next,
                # which lands in the EOF path -> death handling.
                continue
            if kind == "pong":
                with self.cond:
                    worker.last_pong = time.monotonic()
                    worker.ping_sent = None
                continue
            # result / error for one job
            with self.cond:
                job = worker.inflight.pop(job_id, None)
                if job is not None:
                    worker.batches += 1
                    worker.faults = max(0.0, worker.faults * 0.5 - 0.05)
                    self._publish(worker)
                    self.cond.notify_all()
            if job is None:
                continue  # job was already failed over elsewhere
            if kind == "result":
                per_request, seconds, delta, span_dicts = payload
                self._merge_worker_delta(delta)
                if span_dicts:
                    self._absorb_worker_spans(worker, job, span_dicts)
                with self.cond:
                    worker.ewma_seconds = (
                        seconds if worker.ewma_seconds == 0.0
                        else 0.8 * worker.ewma_seconds + 0.2 * seconds
                    )
                reg.histogram("cluster.batch.seconds").observe(seconds)
                _resolve(job.future, per_request)
            else:  # error: the evaluation itself failed — not a worker loss
                exc, delta = payload
                self._merge_worker_delta(delta)
                with self.cond:
                    worker.faults += 0.5
                    self._publish(worker)
                _resolve(job.future, error=exc)

    def _merge_worker_delta(self, delta: dict | None) -> None:
        """Fold one batch's worker-side metrics into the gateway registry.

        The delta adds into the gateway totals, so ``/metrics`` reflects
        worker-side NTT / keyswitch / plan-cache counters.
        """
        if not delta:
            return
        try:
            get_registry().merge_delta(delta)
        except Exception:
            _count("delta.merge_errors")

    def _absorb_worker_spans(
        self, worker: ClusterWorker, job: _Job, span_dicts: list
    ) -> None:
        """Hand shipped spans to every sampled request trace of *job*.

        A coalesced batch evaluates once for all members, so each
        sampled member's trace receives the batch's worker spans (its
        own copy, re-idded by the context's two-pass remap).  The
        receive-time clock aligns the worker's ``perf_counter`` domain
        onto the gateway's.
        """
        align_end = time.perf_counter()
        for ctx in job.traces:
            if ctx is None or not getattr(ctx, "sampled", False):
                continue
            try:
                ctx.absorb_worker_spans(
                    span_dicts,
                    worker=f"worker-{worker.index}",
                    pid=worker.pid,
                    align_end=align_end,
                )
            except Exception:
                _count("span.merge_errors")

    def _handle_death(self, worker: ClusterWorker, generation: int) -> None:
        """Mark a worker dead, orphan its jobs, kick off the respawn.

        A death inside a running respawn loop (the child it just spawned
        died before reporting ready) is that loop's failed attempt: the
        loop sees the ``dead`` state and spends its next attempt, so no
        second loop with a fresh budget starts.
        """
        with self.cond:
            if self._closed or worker.generation != generation:
                return
            if worker.state == "dead":
                return
            worker.state = "dead"
            worker.faults += 1.0
            orphans = list(worker.inflight.values())
            worker.inflight = {}
            self._deaths += 1
            self._publish(worker)
            self.cond.notify_all()
            respawn = worker.index not in self._respawning
            self._respawning.add(worker.index)
        _count("worker.deaths")
        get_registry().counter(
            "cluster.worker.deaths_by", {"worker": worker.index}
        ).inc()
        for job in orphans:
            if self.on_job_orphaned is not None:
                self.on_job_orphaned(job)
            else:
                _resolve(job.future, error=WorkerLostError(f"worker {worker.index} died mid-batch"))
        if respawn:
            threading.Thread(
                target=self._respawn_loop,
                args=(worker,),
                name=f"{POOL_NAME}-respawn-{worker.index}",
                daemon=True,
            ).start()

    def _respawn_loop(self, worker: ClusterWorker) -> None:
        backoff = 0.05
        for attempt in range(1, RESPAWN_MAX_ATTEMPTS + 1):
            with self.cond:
                if self._closed:
                    return
                worker.state = "respawning"
                self._publish(worker)
            try:
                self._spawn(worker)
            except Exception:
                time.sleep(backoff)
                backoff = min(1.0, backoff * 2)
                continue
            with self.cond:
                if self._await_ready(worker, SPAWN_TIMEOUT_S):
                    # Counted once the worker is ready, not when it forks.
                    self._respawns += 1
                    _count("respawns")
                    # Released under the lock that marks deaths: a later
                    # death of this generation starts a fresh loop.
                    self._respawning.discard(worker.index)
                    return
                proc = worker.proc
            # spawned but never became ready: kill and try again
            if proc is not None and proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        with self.cond:
            worker.state = "dead"
            self._abandoned.add(worker.index)
            self._publish(worker)
            self.cond.notify_all()

    def _await_ready(self, worker: ClusterWorker, timeout: float) -> bool:
        """Wait (caller holds the lock) while *worker* warms up."""
        deadline = time.monotonic() + timeout
        while worker.state == "warming":
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._closed:
                break
            self.cond.wait(timeout=remaining)
        return worker.state == "ready"

    # -- heartbeat -------------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while True:
            with self.cond:
                if self._closed:
                    return
            time.sleep(HEARTBEAT_INTERVAL_S)
            now = time.monotonic()
            for worker in self.workers:
                with self.cond:
                    state, proc, generation = worker.state, worker.proc, worker.generation
                if state not in ("ready", "warming") or proc is None:
                    continue
                if not proc.is_alive():
                    self._handle_death(worker, generation)
                    continue
                if state != "ready":
                    continue
                with self.cond:
                    idle = not worker.inflight
                    overdue = (
                        worker.ping_sent is not None
                        and now - worker.ping_sent > HEARTBEAT_TIMEOUT_S
                    )
                if overdue and idle:
                    # Idle but unresponsive: as lost as crashed.
                    _count("heartbeat.kills")
                    proc.kill()  # death lands in the receiver's EOF path
                    continue
                if idle and worker.ping_sent is None:
                    try:
                        with worker.send_lock:
                            worker.conn.send(("ping", None, None))
                        with self.cond:
                            worker.ping_sent = now
                    except Exception:
                        self._handle_death(worker, generation)

    # -- selection / introspection ----------------------------------------------------

    def acquire(self, job: _Job) -> ClusterWorker | None:
        """Assign *job* to the best available worker (caller holds no lock).

        Health-weighted: among idle workers in ``ready`` state, the
        healthiest wins (lowest index on a tie).  Returns ``None`` when
        nobody can take the job.
        """
        with self.cond:
            candidates = [w for w in self.workers if w.state == "ready" and not w.inflight]
            if not candidates:
                return None
            worker = max(candidates, key=lambda w: (w.health(), -w.index))
            worker.inflight[job.job_id] = job
            self._publish(worker)
            return worker

    def release_without_send(self, worker: ClusterWorker, job: _Job) -> None:
        """Undo :meth:`acquire` after a failed pipe send."""
        with self.cond:
            worker.inflight.pop(job.job_id, None)
            self._publish(worker)
            self.cond.notify_all()

    def is_lost(self) -> bool:
        """True when every slot spent its respawn budget: none will come back."""
        with self.cond:
            return len(self._abandoned) >= self.size

    def saturation(self) -> float:
        """Busy fraction in [0, 1]; 1.0 when nobody is ready (shed hard)."""
        with self.cond:
            ready = [w for w in self.workers if w.state == "ready"]
            if not ready:
                return 1.0
            value = sum(1 for w in ready if w.inflight) / len(ready)
        get_registry().gauge("cluster.saturation").set(value)
        return value

    def _publish(self, worker: ClusterWorker) -> None:
        """Per-worker gauges (caller holds the lock)."""
        reg = get_registry()
        labels = {"worker": worker.index}
        reg.gauge("cluster.worker.state", labels).set(WORKER_STATES.index(worker.state))
        reg.gauge("cluster.worker.health", labels).set(worker.health())
        reg.gauge("cluster.worker.inflight", labels).set(len(worker.inflight))
        reg.gauge("cluster.workers.ready").set(
            sum(1 for w in self.workers if w.state == "ready")
        )

    def stats(self) -> dict[str, Any]:
        with self.cond:
            return {
                "size": self.size,
                "ready": sum(1 for w in self.workers if w.state == "ready"),
                "live": sum(
                    1 for w in self.workers if w.state in ("ready", "warming", "respawning")
                ),
                "deaths": self._deaths,
                "respawns": self._respawns,
                "lost": self.is_lost(),
                "workers": [w.describe() for w in self.workers],
            }

    @property
    def closed(self) -> bool:
        with self.cond:
            return self._closed


class Dispatcher:
    """Routes batches to pool workers; absorbs worker death.

    Parameters
    ----------
    pool:
        The started :class:`WorkerPool`.
    fallback:
        ``(requests, slots) -> per_request_results`` evaluated
        in-process when the whole pool is lost — the serial
        degradation tier.

    The failover budget is :data:`FAILOVER_MAX_RETRIES` extra dispatch
    attempts per batch after a worker loss, with seeded exponential
    backoff (:func:`_backoff_delay`) between attempts.
    """

    def __init__(
        self,
        pool: WorkerPool,
        fallback: Callable[[Sequence[Any], Sequence[int]], Sequence[Any]],
    ):
        self.pool = pool
        self.fallback = fallback
        self._job_ids = itertools.count(1)
        self._rng = random.Random(0)
        self._degraded = False
        pool.on_job_orphaned = self._on_orphaned

    # -- dispatch -------------------------------------------------------------------

    def dispatch(
        self,
        requests: Sequence[Any],
        slots: Sequence[int],
        traces: Sequence[Any] | None = None,
    ) -> Future:
        """Hand one batch to the pool; returns the future of its results.

        Blocks the caller (the scheduler's batcher thread) until the
        batch is *assigned* — so under saturation, requests pile up in
        the scheduler's queue where the shedding tiers can see them,
        instead of in a hidden dispatcher backlog.

        *traces* optionally carries one request-trace context per
        request (``None`` members allowed).  Sampled members make the
        worker activate a tracer for this batch and ship its spans back;
        failover retries are recorded as ``failover_retry`` stages on
        every present context.
        """
        job = _Job(next(self._job_ids), list(requests), list(slots), traces)
        _count("dispatches")
        self._assign(job, first=True)
        return job.future

    def _assign(self, job: _Job, first: bool) -> None:
        """Place *job* on a worker / the fallback, or fail its future."""
        deadline = time.monotonic() + DISPATCH_TIMEOUT_S
        while True:
            if self.pool.closed:
                _resolve(job.future, error=SchedulerClosedError("cluster pool is closed"))
                return
            if self.pool.is_lost():
                self._run_fallback(job)
                return
            worker = self.pool.acquire(job)
            if worker is not None:
                if self._send(worker, job):
                    return
                continue  # send broke the pipe: pick another worker
            with self.pool.cond:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self.pool.cond.wait(timeout=min(remaining, 0.25))
        error = (
            ServiceOverloadedError("no worker accepted the batch in time")
            if first else WorkerLostError("failover found no worker in time")
        )
        _resolve(job.future, error=error)

    def _send(self, worker: ClusterWorker, job: _Job) -> bool:
        try:
            with worker.send_lock:
                worker.conn.send(
                    ("batch", job.job_id, (job.requests, job.slots, job.sampled))
                )
            return True
        except Exception:
            self.pool.release_without_send(worker, job)
            self.pool._handle_death(worker, worker.generation)
            return False

    # -- failover -------------------------------------------------------------------

    def _on_orphaned(self, job: _Job) -> None:
        """Pool callback: a worker died holding *job*; requeue or fail it.

        Runs on a receiver thread — the actual reassignment moves to a
        short-lived daemon thread so pipe reads never block on pool
        capacity.
        """
        job.attempts += 1
        if job.attempts > FAILOVER_MAX_RETRIES:
            _count("failovers.exhausted")
            _resolve(
                job.future,
                error=WorkerLostError(f"batch lost {job.attempts} worker(s); retry budget spent"),
            )
            return
        _count("failovers")
        threading.Thread(
            target=self._redispatch, args=(job,), name="cluster-failover", daemon=True
        ).start()

    def _redispatch(self, job: _Job) -> None:
        t0 = time.perf_counter()
        time.sleep(_backoff_delay(job.attempts, self._rng))
        self._assign(job, first=False)
        # The failover stage covers backoff + reassignment — the extra
        # latency the worker loss added before evaluation restarted.
        t1 = time.perf_counter()
        for ctx in job.traces:
            if ctx is not None:
                ctx.note_retry()
                ctx.add_stage("failover_retry", t0, t1, attempt=job.attempts)

    def _run_fallback(self, job: _Job) -> None:
        """Whole-pool loss: evaluate in-process."""
        if not self._degraded:
            self._degraded = True
            get_registry().gauge("cluster.degraded").set(1)
        _count("degraded_serial")
        try:
            _resolve(job.future, self.fallback(job.requests, job.slots))
        except BaseException as exc:  # noqa: BLE001 - forwarded to the future
            _resolve(job.future, error=exc)

    @property
    def degraded(self) -> bool:
        """Whether the dispatcher has served at least one batch serially."""
        return self._degraded
