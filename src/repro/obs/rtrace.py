"""Request-scoped distributed tracing across the serving path.

:mod:`repro.obs.tracer` answers *where one traced run spent its time*
inside a single process; this module answers the serving question —
*where did one particular request's latency go*, end to end, across the
gateway process and the cluster worker that evaluated its batch.  The
pieces mirror a Dapper-style pipeline scaled down to this repo:

* :class:`TraceContext` — minted per request at gateway admission
  (:meth:`RequestTracer.mint`), carrying the trace id and the **head
  sampling decision**.  The context rides through the
  :class:`~repro.serving.scheduler.BatchingScheduler` pending entry and
  the :class:`~repro.serving.cluster.Dispatcher` job, so every stage of
  the serving path (``queue_wait``, ``pack``, ``compute``, ``split``,
  ``failover_retry``) can attribute its wall-clock to the request it
  served.  Stage *timings* are plain floats (recorded for every traced
  request); stage *spans* are real :class:`~repro.obs.tracer.Span`
  objects and exist only when the head decision sampled the request.
* **Cross-process span shipping** — a cluster worker evaluating a
  sampled batch activates a fresh worker-local tracer, and its finished
  spans travel back with the batch result.  The gateway absorbs them
  with :meth:`TraceContext.absorb_worker_spans`, re-iding in a
  two-pass remap (fork copies the span-id counter, so worker ids can
  collide with gateway ids): all new ids are allocated first, then
  parent links rewritten, and orphaned roots are re-parented under the
  request's root span.
  Every span carries a ``pid`` tag, so the merged trace spans processes
  and the Chrome export renders one track group per process.
* :class:`SamplingPolicy` — serving-grade sampling: probabilistic head
  sampling (``rate``), plus tail retention for every errored/shed
  request and for slow-tail outliers detected against a **latency ring
  buffer** (a request slower than :data:`SLOW_FACTOR` × the ring median is
  kept even when head sampling said no; such tail-kept records carry
  stage timings but no spans — spans cannot be recorded retroactively).
* :class:`TraceStore` — bounded in-memory record store: the most recent
  traces plus the slowest-N exemplars, exported on the
  :class:`~repro.obs.server.ObservabilityServer` ``/debug/traces``
  endpoint and consumed by ``tools/trace_critical_path.py``.

With sampling off (``rate=0``) no context is minted, no clock beyond
the request's own latency is read and the store stays empty — the
serving hot path keeps its zero-overhead default.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable, Iterator, Sequence

from repro.obs.metrics import get_registry
from repro.obs.tracer import _IDS, Span

__all__ = [
    "TraceContext",
    "RequestTrace",
    "SamplingPolicy",
    "TraceStore",
    "RequestTracer",
    "STAGES",
    "batch_stage",
]

#: Slow-tail retention: slower than ``SLOW_FACTOR`` × the median of the
#: last ``RING_SIZE`` successful latencies, once ``MIN_RING`` are in.
SLOW_FACTOR = 4.0
RING_SIZE = 128
MIN_RING = 16
#: :class:`TraceStore` bounds: the ``CAPACITY`` most recent records,
#: plus the ``SLOWEST_N`` slowest ever seen.
CAPACITY = 256
SLOWEST_N = 32

#: Canonical serving-path stage names, in pipeline order.  ``gateway``
#: covers admission validation, ``queue_wait`` the coalescing queue,
#: ``pack``/``compute``/``split`` the batch evaluation, and
#: ``failover_retry`` the backoff + reassignment after a worker loss.
STAGES = ("gateway", "queue_wait", "pack", "compute", "split", "failover_retry")

#: Trace ids are unique per gateway process; combined with the pid they
#: are unique across a cluster.
_TRACE_IDS = itertools.count(1)


@dataclass
class RequestTrace:
    """One finished per-request trace record (what the store keeps)."""

    trace_id: str
    request_id: int
    sampled: bool
    outcome: str
    seconds: float
    #: Why the record was retained: ``head`` (sampled at admission),
    #: ``error`` (failed/shed/rejected), or ``slow`` (latency ring tail).
    kept: str
    stages: dict[str, float] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    retries: int = 0
    error_code: str | None = None

    @property
    def pids(self) -> list[int]:
        """Distinct process ids contributing spans, sorted."""
        return sorted({int(s.tags.get("pid", 0)) for s in self.spans})

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation for ``/debug/traces`` and files."""
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "sampled": self.sampled,
            "outcome": self.outcome,
            "seconds": self.seconds,
            "kept": self.kept,
            "stages": dict(self.stages),
            "retries": self.retries,
            "error_code": self.error_code,
            "pids": self.pids,
            "spans": [s.to_dict() for s in self.spans],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RequestTrace":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            trace_id=str(d["trace_id"]),
            request_id=int(d.get("request_id", 0)),
            sampled=bool(d.get("sampled", False)),
            outcome=str(d.get("outcome", "?")),
            seconds=float(d.get("seconds", 0.0)),
            kept=str(d.get("kept", "?")),
            stages={str(k): float(v) for k, v in d.get("stages", {}).items()},
            spans=[Span.from_dict(s) for s in d.get("spans", [])],
            retries=int(d.get("retries", 0)),
            error_code=d.get("error_code"),
        )


class TraceContext:
    """Mutable per-request trace state threaded through the serving path.

    Minted at gateway admission, attached to the scheduler's pending
    entry and the dispatcher's job, finished exactly once by
    :meth:`RequestTracer.finish`.  Thread-safe: queue-wait stages are
    recorded by the scheduler worker, compute stages by dispatcher
    callback threads, failover stages by failover threads.
    """

    __slots__ = (
        "trace_id",
        "request_id",
        "sampled",
        "started",
        "root_id",
        "retries",
        "_stages",
        "_spans",
        "_lock",
        "_finished",
    )

    def __init__(self, trace_id: str, request_id: int, sampled: bool):
        self.trace_id = trace_id
        self.request_id = request_id
        self.sampled = sampled
        self.started = perf_counter()
        #: Root span id; allocated eagerly for sampled requests so stage
        #: and worker spans can parent onto it before the root closes.
        self.root_id: int | None = next(_IDS) if sampled else None
        self.retries = 0
        self._stages: dict[str, float] = {}
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._finished = False

    # -- stage recording ---------------------------------------------------

    def add_stage(self, name: str, start: float, end: float, **tags: Any) -> None:
        """Attribute ``[start, end]`` (perf_counter readings) to *name*.

        Timings accumulate for every traced request; a :class:`Span`
        (parented under the request root, tagged with this process's
        pid) is recorded only when the request is sampled.
        """
        duration = max(0.0, end - start)
        with self._lock:
            self._stages[name] = self._stages.get(name, 0.0) + duration
            if self.sampled:
                self._spans.append(
                    Span(
                        name=f"rtrace.{name}",
                        start=start,
                        end=end,
                        span_id=next(_IDS),
                        parent_id=self.root_id,
                        thread_id=threading.get_ident(),
                        tags={"trace_id": self.trace_id, "pid": os.getpid(), **tags},
                    )
                )

    @contextmanager
    def stage(self, name: str, **tags: Any) -> Iterator[None]:
        """``with ctx.stage("pack"): ...`` — timed stage recording."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add_stage(name, t0, perf_counter(), **tags)

    def note_retry(self) -> None:
        """Count one failover retry against this request."""
        with self._lock:
            self.retries += 1

    # -- cross-process merge -----------------------------------------------

    def absorb_worker_spans(
        self,
        span_dicts: Sequence[dict],
        worker: str,
        pid: int | None = None,
        align_end: float | None = None,
    ) -> None:
        """Merge spans shipped back from a worker process into this trace.

        Two passes: children can complete before their parents, so every new
        id is allocated before any parent link is rewritten.  Worker
        roots (parent absent from the shipment) are re-parented under
        the request's root span; every span gains ``worker`` and
        ``pid`` tags so the merged trace distinguishes processes.

        ``perf_counter`` readings do not compare across processes, so
        *align_end* (the gateway's clock at result receipt) shifts the
        whole shipment so its latest span ends there — the message just
        arrived, so the skew of that alignment is one pipe hop.
        """
        if not self.sampled or not span_dicts:
            return
        spans = [Span.from_dict(d) for d in span_dicts]
        if align_end is not None:
            shift = align_end - max(s.end for s in spans)
            for sp in spans:
                sp.start += shift
                sp.end += shift
        remap = {sp.span_id: next(_IDS) for sp in spans}
        for sp in spans:
            sp.span_id = remap[sp.span_id]
            if sp.parent_id is not None and sp.parent_id in remap:
                sp.parent_id = remap[sp.parent_id]
            else:
                sp.parent_id = self.root_id
            sp.tags.setdefault("worker", worker)
            if pid is not None:
                sp.tags.setdefault("pid", pid)
            sp.tags.setdefault("trace_id", self.trace_id)
        with self._lock:
            self._spans.extend(spans)

    # -- reading ------------------------------------------------------------

    def stages(self) -> dict[str, float]:
        with self._lock:
            return dict(self._stages)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)


@contextmanager
def batch_stage(
    ctxs: Iterable["TraceContext | None"], name: str, **tags: Any
) -> Iterator[None]:
    """Time one batch-level region and attribute it to every member.

    A coalesced batch packs/evaluates once for all its requests; each
    member's trace still wants the stage, so the region is clocked once
    and recorded into every non-``None`` context.
    """
    live = [c for c in ctxs if c is not None]
    if not live:
        yield
        return
    t0 = perf_counter()
    try:
        yield
    finally:
        t1 = perf_counter()
        for ctx in live:
            ctx.add_stage(name, t0, t1, **tags)


class SamplingPolicy:
    """Head sampling plus tail retention for errors and slow outliers.

    Parameters
    ----------
    rate:
        Head-sampling probability in ``[0, 1]``.  ``0`` disables
        request tracing entirely (nothing minted, nothing kept).
    seed:
        Seeds the head-sampling RNG for reproducible runs; ``None``
        draws from the process RNG.
    """

    def __init__(self, rate: float = 0.0, *, seed: int | None = None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sampling rate must be in [0, 1]")
        self.rate = float(rate)
        self._ring: deque[float] = deque(maxlen=RING_SIZE)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether request tracing is on at all (``rate > 0``)."""
        return self.rate > 0.0

    def head_decision(self) -> bool:
        """The admission-time coin flip."""
        return self.rate >= 1.0 or (self.rate > 0.0 and self._rng.random() < self.rate)

    def note_latency(self, seconds: float) -> None:
        """Feed one *successful* request latency into the ring buffer."""
        with self._lock:
            self._ring.append(float(seconds))

    def slow_threshold(self) -> float | None:
        """Current slow-tail latency bound, or ``None`` while warming."""
        with self._lock:
            if len(self._ring) < MIN_RING:
                return None
            ordered = sorted(self._ring)
            return SLOW_FACTOR * ordered[len(ordered) // 2]

    def keep_reason(self, sampled: bool, outcome: str, seconds: float) -> str | None:
        """Why (or whether) a finished request's record is retained."""
        if not self.enabled:
            return None
        if sampled:
            return "head"
        if outcome != "ok":
            return "error"
        threshold = self.slow_threshold()
        if threshold is not None and seconds > threshold:
            return "slow"
        return None


class TraceStore:
    """Bounded per-request record store: recent ring + slowest-N exemplars.

    :data:`CAPACITY` bounds the recent ring; independently the
    :data:`SLOWEST_N` worst latencies seen are pinned, so a burst of fast
    requests cannot evict the exemplar a latency investigation needs.
    Thread-safe.
    """

    def __init__(self) -> None:
        self._recent: deque[RequestTrace] = deque(maxlen=CAPACITY)
        self._slowest: list[RequestTrace] = []
        self._total = 0
        self._lock = threading.Lock()

    def record(self, trace: RequestTrace) -> None:
        with self._lock:
            self._total += 1
            self._recent.append(trace)
            self._slowest.append(trace)
            self._slowest.sort(key=lambda t: t.seconds, reverse=True)
            del self._slowest[SLOWEST_N:]

    def recent(self, n: int | None = None) -> list[RequestTrace]:
        """Most recent records, newest last."""
        with self._lock:
            out = list(self._recent)
        return out if n is None else out[-n:]

    def slowest(self, n: int | None = None) -> list[RequestTrace]:
        """Slowest retained records, worst first."""
        with self._lock:
            out = list(self._slowest)
        return out if n is None else out[:n]

    def get(self, trace_id: str) -> RequestTrace | None:
        """Look one trace up by id (recent ring first, then exemplars)."""
        with self._lock:
            for trace in reversed(self._recent):
                if trace.trace_id == trace_id:
                    return trace
            for trace in self._slowest:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._recent)

    def snapshot(self, n: int = 16) -> dict[str, Any]:
        """JSON-ready summary for the ``/debug/traces`` index."""

        def brief(trace: RequestTrace) -> dict[str, Any]:
            return {
                "trace_id": trace.trace_id,
                "request_id": trace.request_id,
                "outcome": trace.outcome,
                "kept": trace.kept,
                "seconds": trace.seconds,
                "stages": dict(trace.stages),
                "retries": trace.retries,
                "spans": len(trace.spans),
                "pids": trace.pids,
            }

        with self._lock:
            total = self._total
        return {
            "total_recorded": total,
            "stored": len(self),
            "slowest": [brief(t) for t in self.slowest(n)],
            "recent": [brief(t) for t in self.recent(n)],
        }


class RequestTracer:
    """Per-service façade tying policy, store and metrics together.

    The serving gateways own one of these; the request path calls
    :meth:`mint` at admission and :meth:`finish` exactly once per
    request.  With a disabled policy both are near-free (``mint``
    returns ``None`` and the scheduler/cluster plumbing skips every
    trace branch).  Counters and histograms go to whatever
    :func:`~repro.obs.metrics.get_registry` returns at that moment.
    """

    def __init__(self, policy: SamplingPolicy | None = None):
        self.policy = policy or SamplingPolicy(rate=0.0)
        self.store = TraceStore()

    @property
    def enabled(self) -> bool:
        return self.policy.enabled

    def mint(self, request_id: int) -> TraceContext | None:
        """Admission: a new context, or ``None`` when tracing is off."""
        if not self.policy.enabled:
            return None
        sampled = self.policy.head_decision()
        ctx = TraceContext(
            trace_id=f"{os.getpid():x}-{next(_TRACE_IDS):08x}",
            request_id=request_id,
            sampled=sampled,
        )
        reg = get_registry()
        reg.counter("rtrace.minted").inc()
        if sampled:
            reg.counter("rtrace.sampled").inc()
        return ctx

    def finish(
        self,
        ctx: TraceContext | None,
        outcome: str,
        error_code: str | None = None,
    ) -> RequestTrace | None:
        """Close one request's trace; returns the retained record, if any.

        Idempotent per context (failover and shutdown paths can race a
        late result); feeds the latency ring on success, observes the
        ``rtrace.stage.*`` histograms, and applies the retention policy
        — head-sampled records close their root span first, so the
        stored trace is a complete cross-process span tree.
        """
        if ctx is None:
            return None
        with ctx._lock:
            if ctx._finished:
                return None
            ctx._finished = True
        end = perf_counter()
        seconds = end - ctx.started
        stages = ctx.stages()
        reg = get_registry()
        reg.histogram("rtrace.request.seconds").observe(seconds)
        for name, duration in stages.items():
            reg.histogram(f"rtrace.stage.{name}.seconds").observe(duration)
        if outcome == "ok":
            self.policy.note_latency(seconds)
        kept = self.policy.keep_reason(ctx.sampled, outcome, seconds)
        if kept is None:
            reg.counter("rtrace.dropped").inc()
            return None
        spans = ctx.spans()
        if ctx.sampled:
            spans.append(
                Span(
                    name="rtrace.request",
                    start=ctx.started,
                    end=end,
                    span_id=ctx.root_id,
                    parent_id=None,
                    thread_id=threading.get_ident(),
                    tags={
                        "trace_id": ctx.trace_id,
                        "pid": os.getpid(),
                        "outcome": outcome,
                    },
                )
            )
        trace = RequestTrace(
            trace_id=ctx.trace_id,
            request_id=ctx.request_id,
            sampled=ctx.sampled,
            outcome=outcome,
            seconds=seconds,
            kept=kept,
            stages=stages,
            spans=spans,
            retries=ctx.retries,
            error_code=error_code,
        )
        self.store.record(trace)
        reg.counter("rtrace.kept", {"reason": kept}).inc()
        return trace
