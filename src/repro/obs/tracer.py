"""Nested-span tracer with a zero-overhead disabled mode.

A *span* is one timed region of the pipeline — a primitive op
(``ckksrns.mul_raw``), a kernel (``nt.ntt.forward``), an executor dispatch
(``parallel.map``) or a network layer (``henn.layer``).  Spans nest:
each carries its parent's id (tracked per thread), so a full encrypted
classification unfolds into the Fig. 5 stage tree with per-primitive
attribution at the leaves.

The process-global *active tracer* is a :class:`NullTracer` by default:
``span()`` then hands back a shared no-op context manager, never reads
the clock and never allocates, so instrumented hot paths cost one
attribute lookup and an empty ``with`` when tracing is off.  Enable
collection with :func:`enable` (or the scoped :func:`tracing` context
manager) and read the results from :meth:`Tracer.finished`.

Spans opened inside :class:`~repro.parallel.ThreadExecutor` workers are
recorded with that worker's ``thread_id`` and no parent (each thread has
its own nesting stack).  Cluster workers are forked processes: a
fork-inherited tracer cannot propagate spans back, so spans recorded
into it are counted in the worker-local ``obs.spans.dropped`` counter
(which ships home with the worker's metric delta) instead of being
recorded into memory the parent will never read.  Spans a worker means
to ship travel explicitly (:mod:`repro.obs.rtrace`).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "enable",
    "disable",
    "enabled",
    "span",
    "traced",
    "tracing",
]

#: Span ids are unique per process (across tracers), so spans can be
#: merged between tracers without collisions.
_IDS = itertools.count(1)


@dataclass
class Span:
    """One finished timed region.

    Parameters
    ----------
    name:
        Dotted identifier of the instrumented region (``"ckksrns.mul_raw"``).
    start, end:
        ``time.perf_counter()`` readings bracketing the region.
    span_id:
        Process-unique id.
    parent_id:
        Id of the enclosing span on the same thread, or ``None`` for a
        root span.
    thread_id:
        ``threading.get_ident()`` of the recording thread.
    tags:
        User key/value annotations supplied at ``span()`` time.
    """

    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    thread_id: int
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent inside the span (inclusive of children)."""
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(
            name=d["name"],
            start=float(d["start"]),
            end=float(d["end"]),
            span_id=int(d["span_id"]),
            parent_id=None if d.get("parent_id") is None else int(d["parent_id"]),
            thread_id=int(d.get("thread_id", 0)),
            tags=dict(d.get("tags", {})),
        )


class _SpanHandle:
    """Context manager for one in-flight span."""

    __slots__ = ("_tracer", "name", "tags", "_start", "span_id", "parent_id")

    def __init__(self, tracer: "Tracer", name: str, tags: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.tags = tags

    def __enter__(self) -> "_SpanHandle":
        stack = self._tracer._stack()
        self.parent_id = stack[-1] if stack else None
        self.span_id = next(_IDS)
        stack.append(self.span_id)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = perf_counter()
        self._tracer._stack().pop()
        self._tracer._record(
            Span(
                name=self.name,
                start=self._start,
                end=end,
                span_id=self.span_id,
                parent_id=self.parent_id,
                thread_id=threading.get_ident(),
                tags=self.tags,
            )
        )


class _NullSpan:
    """Shared do-nothing context manager handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; thread-safe.

    The only record of a span: per-name counts and times are derived
    from the spans (:func:`repro.obs.report.aggregate_spans`).
    """

    enabled = True

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Owning process: a fork-inherited copy of this tracer records
        #: into memory the parent will never read, so spans finished
        #: under a different pid are counted as dropped instead.
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **tags: Any) -> _SpanHandle:
        """Open a nested span: ``with tracer.span("ckksrns.mul_raw"): ...``."""
        return _SpanHandle(self, name, tags)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sp: Span) -> None:
        if os.getpid() != self._pid:
            # This tracer is a fork-inherited copy inside a pool worker:
            # whatever it stores, the parent process will never read it.
            # Leave a trace of the loss in the worker-local registry,
            # whose delta the worker ships home with its next reply.
            from repro.obs.metrics import get_registry

            get_registry().counter("obs.spans.dropped").inc()
            return
        with self._lock:
            self._spans.append(sp)

    # -- reading -----------------------------------------------------------

    def finished(self) -> list[Span]:
        """Snapshot of all recorded spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Drop recorded spans (open spans are unaffected)."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


def _spans_of(source: "Tracer | Iterable[Span]") -> list[Span]:
    """The spans of a tracer (a snapshot) or of any span iterable."""
    if isinstance(source, Tracer):
        return source.finished()
    return list(source)


class NullTracer:
    """Disabled tracer: no clock reads, no allocation, nothing recorded."""

    enabled = False

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def finished(self) -> list[Span]:
        return []

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


_ACTIVE: Tracer | NullTracer = NullTracer()


def get_tracer() -> Tracer | NullTracer:
    """The process-global active tracer."""
    return _ACTIVE


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install *tracer* as the active tracer and return it."""
    global _ACTIVE
    _ACTIVE = tracer
    return _ACTIVE


def enable() -> Tracer:
    """Install and return a fresh collecting :class:`Tracer`."""
    return set_tracer(Tracer())  # type: ignore[return-value]


def disable() -> None:
    """Restore the zero-overhead :class:`NullTracer`."""
    set_tracer(NullTracer())


def enabled() -> bool:
    """Whether spans are currently being collected."""
    return _ACTIVE.enabled


def span(name: str, **tags: Any) -> _SpanHandle | _NullSpan:
    """Open a span on the active tracer (no-op context when disabled)."""
    return _ACTIVE.span(name, **tags)


class tracing:
    """Scoped tracing: ``with tracing() as t: ... t.finished()``.

    Restores the previously active tracer on exit, so nested/temporary
    profiling cannot leak collection into steady-state code.
    """

    def __init__(self) -> None:
        self._prev: Tracer | NullTracer | None = None

    def __enter__(self) -> Tracer:
        self._prev = get_tracer()
        return enable()

    def __exit__(self, *exc: object) -> None:
        assert self._prev is not None
        set_tracer(self._prev)


def traced(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator wrapping a function in a span named *name*.

    The disabled fast path is a single global read and truth test before
    calling through — safe to put on per-channel kernels like the NTT.
    """

    def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = _ACTIVE
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return deco
