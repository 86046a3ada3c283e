"""Outside-in span recorder for the traced benchmark run.

The recorder wraps *public* callables of the objects the harness built
(or of their classes) and records one span per call: name, start, end,
the span that was open on the same thread when it started, and the
request id current on that thread.  Nothing under ``src/`` knows about
it; :meth:`SpanRecorder.uninstall` puts every wrapped attribute back.

A span's *self time* is its duration minus the part of that interval
its direct children cover.  Children of one parent run on the parent's
thread, one after another, so "covered" is the plain sum of their
durations.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root
    request: int  # -1 outside any request
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it.

    Each thread appends to a list of its own (a parent is always a span
    of the same thread), so the hot path takes no lock; :attr:`spans`
    merges the lists once recording is over.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._per_thread: list[tuple[int, list]] = []
        self._merged: list[Span] | None = None
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def _thread_state(self) -> Any:
        local = self._local
        if not hasattr(local, "records"):
            local.records, local.stack, local.request = [], [], -1
            with self._lock:
                self._per_thread.append((threading.get_ident(), local.records))
        return local

    def _open(self, name: str) -> Any:
        local = self._thread_state()
        records, stack = local.records, local.stack
        index = len(records)
        records.append(None)  # the slot children point at; filled when the span closes
        stack.append(index)
        self._merged = None
        return local, index, name, stack[-2] if len(stack) > 1 else -1, self._clock()

    def _close(self, opened: Any) -> None:
        end = self._clock()
        local, index, name, parent, start = opened
        # A plain tuple of str/float/int: the cyclic collector stops
        # tracking it, so half a million spans do not lengthen its pauses.
        local.records[index] = (name, start, end, parent, local.request)
        local.stack.pop()

    @property
    def spans(self) -> list[Span]:
        """All finished spans, thread by thread, with list-wide parent indices."""
        if self._merged is None:
            merged: list[Span] = []
            with self._lock:
                per_thread = list(self._per_thread)
            for thread, records in per_thread:
                offset = len(merged)
                if None in records:
                    raise RuntimeError("a span is still open: merge only after recording has ended")
                for name, start, end, parent, request in records:
                    merged.append(Span(name, start, end, parent + offset if parent >= 0 else -1, request, thread))
            self._merged = merged
        return self._merged

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Harness-side span (e.g. the root around one whole request)."""
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(opened)

    @contextmanager
    def root(self, request_id: int, name: str = "request") -> Iterator[None]:
        """Root span of one request: spans opened on this thread while
        it is open carry *request_id*."""
        local = self._thread_state()
        previous, local.request = local.request, request_id
        try:
            with self.span(name):
                yield
        finally:
            local.request = previous

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *owner* is an instance (the wrapper shadows the bound method in
        the instance dict) or a class (the wrapper is a plain function,
        so it binds ``self`` like the original).
        """
        original = getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not callable")
        previous = vars(owner).get(attr, _MISSING)
        open_, close = self._open, self._close

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = open_(name)
            try:
                return original(*args, **kwargs)
            finally:
                close(opened)

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, previous))

    def wrap_public_methods(self, obj: Any, prefix: str, skip: tuple[str, ...] = ()) -> list[str]:
        """Wrap every public method of the instance *obj* as ``<prefix>.<method>``."""
        wrapped = []
        for attr in dir(type(obj)):
            if attr.startswith("_") or attr in skip:
                continue
            if isinstance(getattr(type(obj), attr), (property, staticmethod, classmethod)):
                continue
            if not callable(getattr(obj, attr, None)):
                continue
            self.wrap(obj, attr, f"{prefix}.{attr}")
            wrapped.append(attr)
        return wrapped

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last installed first."""
        while self._installed:
            owner, attr, previous = self._installed.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Exclusive time of every span, in recording order."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(spans, covered)]

    def by_name(self) -> dict[str, dict[str, float]]:
        """``{name: {calls, busy_s, self_s}}`` summed over all spans.

        ``busy_s`` is inclusive time; a span nested (at any depth) inside
        another span of the same name is not added to it twice.
        """
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            row = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[i]
            if span.name not in self._ancestor_names(span):
                row["busy_s"] += span.duration
        return out

    def _ancestor_names(self, span: Span) -> Iterator[str]:
        spans, parent = self.spans, span.parent
        while parent >= 0:
            yield spans[parent].name
            parent = spans[parent].parent

    def coverage(self, root_name: str) -> float:
        """Share of the root spans' wall clock that named layer spans own.

        Σ self time of every non-root span ÷ Σ duration of the root
        spans: what is left over is time the harness could not
        attribute to any wrapped call.
        """
        selfs = self.self_times()
        root_wall = sum(s.duration for s in self.spans if s.name == root_name)
        if root_wall <= 0:
            raise ValueError(f"no {root_name!r} span recorded")
        attributed = sum(
            t
            for t, s in zip(selfs, self.spans)
            if s.name != root_name and root_name in self._ancestor_names(s)
        )
        return attributed / root_wall

    # -- export ------------------------------------------------------------------

    def dump(self, path: Path, meta: dict | None = None, chrome: bool = False) -> None:
        """Write the spans as JSON; *chrome* selects the Chrome-trace
        ``traceEvents`` layout (load it in ``chrome://tracing``)."""
        if chrome:
            doc: dict[str, Any] = {
                "traceEvents": [
                    {
                        "name": s.name,
                        "ph": "X",
                        "ts": s.start * 1e6,
                        "dur": s.duration * 1e6,
                        "pid": 0,
                        "tid": s.thread,
                        "args": {"request": s.request},
                    }
                    for s in self.spans
                ],
                "metadata": meta or {},
            }
        else:
            doc = {
                "meta": meta or {},
                "columns": ["name", "start_s", "end_s", "parent", "request", "thread"],
                "spans": [
                    [s.name, s.start, s.end, s.parent, s.request, s.thread]
                    for s in self.spans
                ],
            }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
