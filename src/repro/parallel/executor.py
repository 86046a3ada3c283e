"""Executor abstraction: one ``map`` API, serial or on threads.

Dispatch is observable: when :mod:`repro.obs` tracing is enabled, every
``map`` call records a ``parallel.map`` span tagged with the executor
kind and item count, and bumps the ``parallel.<kind>.map.calls`` /
``parallel.<kind>.map.items`` counters — the per-channel dispatch and
recombination overhead behind the Table IV/VI moduli sweeps is the gap
between that span and the per-channel work inside it.

Pool lifecycle: :meth:`Executor.close` is idempotent, and every
:class:`ThreadExecutor` is registered with an ``atexit`` closer, so an
executor its owner never closes cannot leak worker threads past
interpreter shutdown.
"""

from __future__ import annotations

import atexit
import os
import weakref
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro.obs import tracer as _obs
from repro.obs.metrics import get_registry

__all__ = ["Executor", "SerialExecutor", "ThreadExecutor"]


class Executor(ABC):
    """Maps a function over independent work items, preserving order."""

    name: str = "abstract"

    def map(self, fn: Callable[..., Any], items: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to each item; results are returned in input order.

        Parameters
        ----------
        fn:
            Per-item callable.
        items:
            Work items; one ``fn(item)`` call each.

        Returns
        -------
        ``[fn(items[0]), fn(items[1]), ...]`` — always in input order,
        regardless of completion order.
        """
        tracer = _obs.get_tracer()
        if not tracer.enabled:
            return self._map(fn, items)
        reg = get_registry()
        reg.counter(f"parallel.{self.name}.map.calls").inc()
        reg.counter(f"parallel.{self.name}.map.items").inc(len(items))
        with tracer.span("parallel.map", executor=self.name, items=len(items)):
            return self._map(fn, items)

    @abstractmethod
    def _map(self, fn: Callable[..., Any], items: Sequence[Any]) -> list[Any]:
        """Backend-specific dispatch (see :meth:`map` for the contract)."""

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run channels one after another — the non-parallel reference point."""

    name = "serial"

    def _map(self, fn: Callable[..., Any], items: Sequence[Any]) -> list[Any]:
        return [fn(it) for it in items]


#: Every live thread executor; drained by the ``atexit`` hook so an
#: unclosed executor cannot leak worker threads past interpreter shutdown.
_LIVE_POOLS: "weakref.WeakSet[ThreadExecutor]" = weakref.WeakSet()


def _close_live_pools() -> None:  # pragma: no cover - interpreter shutdown
    for ex in list(_LIVE_POOLS):
        try:
            ex.close()
        except Exception:
            pass


atexit.register(_close_live_pools)


class ThreadExecutor(Executor):
    """Thread-pool dispatch; effective because NumPy kernels drop the GIL.

    The pool is created lazily on the first ``map`` of two or more
    items.  The default size is the number of CPUs this process may run
    on (its affinity mask, capped at 32), so a ``taskset``-pinned run
    does not oversubscribe its cores.
    """

    name = "thread"

    def __init__(self, workers: int | None = None):
        self.workers = workers or min(32, len(os.sched_getaffinity(0)))
        self._pool: ThreadPoolExecutor | None = None
        _LIVE_POOLS.add(self)

    def _map(self, fn: Callable[..., Any], items: Sequence[Any]) -> list[Any]:
        if len(items) <= 1:
            return [fn(it) for it in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
