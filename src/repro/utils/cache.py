"""Keyed object cache with observability counters.

:class:`PlaintextCache` is the compile-once / run-many store behind the
inference-plan layer (``docs/PERFORMANCE.md``): encoded plaintexts —
NTT-domain residue stacks for CKKS-RNS, big-int coefficient vectors for
multiprecision CKKS — are deterministic functions of ``(value, scale,
level, n)``, so the first encode of a key is authoritative and every
later lookup returns the *same object*, bit-identical to a fresh
encode.

Keys are plain hashable tuples built by the caller; by convention they
start with a kind tag and include every parameter the encoding depends
on, e.g. ``("scalar", n, level, scale, value)``.  Changing the level,
the scale or the ring degree therefore changes the key — a warm cache
can never leak a plaintext across parameter sets.

Hit/miss totals are pushed to the process-global metrics registry
(:mod:`repro.obs.metrics`) as ``plan.cache.hit`` / ``plan.cache.miss``
so engines and the CI smoke job can assert "zero re-encodes" by
counting, not timing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["PlaintextCache"]

#: Upper bound on stored plaintexts; the least recently used entry is
#: evicted beyond it.  It comfortably holds every weight, bias and
#: activation constant of CNN1/CNN2.
MAX_ENTRIES = 65536


class PlaintextCache:
    """Thread-safe LRU map from encoding keys to encoded plaintexts.

    Holds at most :data:`MAX_ENTRIES` plaintexts and counts
    ``plan.cache.hit`` / ``plan.cache.miss`` / ``plan.cache.evict``.
    """

    def __init__(self) -> None:
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def _count(self, event: str) -> None:
        # Imported lazily so repro.utils stays dependency-free at import
        # time; the registry lookup is a dict get under a lock.
        from repro.obs.metrics import get_registry

        get_registry().counter(f"plan.cache.{event}").inc()

    def get_or_encode(self, key: Hashable, encode: Callable[[], Any]) -> Any:
        """Return the cached plaintext for *key*, encoding it on first use.

        ``encode`` runs outside the lock (it may be expensive); if two
        threads race on the same cold key, one result wins and both
        callers observe an identical encoding (encoders are
        deterministic).
        """
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                hit = self._store[key]
            else:
                hit = _MISS
        if hit is not _MISS:
            self._count("hit")
            return hit
        self._count("miss")
        value = encode()
        with self._lock:
            self._store.setdefault(key, value)
            self._store.move_to_end(key)
            while len(self._store) > MAX_ENTRIES:
                self._store.popitem(last=False)
                self._count("evict")
            return self._store[key]

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._store

    def clear(self) -> None:
        """Drop every cached plaintext (counters are left untouched)."""
        with self._lock:
            self._store.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlaintextCache(entries={len(self._store)}, max={MAX_ENTRIES})"


_MISS = object()
