"""Process-global named counters, gauges and histograms.

Complements :mod:`repro.obs.tracer`: spans answer *where a particular
run spent its time*; the registry answers *how often and how expensive*
each operation is across runs, threads and engines.  All mutation is
lock-protected, so residue-channel workers on a thread executor can
bump the same counter concurrently.

Three metric kinds:

* :class:`Counter` — monotonic event count (``plan.cache.hit``).
* :class:`Gauge` — last-observed value of a sampled quantity
  (``henn.ct.scale_bits``); unlike a counter it can move both ways.
* :class:`Histogram` — raw float observations with exact summaries
  (``serving.batch.wait_seconds``).

Metrics may carry **labels** (``registry.gauge("henn.ct.level",
labels={"layer": "HeConv2d"})``): each distinct label set is its own
time series, keyed in the registry by the Prometheus-style flattened
name ``henn.ct.level{layer="HeConv2d"}``.  Labels survive snapshots and
the JSON trace round-trip and become real Prometheus labels in
:func:`repro.obs.prometheus.render_prometheus`.

Cross-process aggregation: a worker process records into its own
registry, serialises it with :meth:`MetricsRegistry.to_delta`, and the
parent folds it into its totals with :meth:`MetricsRegistry.merge_delta`.
Cluster workers do this with every batch reply
(:mod:`repro.serving.cluster`).
"""

from __future__ import annotations

import math
import random
import threading
import zlib
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "isolate_thread",
    "metric_key",
]


def metric_key(name: str, labels: Mapping[str, Any] | None = None) -> str:
    """Registry key of a metric: ``name`` or ``name{k="v",...}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Metric:
    """Name/label plumbing of the three kinds; :class:`MetricsRegistry` builds them."""

    __slots__ = ("name", "labels", "_lock")

    def __init__(self, name: str, labels: Mapping[str, Any] | None):
        self.name = name
        self.labels: dict[str, str] = {k: str(v) for k, v in (labels or {}).items()}
        self._lock = threading.Lock()

    @property
    def key(self) -> str:
        """Flattened registry key (name plus sorted labels)."""
        return metric_key(self.name, self.labels)

    def _base_dict(self, kind: str) -> dict[str, Any]:
        d: dict[str, Any] = {"type": kind}
        if self.labels:
            d["labels"] = dict(self.labels)
        return d


class Counter(_Metric):
    """Monotonic named counter."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: Mapping[str, Any] | None):
        super().__init__(name, labels)
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add *n* (must be >= 0) to the counter."""
        if n < 0:
            raise ValueError("counters only move forward")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def to_dict(self) -> dict[str, Any]:
        d = self._base_dict("counter")
        d["value"] = self.value
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.key}={self.value})"


class Gauge(_Metric):
    """Last-value metric for sampled quantities (can move both ways).

    The serving-health gauges (`henn.ct.*`: ciphertext scale, level,
    modulus-chain depth remaining, noise-budget estimate) are of this
    kind: each sample overwrites the previous one, and ``min``/``max``
    track the extremes seen since the last reset — the level *floor* a
    run touched matters more than the last value sampled.
    """

    __slots__ = ("_value", "_min", "_max", "_samples")

    def __init__(self, name: str, labels: Mapping[str, Any] | None):
        super().__init__(name, labels)
        self._value = math.nan
        self._min = math.inf
        self._max = -math.inf
        self._samples = 0

    def set(self, v: float) -> None:
        """Record the current value of the tracked quantity."""
        v = float(v)
        with self._lock:
            self._value = v
            self._min = min(self._min, v)
            self._max = max(self._max, v)
            self._samples += 1

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            d = self._base_dict("gauge")
            d["value"] = None if math.isnan(self._value) else self._value
            d["min"] = None if self._samples == 0 else self._min
            d["max"] = None if self._samples == 0 else self._max
            d["samples"] = self._samples
            return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.key}={self.value})"


class Histogram(_Metric):
    """Accumulates float observations; exposes count/sum/min/max/mean.

    ``count``/``total``/``min``/``max``/``mean`` are exact for any
    observation count.  The samples backing :meth:`percentile` and the
    ``p50``/``p90``/``p95``/``p99`` summary live in a **bounded
    reservoir** (Algorithm R, :attr:`RESERVOIR_SIZE` slots):
    below the cap every observation is kept and percentiles are exact;
    past it each new observation replaces a uniformly chosen slot, so
    the reservoir stays an unbiased sample of the full stream and the
    quantiles are statistically faithful while memory stays constant —
    what lets long-running serving processes keep latency histograms
    without unbounded growth.  The replacement RNG is seeded from the
    metric key, so runs are reproducible.
    """

    __slots__ = ("_reservoir", "_count", "_total", "_min", "_max", "_rng")

    #: Reservoir capacity; short profiling runs stay exact.
    RESERVOIR_SIZE = 4096

    def __init__(self, name: str, labels: Mapping[str, Any] | None):
        super().__init__(name, labels)
        self._reservoir: list[float] = []
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._rng = random.Random(zlib.crc32(self.key.encode("utf-8")))

    def _insert(self, x: float) -> None:
        """One observation into scalars + reservoir (caller holds lock)."""
        self._count += 1
        self._total += x
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x
        if len(self._reservoir) < self.RESERVOIR_SIZE:
            self._reservoir.append(x)
        else:
            j = self._rng.randrange(self._count)
            if j < self.RESERVOIR_SIZE:
                self._reservoir[j] = x

    def observe(self, x: float) -> None:
        """Record one observation."""
        x = float(x)
        with self._lock:
            self._insert(x)

    def observe_many(self, xs: Iterable[float]) -> None:
        """Record a batch of observations (one lock acquisition)."""
        xs = [float(x) for x in xs]
        with self._lock:
            for x in xs:
                self._insert(x)

    def samples(self) -> list[float]:
        """Copy of the retained reservoir (merge/serialisation hook)."""
        with self._lock:
            return list(self._reservoir)

    def absorb_delta(
        self,
        samples: Iterable[float],
        count: int | None = None,
        total: float | None = None,
        mn: float | None = None,
        mx: float | None = None,
    ) -> None:
        """Fold a shipped delta in: reservoir samples + exact scalars.

        *samples* feed the reservoir; *count*/*total*/*mn*/*mx* carry the
        shipper's exact scalars (which may exceed what its reservoir
        retained).  Omitted scalars are derived from *samples*, keeping
        old-format deltas (bare sample lists) mergeable.
        """
        xs = [float(x) for x in samples]
        n = len(xs) if count is None else int(count)
        t = sum(xs) if total is None else float(total)
        with self._lock:
            for x in xs:
                self._insert(x)
            # _insert counted the reservoir samples; correct the scalars
            # to the shipper's exact stream totals.
            self._count += n - len(xs)
            self._total += t - sum(xs)
            for bound in (mn, mx):
                if bound is not None:
                    b = float(bound)
                    self._min = min(self._min, b)
                    self._max = max(self._max, b)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else math.nan

    @property
    def mean(self) -> float:
        with self._lock:
            return self._total / self._count if self._count else math.nan

    def percentile(self, q: float) -> float:
        """*q*-th percentile (0 <= q <= 100) by nearest-rank.

        Exact while the stream fits the reservoir; an unbiased estimate
        beyond it.  Well-defined for every sample count: ``nan`` when
        empty, the sample itself for a single observation (every ``q``),
        otherwise the nearest-rank order statistic of the reservoir.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            if not self._reservoir:
                return math.nan
            ordered = sorted(self._reservoir)
        rank = max(0, math.ceil(q / 100 * len(ordered)) - 1)
        return ordered[rank]

    def summary(self) -> dict[str, Any]:
        """One consistent stats dict for any sample count.

        ``count``/``total`` are always (exact) numbers; the order
        statistics (``min``/``max``/``mean``/``p50``/``p90``/``p95``/
        ``p99``) are ``None`` for the empty histogram and all equal to
        the single sample when only one observation has been made — no
        ``nan`` leaks into JSON artifacts.
        """
        with self._lock:
            s = sorted(self._reservoir)
            count, total = self._count, self._total
            lo, hi = self._min, self._max
        if not count:
            return {
                "count": 0,
                "total": 0.0,
                "min": None,
                "max": None,
                "mean": None,
                "p50": None,
                "p90": None,
                "p95": None,
                "p99": None,
            }

        def rank(q: float) -> float:
            return s[max(0, math.ceil(q / 100 * len(s)) - 1)]

        return {
            "count": count,
            "total": total,
            "min": lo,
            "max": hi,
            "mean": total / count,
            "p50": rank(50),
            "p90": rank(90),
            "p95": rank(95),
            "p99": rank(99),
        }

    def to_dict(self) -> dict[str, Any]:
        d = self._base_dict("histogram")
        d.update(self.summary())
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.key}, n={self.count}, mean={self.mean:.6f})"


class MetricsRegistry:
    """Key-keyed store of counters, gauges and histograms (get-or-create).

    The same ``(name, labels)`` pair always returns the same object;
    distinct label sets of one name are distinct series.  The registry
    lock only guards the map — each metric carries its own lock — so a
    :meth:`snapshot` taken while worker merges are in flight sees a
    consistent per-metric state (each ``to_dict`` is atomic under the
    metric's lock) without stalling the writers.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, labels: Mapping[str, Any] | None = None) -> Counter:
        """The counter named *name* (with *labels*), creating it on first use."""
        return self._get(name, labels, Counter)  # type: ignore[return-value]

    def gauge(self, name: str, labels: Mapping[str, Any] | None = None) -> Gauge:
        """The gauge named *name* (with *labels*), creating it on first use."""
        return self._get(name, labels, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str, labels: Mapping[str, Any] | None = None) -> Histogram:
        """The histogram named *name* (with *labels*), creating it on first use."""
        return self._get(name, labels, Histogram)  # type: ignore[return-value]

    def _get(self, name: str, labels: Mapping[str, Any] | None, cls: type):
        key = metric_key(name, {k: str(v) for k, v in (labels or {}).items()})
        with self._lock:
            m = self._metrics.get(key)
            if m is None:
                m = self._metrics[key] = cls(name, labels)
            elif not isinstance(m, cls):
                raise TypeError(f"metric {key!r} already registered as {type(m).__name__}")
            return m

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def _items(self) -> list[tuple[str, "Counter | Gauge | Histogram"]]:
        with self._lock:
            return sorted(self._metrics.items())

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-ready dump of every metric's current state."""
        return {key: m.to_dict() for key, m in self._items()}

    # -- cross-process aggregation ----------------------------------------

    def to_delta(self) -> dict[str, dict[str, Any]]:
        """Serialise the registry as a mergeable delta.

        Unlike :meth:`snapshot` this keeps histograms as their retained
        reservoir samples *plus* the exact count/total/min/max scalars,
        so a parent-side :meth:`merge_delta` reconstructs faithful
        percentiles and exact stream totals rather than merging
        summaries.
        """
        out: dict[str, dict[str, Any]] = {}
        for key, m in self._items():
            entry: dict[str, Any] = {"name": m.name}
            if m.labels:
                entry["labels"] = dict(m.labels)
            if isinstance(m, Counter):
                entry.update(type="counter", value=m.value)
            elif isinstance(m, Gauge):
                d = m.to_dict()
                entry.update(type="gauge", value=d["value"], min=d["min"], max=d["max"])
            else:
                count = m.count
                entry.update(
                    type="histogram",
                    samples=m.samples(),
                    count=count,
                    total=m.total,
                    min=m.min if count else None,
                    max=m.max if count else None,
                )
            out[key] = entry
        return out

    def merge_delta(self, delta: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold a :meth:`to_delta` document into this registry.

        Counters add, histograms extend their samples, gauges adopt the
        delta's last value (and widen their min/max envelope).
        """
        for entry in delta.values():
            name = str(entry["name"])
            labels = entry.get("labels") or None
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name, labels).inc(int(entry.get("value", 0)))
            elif kind == "gauge":
                value = entry.get("value")
                g = self.gauge(name, labels)
                if value is not None:
                    g.set(float(value))
                    for bound in (entry.get("min"), entry.get("max")):
                        if bound is not None:
                            with g._lock:
                                g._min = min(g._min, float(bound))
                                g._max = max(g._max, float(bound))
            elif kind == "histogram":
                self.histogram(name, labels).absorb_delta(
                    entry.get("samples", ()),
                    count=entry.get("count"),
                    total=entry.get("total"),
                    mn=entry.get("min"),
                    mx=entry.get("max"),
                )

    def reset(self) -> None:
        """Drop every metric (names included)."""
        with self._lock:
            self._metrics.clear()


_REGISTRY = MetricsRegistry()


class _ThreadRegistry(threading.local):
    registry: "MetricsRegistry | None" = None  # a class default: no AttributeError to catch


_THREAD = _ThreadRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry, or the calling thread's own after
    :func:`isolate_thread`."""
    own = _THREAD.registry
    return _REGISTRY if own is None else own


def isolate_thread() -> None:
    """Give the calling thread a registry of its own that nothing reads.

    The initializer of the CKKS-RNS backend's position-shard threads: a
    shard repeats the calling thread's logical operation on other
    positions, so its counts would only multiply the caller's.
    """
    _THREAD.registry = MetricsRegistry()


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as the process-global registry and return it.

    Used by the cluster worker (:mod:`repro.serving.cluster`): it
    installs a fresh registry at start and after every shipped delta,
    so each batch's metrics arrive home as an isolated, serialisable
    delta.
    """
    global _REGISTRY
    _REGISTRY = registry
    return _REGISTRY
