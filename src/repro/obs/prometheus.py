"""Prometheus text-exposition rendering of a :class:`MetricsRegistry`.

The registry's dotted names map onto the Prometheus data model as:

* ``Counter`` → ``counter``; the sample name gains the conventional
  ``_total`` suffix (``plan.cache.hit`` → ``repro_plan_cache_hit_total``).
* ``Gauge`` → ``gauge`` (``henn.ct.level`` → ``repro_henn_ct_level``).
* ``Histogram`` → ``summary`` with exact ``quantile`` labels (the
  registry keeps raw samples) plus ``_sum``/``_count``.

Metric labels become real Prometheus labels; every series of one name
is grouped under a single ``# TYPE`` header, as the exposition format
requires.  :func:`render_prometheus` is what the ``/metrics`` endpoint
of :class:`repro.obs.server.ObservabilityServer` serves.
"""

from __future__ import annotations

import math
import re
from typing import Any, Mapping

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["render_prometheus", "prometheus_name"]

#: Content type Prometheus scrapers expect for this format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Quantiles exposed for each histogram (exact while the stream fits the
#: reservoir; unbiased estimates beyond it).
_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def prometheus_name(name: str) -> str:
    """Dotted registry name → a valid Prometheus metric name.

    Every name starts with ``repro_``, so none starts with a digit.
    """
    return "repro_" + _NAME_RE.sub("_", name.strip())


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(labels: Mapping[str, Any], extra: Mapping[str, Any] | None = None) -> str:
    merged: dict[str, str] = {str(k): str(v) for k, v in labels.items()}
    for k, v in (extra or {}).items():
        merged[str(k)] = str(v)
    if not merged:
        return ""
    inner = ",".join(
        f'{_NAME_RE.sub("_", k)}="{_escape(v)}"' for k, v in sorted(merged.items())
    )
    return f"{{{inner}}}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition format (version 0.0.4).

    Series sharing a base name (label variants) are grouped under one
    ``# TYPE`` header; output is sorted, so the text is diffable across
    scrapes.  Returns a document ending in a newline, ready to serve
    with :data:`CONTENT_TYPE`.
    """
    groups: dict[str, list[Counter | Gauge | Histogram]] = {}
    for _, metric in registry._items():
        groups.setdefault(metric.name, []).append(metric)

    lines: list[str] = []
    for name in sorted(groups):
        metrics = groups[name]
        kind = type(metrics[0])
        base = prometheus_name(name)
        if kind is Counter:
            lines.append(f"# TYPE {base}_total counter")
            for m in metrics:
                lines.append(f"{base}_total{_labels(m.labels)} {m.value}")
        elif kind is Gauge:
            lines.append(f"# TYPE {base} gauge")
            for m in metrics:
                v = m.value
                if v != v:  # never sampled: skip rather than emit NaN
                    continue
                lines.append(f"{base}{_labels(m.labels)} {_fmt(v)}")
        else:
            lines.append(f"# TYPE {base} summary")
            for m in metrics:
                s = m.summary()
                for q in _QUANTILES:
                    value = m.percentile(q * 100)
                    if value != value:
                        continue
                    lines.append(
                        f"{base}{_labels(m.labels, {'quantile': q})} {_fmt(value)}"
                    )
                lines.append(f"{base}_sum{_labels(m.labels)} {_fmt(s['total'])}")
                lines.append(f"{base}_count{_labels(m.labels)} {s['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
