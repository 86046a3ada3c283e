"""Aggregate span collections into human-readable breakdown tables.

The per-primitive view is the one the paper's Fig. 5 motivates: group
spans by name, sum inclusive and *self* time (inclusive minus direct
children), and rank by where the wall-clock actually went — NTTs vs.
key switching vs. executor dispatch vs. layer overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer

__all__ = [
    "SpanAggregate",
    "aggregate_spans",
    "layer_rows",
    "serving_rows",
    "cluster_rows",
    "stage_rows",
    "render_report",
    "format_table",
]


@dataclass
class SpanAggregate:
    """Rolled-up statistics for all spans sharing one name."""

    name: str
    count: int = 0
    total: float = 0.0
    self_total: float = 0.0
    min: float = float("inf")
    max: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _spans_of(source: Tracer | Iterable[Span]) -> list[Span]:
    if isinstance(source, Tracer):
        return source.finished()
    return list(source)


def aggregate_spans(source: Tracer | Iterable[Span]) -> dict[str, SpanAggregate]:
    """Group spans by name with inclusive and self (exclusive) totals.

    Self time of a span is its duration minus the summed durations of
    its *direct* children, so per-primitive rows do not double-count
    nested work (e.g. the NTTs inside a key switch).
    """
    spans = _spans_of(source)
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration
    out: dict[str, SpanAggregate] = {}
    for s in spans:
        agg = out.get(s.name)
        if agg is None:
            agg = out[s.name] = SpanAggregate(s.name)
        d = s.duration
        agg.count += 1
        agg.total += d
        agg.self_total += max(0.0, d - child_time.get(s.span_id, 0.0))
        agg.min = min(agg.min, d)
        agg.max = max(agg.max, d)
    return out


def layer_rows(source: Tracer | Iterable[Span]) -> list[tuple[str, float]]:
    """Per-layer ``(label, seconds)`` rows from ``henn.layer`` spans, in order."""
    rows = []
    for s in sorted(_spans_of(source), key=lambda s: s.start):
        if s.name == "henn.layer":
            label = str(s.tags.get("layer", "?"))
            rows.append((label, s.duration))
    return rows


def serving_rows(metrics: MetricsRegistry) -> list[list]:
    """Serving-gateway summary rows from the ``serving.*`` metrics.

    One row per series: histograms show count / mean / p50 / p99 (the
    batching trade-off in four numbers — how full batches get and what
    the coalescing wait costs), gauges and counters their value.
    Empty when no batching gateway ran.
    """
    return _prefixed_rows(metrics, "serving.")


def cluster_rows(metrics: MetricsRegistry) -> list[list]:
    """Worker-pool summary rows from the ``cluster.*`` metrics.

    The failover story in numbers: dispatches vs. failovers vs. worker
    deaths/respawns, per-worker health and in-flight gauges, batch and
    warm-up timings.  Empty when no cluster gateway ran.
    """
    return _prefixed_rows(metrics, "cluster.")


def stage_rows(metrics: MetricsRegistry) -> list[list]:
    """Serving-stage summary rows from the ``rtrace.*`` request tracing.

    Where a request's latency goes, stage by stage: one histogram row
    per ``rtrace.stage.<name>.seconds`` series (gateway admission,
    queue wait, pack, compute, split, failover retries) plus the
    end-to-end ``rtrace.request.seconds`` and the sampling counters.
    Empty when request tracing never ran.
    """
    return _prefixed_rows(metrics, "rtrace.")


def _prefixed_rows(metrics: MetricsRegistry, prefix: str) -> list[list]:
    rows: list[list] = []
    for key, m in sorted(metrics.snapshot().items()):
        if not key.startswith(prefix):
            continue
        if m["type"] == "histogram":
            if m["count"]:
                rows.append(
                    [
                        key,
                        m["count"],
                        f"{m['mean']:.6g}",
                        f"{m['p50']:.6g}",
                        f"{m['p95']:.6g}",
                        f"{m['p99']:.6g}",
                    ]
                )
            else:
                rows.append([key, 0, "-", "-", "-", "-"])
        elif m["type"] == "gauge":
            v = m["value"]
            rows.append(
                [key, m.get("samples", ""), f"{v:.6g}" if v is not None else "-", "", "", ""]
            )
        else:
            rows.append([key, "", str(m["value"]), "", "", ""])
    return rows


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Monospace table (same layout as the benchmark tables)."""
    cells = [[str(h) for h in headers]] + [
        [f"{c:.4f}" if isinstance(c, float) else str(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = [title] if title else []
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_report(
    source: Tracer | Iterable[Span],
    metrics: MetricsRegistry | None = None,
    title: str = "repro.obs trace report",
) -> str:
    """Pretty per-primitive (and, when present, per-layer) breakdown.

    The primitive table is ranked by self time — the ordering that says
    which kernel to optimise next; ``share %`` is self time relative to
    the summed root spans (total traced wall-clock).
    """
    spans = _spans_of(source)
    aggs = aggregate_spans(spans)
    root_total = sum(s.duration for s in spans if s.parent_id is None)
    sections = [title]

    rows = [
        [
            a.name,
            a.count,
            a.total,
            a.self_total,
            a.mean * 1e3,
            (100.0 * a.self_total / root_total) if root_total else 0.0,
        ]
        for a in sorted(aggs.values(), key=lambda a: a.self_total, reverse=True)
    ]
    sections.append(
        format_table(
            ["span", "calls", "incl s", "self s", "mean ms", "share %"],
            rows,
            f"per-primitive breakdown (root wall-clock {root_total:.4f} s)",
        )
    )

    layers = layer_rows(spans)
    if layers:
        sections.append(
            format_table(
                ["layer", "seconds"],
                [[n, s] for n, s in layers],
                "per-layer breakdown (henn.layer spans)",
            )
        )

    srows = serving_rows(metrics) if metrics is not None else []
    if srows:
        sections.append(
            format_table(
                ["serving metric", "n", "value/mean", "p50", "p95", "p99"],
                srows,
                "serving gateway (batch coalescing)",
            )
        )

    crows = cluster_rows(metrics) if metrics is not None else []
    if crows:
        sections.append(
            format_table(
                ["cluster metric", "n", "value/mean", "p50", "p95", "p99"],
                crows,
                "worker pool (dispatch / failover / respawn)",
            )
        )

    trows = stage_rows(metrics) if metrics is not None else []
    if trows:
        sections.append(
            format_table(
                ["serving stage", "n", "value/mean", "p50", "p95", "p99"],
                trows,
                "request tracing (per-stage latency, rtrace.*)",
            )
        )

    if metrics is not None and metrics.names():
        mrows = []
        for name, m in metrics.snapshot().items():
            if m["type"] == "counter":
                mrows.append([name, m["value"], ""])
            elif m["type"] == "gauge":
                value = m["value"]
                detail = ""
                if m.get("min") is not None and m.get("min") != m.get("max"):
                    detail = f"min={m['min']:.6g} max={m['max']:.6g}"
                mrows.append(
                    [name, f"{value:.6g}" if value is not None else "-", detail]
                )
            else:
                mean = m["mean"]
                mrows.append([name, m["count"], f"mean={mean:.6f}" if mean is not None else ""])
        sections.append(format_table(["metric", "count/value", "detail"], mrows, "metrics"))

    workers = metrics.per_worker() if metrics is not None else {}
    if workers:
        # Merged totals above; this is each cluster worker's
        # contribution, as shipped back with its batch replies.
        wrows = []
        for worker in sorted(workers):
            for name, m in sorted(workers[worker].items()):
                if m["type"] == "counter":
                    wrows.append([worker, name, m["value"], ""])
                elif m["type"] == "gauge":
                    v = m.get("value")
                    wrows.append([worker, name, f"{v:.6g}" if v is not None else "-", ""])
                else:
                    total = m.get("total", 0.0)
                    wrows.append([worker, name, m.get("count", 0), f"total={total:.6f}"])
        sections.append(
            format_table(
                ["worker", "metric", "count/value", "detail"],
                wrows,
                "per-worker metrics (merged into the totals above)",
            )
        )

    return "\n\n".join(sections)
