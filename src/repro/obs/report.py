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
from repro.obs.tracer import Span, Tracer, _spans_of

__all__ = [
    "SpanAggregate",
    "aggregate_spans",
    "layer_rows",
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


#: The registry tables of :func:`render_report`: ``(metric prefix,
#: first-column header, title)``.  Each is empty, and left out, when
#: nothing under its prefix ran.
_PREFIX_TABLES = (
    ("serving.", "serving metric", "serving gateway (batch coalescing)"),
    ("cluster.", "cluster metric", "worker pool (dispatch / failover / respawn)"),
    ("rtrace.", "serving stage", "request tracing (per-stage latency, rtrace.*)"),
)


def _prefixed_rows(metrics: MetricsRegistry, prefix: str) -> list[list]:
    """One row per series under *prefix*: histograms show count / mean /
    p50 / p95 / p99, gauges and counters their value."""
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
) -> str:
    """Pretty per-primitive (and, when present, per-layer) breakdown.

    The primitive table is ranked by self time — the ordering that says
    which kernel to optimise next; ``share %`` is self time relative to
    the summed root spans.  Spans recorded on worker threads (position
    shards, executor channels) have no parent, so they are roots too:
    that sum is *busy* time over every recording thread, and the title
    gives it next to the wall-clock extent of the trace.
    """
    spans = _spans_of(source)
    aggs = aggregate_spans(spans)
    roots = [s for s in spans if s.parent_id is None]
    busy = sum(s.duration for s in roots)
    wall = max(s.end for s in spans) - min(s.start for s in spans) if spans else 0.0
    threads = len({s.thread_id for s in roots})
    sections = ["repro.obs trace report"]

    rows = [
        [
            a.name,
            a.count,
            a.total,
            a.self_total,
            a.mean * 1e3,
            (100.0 * a.self_total / busy) if busy else 0.0,
        ]
        for a in sorted(aggs.values(), key=lambda a: a.self_total, reverse=True)
    ]
    sections.append(
        format_table(
            ["span", "calls", "incl s", "self s", "mean ms", "share %"],
            rows,
            f"per-primitive breakdown (busy {busy:.4f} s over {threads} thread(s), "
            f"wall-clock {wall:.4f} s)",
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

    if metrics is None:
        return "\n\n".join(sections)
    for prefix, header, title in _PREFIX_TABLES:
        prows = _prefixed_rows(metrics, prefix)
        if prows:
            sections.append(
                format_table([header, "n", "value/mean", "p50", "p95", "p99"], prows, title)
            )

    if metrics.names():
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

    return "\n\n".join(sections)
