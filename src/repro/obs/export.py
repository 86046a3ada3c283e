"""Serialise traces: plain JSON (round-trippable) and Chrome trace events.

Two formats, two audiences:

* :func:`trace_to_json` / :func:`load_json` — lossless span + metrics
  dump for artifacts and offline analysis (this is what the benchmark
  harness writes next to each table).
* :func:`to_chrome_trace` — the Chrome/Perfetto ``traceEvents`` format;
  load the file at ``chrome://tracing`` or https://ui.perfetto.dev to
  see the encrypted-inference flame graph, one track per thread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer, _spans_of

__all__ = [
    "TraceDump",
    "to_chrome_trace",
    "trace_to_json",
    "dump_json",
    "load_json",
    "dump_chrome_trace",
]

#: Format marker written into every JSON dump.
FORMAT = "repro.obs/1"


@dataclass
class TraceDump:
    """Deserialised trace artifact: spans plus a metrics snapshot."""

    spans: list[Span] = field(default_factory=list)
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)


def to_chrome_trace(source: Tracer | Iterable[Span]) -> dict[str, Any]:
    """Spans as a Chrome ``traceEvents`` document (complete 'X' events).

    Thread ids are compressed to small consecutive integers so the
    viewer's track names stay readable; timestamps are microseconds
    relative to the earliest span.  A span carrying a ``pid`` tag (the
    cross-process request traces of :mod:`repro.obs.rtrace`) lands in
    that process's track group, so a merged gateway+worker trace renders
    one lane per process; untagged spans keep pid 0.
    """
    spans = _spans_of(source)
    t0 = min((s.start for s in spans), default=0.0)
    tids: dict[int, int] = {}
    events = []
    for s in spans:
        tid = tids.setdefault(s.thread_id, len(tids))
        args: dict[str, Any] = {k: _jsonable(v) for k, v in s.tags.items()}
        args["span_id"] = s.span_id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        try:
            pid = int(s.tags.get("pid", 0))
        except (TypeError, ValueError):
            pid = 0
        events.append(
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _jsonable(v: Any) -> Any:
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def trace_to_json(
    source: Tracer | Iterable[Span], metrics: MetricsRegistry | None = None
) -> dict[str, Any]:
    """Lossless JSON document: ``{"format", "spans", "metrics"}``."""
    spans = _spans_of(source)
    return {
        "format": FORMAT,
        "spans": [s.to_dict() for s in spans],
        "metrics": metrics.snapshot() if metrics is not None else {},
    }


def dump_json(
    path: str | Path,
    source: Tracer | Iterable[Span],
    metrics: MetricsRegistry | None = None,
) -> Path:
    """Write :func:`trace_to_json` to *path*; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(trace_to_json(source, metrics), indent=1))
    return path


def load_json(path: str | Path) -> TraceDump:
    """Inverse of :func:`dump_json`."""
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != FORMAT:
        raise ValueError(f"not a repro.obs trace dump: {path}")
    return TraceDump(
        spans=[Span.from_dict(d) for d in doc["spans"]],
        metrics=doc.get("metrics", {}),
    )


def dump_chrome_trace(path: str | Path, source: Tracer | Iterable[Span]) -> Path:
    """Write :func:`to_chrome_trace` to *path*; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(source)))
    return path
