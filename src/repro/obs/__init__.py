"""Unified observability for the HE stack: tracing + metrics + serving.

The paper's claims are latency claims; this package is how the repo
accounts for latency — and, since the telemetry refactor, how a
serving process exposes its health.  The pieces:

* :mod:`repro.obs.tracer` — nested spans with a zero-overhead disabled
  default.  The CKKS/CKKS-RNS primitives, the NTT/CRT kernels, the
  channel executors and the inference engines are all instrumented, so
  enabling the tracer turns one encrypted classification into a span
  tree from ``henn.stage.*`` down to individual NTTs.  A span is
  recorded once, in the tracer; per-name counts and times are derived
  from the spans (:func:`aggregate_spans`).
* :mod:`repro.obs.metrics` — process-global counters/gauges/histograms
  for events that are not spans (cache hits, queue depths, ciphertext
  health), with labelled series and cross-process delta merging
  (``to_delta``/``merge_delta``) used by the :mod:`repro.serving.cluster`
  workers to ship their telemetry home into the gateway's totals.
* :mod:`repro.obs.health` — ciphertext-health gauges (scale, level,
  modulus-chain depth, noise margin) sampled at every ``henn`` layer
  boundary, plus the decrypt-side precision probe.
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — JSON and
  Chrome-trace serialisation, plus the per-primitive pretty-printer the
  benchmark harness writes next to each table.
* :mod:`repro.obs.prometheus` / :mod:`repro.obs.server` /
  :mod:`repro.obs.logs` — the scrape surface: text-exposition
  rendering, opt-in ``/metrics`` + ``/healthz`` + ``/debug/traces``
  endpoints, and structured JSON request-lifecycle logs.
* :mod:`repro.obs.rtrace` — request-scoped distributed tracing across
  the serving path: per-request trace contexts minted at gateway
  admission, stage spans (queue wait, pack, compute, split, failover),
  cross-process worker span shipping, head+tail sampling and the
  slowest-N trace store behind ``/debug/traces``.

Quick use::

    from repro import obs

    with obs.tracing() as tracer:
        engine.classify(images)
    print(obs.render_report(tracer))

See ``docs/OBSERVABILITY.md`` for the full worked example.
"""

from repro.obs.tracer import (
    NullTracer,
    Span,
    Tracer,
    disable,
    enable,
    enabled,
    get_tracer,
    set_tracer,
    span,
    traced,
    tracing,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metric_key,
    set_registry,
)
from repro.obs.health import ciphertext_health, observe_layer, precision_probe
from repro.obs.export import (
    TraceDump,
    dump_chrome_trace,
    dump_json,
    load_json,
    to_chrome_trace,
    trace_to_json,
)
from repro.obs.report import aggregate_spans, layer_rows, render_report
from repro.obs.prometheus import render_prometheus
from repro.obs.logs import JsonLogger, capture_logs, get_logger
from repro.obs.server import ObservabilityServer
from repro.obs.rtrace import (
    RequestTrace,
    RequestTracer,
    SamplingPolicy,
    TraceContext,
    TraceStore,
)

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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "metric_key",
    "ciphertext_health",
    "observe_layer",
    "precision_probe",
    "TraceDump",
    "to_chrome_trace",
    "trace_to_json",
    "dump_json",
    "load_json",
    "dump_chrome_trace",
    "aggregate_spans",
    "layer_rows",
    "render_report",
    "render_prometheus",
    "JsonLogger",
    "get_logger",
    "capture_logs",
    "ObservabilityServer",
    "RequestTrace",
    "RequestTracer",
    "SamplingPolicy",
    "TraceContext",
    "TraceStore",
]
