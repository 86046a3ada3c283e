"""Aggregation and report rendering, including end-to-end engine traces."""

import numpy as np

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import aggregate_spans, layer_rows, render_report
from repro.obs.tracer import Span, Tracer


def _tree_tracer() -> Tracer:
    t = Tracer()
    with t.span("root"):
        with t.span("child"):
            with t.span("leaf"):
                pass
        with t.span("child"):
            pass
    return t


def test_aggregate_counts_and_self_time():
    t = _tree_tracer()
    aggs = aggregate_spans(t)
    assert aggs["root"].count == 1
    assert aggs["child"].count == 2
    assert aggs["leaf"].count == 1
    # Self time excludes direct children: root self = root - both childs.
    by_name = {s.name: s for s in t.finished()}
    child_total = aggs["child"].total
    assert aggs["root"].self_total <= aggs["root"].total
    assert abs(aggs["root"].self_total - (aggs["root"].total - child_total)) < 1e-9
    # Sum of all self times equals the root wall-clock.
    self_sum = sum(a.self_total for a in aggs.values())
    assert abs(self_sum - by_name["root"].duration) < 1e-9


def test_layer_rows_ordered_by_start():
    t = Tracer()
    with t.span("henn.stage.evaluate"):
        with t.span("henn.layer", layer="HeConv2d", index=0):
            pass
        with t.span("henn.layer", layer="HePoly", index=1):
            pass
    rows = layer_rows(t)
    assert [n for n, _ in rows] == ["HeConv2d", "HePoly"]
    assert all(s >= 0 for _, s in rows)


def test_render_report_contains_primitive_and_layer_sections():
    t = Tracer()
    with t.span("henn.layer", layer="HeLinear", index=0):
        with t.span("ckksrns.mul"):
            pass
    reg = MetricsRegistry()
    reg.counter("span.ckksrns.mul.calls").inc()
    text = render_report(t, reg)
    assert "per-primitive breakdown" in text
    assert "ckksrns.mul" in text
    assert "per-layer breakdown" in text
    assert "HeLinear" in text
    assert "metrics" in text


def test_render_report_empty_tracer_is_safe():
    text = render_report(Tracer())
    assert "per-primitive breakdown" in text


def test_render_report_titles_busy_time_and_wall_clock_apart():
    """Parentless spans on worker threads are roots too: their summed
    time is thread-busy time, not wall-clock.  Two overlapping 1 s roots
    on two threads are 2 s busy inside a 1.5 s extent."""
    spans = [
        Span("shard", 10.0, 11.0, span_id=1, parent_id=None, thread_id=1),
        Span("shard", 10.5, 11.5, span_id=2, parent_id=None, thread_id=2),
    ]
    text = render_report(spans)
    assert "busy 2.0000 s over 2 thread(s), wall-clock 1.5000 s" in text
    # share % stays relative to busy time: the one row holds all of it.
    (row,) = [line for line in text.splitlines() if line.startswith("shard")]
    assert row.split("|")[-1].strip() == "100.0000"


def test_cluster_rows_summarise_pool_metrics():
    reg = MetricsRegistry()
    reg.counter("cluster.dispatches").inc(5)
    reg.counter("cluster.failovers").inc()
    reg.gauge("cluster.workers.ready").set(3)
    reg.histogram("cluster.batch.seconds").observe(0.2)
    reg.counter("serving.requests", {"outcome": "ok"}).inc()  # filtered out
    text = render_report(Tracer(), reg)
    title = "worker pool (dispatch / failover / respawn)"
    assert title in text
    table = text.split(title, 1)[1].split("\n\n", 1)[0]
    names = [line.split("|")[0].strip() for line in table.strip().splitlines()[2:]]
    assert names == ["cluster.batch.seconds", "cluster.dispatches", "cluster.failovers", "cluster.workers.ready"]
    # the serving counter has its own table, not this one
    assert "serving gateway (batch coalescing)" in text


def test_engine_trace_report_end_to_end():
    """A real (mock-backend) inference produces layer spans + report."""
    from repro.henn.backend import MockBackend
    from repro.henn.inference import HeInferenceEngine
    from repro.henn.layers import HeFlatten, HeLinear

    rng = np.random.default_rng(0)
    layers = [HeFlatten(), HeLinear(rng.normal(0, 0.4, (10, 4)), np.zeros(10))]
    eng = HeInferenceEngine(MockBackend(batch=4), layers, (1, 2, 2))
    x = rng.random((2, 1, 2, 2))

    with obs.tracing() as tracer:
        eng.classify(x)
    obs.disable()

    names = {s.name for s in tracer.finished()}
    assert {"henn.stage.encrypt", "henn.stage.evaluate", "henn.stage.decrypt"} <= names
    assert "henn.layer" in names
    # Fig. 5 layer view falls out of the tracer and brackets the
    # engine's own layer timings (read just outside each span).
    rows = layer_rows(tracer)
    assert [n for n, _ in rows] == ["HeFlatten", "HeLinear"]
    assert [n for n, _ in eng.layer_seconds] == ["HeFlatten", "HeLinear"]
    assert all(s >= span_s for (_, s), (_, span_s) in zip(eng.layer_seconds, rows))
    text = render_report(tracer)
    assert "henn.layer" in text


def test_engine_trace_available_without_global_tracing():
    """With the null tracer active, the engine still exposes layer timings."""
    from repro.henn.backend import MockBackend
    from repro.henn.inference import HeInferenceEngine
    from repro.henn.layers import HeFlatten, HeLinear

    obs.disable()
    rng = np.random.default_rng(1)
    layers = [HeFlatten(), HeLinear(rng.normal(0, 0.4, (10, 4)), np.zeros(10))]
    eng = HeInferenceEngine(MockBackend(batch=4), layers, (1, 2, 2))
    eng.classify(rng.random((2, 1, 2, 2)))
    assert [n for n, _ in eng.layer_seconds] == ["HeFlatten", "HeLinear"]
    assert sum(s for _, s in eng.layer_seconds) > 0
    assert len(obs.get_tracer()) == 0  # nothing leaked into the global tracer
