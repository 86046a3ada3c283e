"""Request-scoped distributed tracing: sampling, stages, cross-process merge."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.obs.export import to_chrome_trace
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.rtrace import (
    CAPACITY,
    MIN_RING,
    SLOW_FACTOR,
    SLOWEST_N,
    STAGES,
    RequestTrace,
    RequestTracer,
    SamplingPolicy,
    TraceContext,
    TraceStore,
    batch_stage,
)
from repro.obs.tracer import Span


@pytest.fixture(autouse=True)
def registry():
    """An isolated global registry: the request tracer reads it at use time."""
    prev = get_registry()
    reg = set_registry(MetricsRegistry())
    try:
        yield reg
    finally:
        set_registry(prev)


def make_tracer(rate=1.0) -> RequestTracer:
    return RequestTracer(policy=SamplingPolicy(rate=rate, seed=7))


# -- sampling policy ---------------------------------------------------------


def test_policy_validates_parameters():
    with pytest.raises(ValueError):
        SamplingPolicy(rate=1.5)
    with pytest.raises(ValueError):
        SamplingPolicy(rate=-0.1)


def test_policy_head_decision_extremes():
    assert not SamplingPolicy(rate=0.0).enabled
    assert not SamplingPolicy(rate=0.0).head_decision()
    on = SamplingPolicy(rate=1.0)
    assert on.enabled and all(on.head_decision() for _ in range(50))


def test_policy_keep_reasons():
    policy = SamplingPolicy(rate=0.5)
    assert policy.keep_reason(sampled=True, outcome="ok", seconds=0.1) == "head"
    assert policy.keep_reason(sampled=False, outcome="error", seconds=0.1) == "error"
    # Ring still warming: no slow-tail verdicts yet.
    assert policy.slow_threshold() is None
    assert policy.keep_reason(sampled=False, outcome="ok", seconds=99.0) is None
    for _ in range(MIN_RING - 1):
        policy.note_latency(0.1)
    assert policy.slow_threshold() is None
    policy.note_latency(0.1)
    bound = SLOW_FACTOR * 0.1
    assert policy.slow_threshold() == pytest.approx(bound)
    assert policy.keep_reason(sampled=False, outcome="ok", seconds=1.25 * bound) == "slow"
    assert policy.keep_reason(sampled=False, outcome="ok", seconds=0.75 * bound) is None


def test_disabled_policy_keeps_nothing():
    policy = SamplingPolicy(rate=0.0)
    assert policy.keep_reason(sampled=False, outcome="error", seconds=9.0) is None


# -- trace context -----------------------------------------------------------


def test_unsampled_context_records_timings_but_no_spans():
    ctx = TraceContext("t-1", 1, sampled=False)
    ctx.add_stage("queue_wait", 1.0, 1.25)
    ctx.add_stage("queue_wait", 2.0, 2.25)
    assert ctx.stages() == {"queue_wait": pytest.approx(0.5)}
    assert ctx.spans() == []


def test_sampled_context_records_spans_under_root():
    ctx = TraceContext("t-2", 2, sampled=True)
    with ctx.stage("pack", batch=3):
        pass
    ctx.add_stage("compute", 1.0, 2.0, outcome="ok")
    spans = ctx.spans()
    assert [s.name for s in spans] == ["rtrace.pack", "rtrace.compute"]
    assert all(s.parent_id == ctx.root_id for s in spans)
    assert all(s.tags["pid"] == os.getpid() for s in spans)
    assert spans[0].tags["batch"] == 3


def test_batch_stage_attributes_to_every_live_context():
    sampled = TraceContext("t-3", 3, sampled=True)
    timed = TraceContext("t-4", 4, sampled=False)
    with batch_stage([sampled, None, timed], "pack"):
        pass
    assert "pack" in sampled.stages() and "pack" in timed.stages()
    assert len(sampled.spans()) == 1 and timed.spans() == []


def test_absorb_worker_spans_remaps_and_reparents():
    ctx = TraceContext("t-5", 5, sampled=True)
    # Worker span ids deliberately collide with plausible gateway ids
    # (fork copies the counter); 11 is the worker-local root.
    shipped = [
        Span("w.root", 10.0, 11.0, span_id=11, parent_id=None, thread_id=1).to_dict(),
        Span("w.child", 10.2, 10.8, span_id=12, parent_id=11, thread_id=1).to_dict(),
        Span("w.orphan", 10.1, 10.3, span_id=13, parent_id=99, thread_id=1).to_dict(),
    ]
    ctx.absorb_worker_spans(shipped, worker="worker-0", pid=4242, align_end=21.0)
    spans = {s.name: s for s in ctx.spans()}
    assert len(spans) == 3
    root, child, orphan = spans["w.root"], spans["w.child"], spans["w.orphan"]
    # Fresh ids, parent links rewritten through the same remap.
    assert root.span_id not in (11, 12, 13)
    assert child.parent_id == root.span_id
    # Unknown parents re-parent under the request root.
    assert root.parent_id == ctx.root_id and orphan.parent_id == ctx.root_id
    assert all(s.tags["worker"] == "worker-0" for s in spans.values())
    assert all(s.tags["pid"] == 4242 for s in spans.values())
    # Clock alignment: the latest shipped end lands on align_end, and
    # relative offsets inside the shipment are preserved.
    assert root.end == pytest.approx(21.0)
    assert root.start == pytest.approx(20.0)
    assert child.duration == pytest.approx(0.6)


def test_absorb_worker_spans_noop_when_unsampled():
    ctx = TraceContext("t-6", 6, sampled=False)
    shipped = [Span("w", 0.0, 1.0, span_id=1, parent_id=None, thread_id=1).to_dict()]
    ctx.absorb_worker_spans(shipped, worker="worker-0")
    assert ctx.spans() == []


# -- store -------------------------------------------------------------------


def _record(trace_id: str, seconds: float) -> RequestTrace:
    return RequestTrace(
        trace_id=trace_id,
        request_id=1,
        sampled=True,
        outcome="ok",
        seconds=seconds,
        kept="head",
    )


def test_store_bounds_recent_and_pins_slowest():
    store = TraceStore()
    # One more slow trace than the store pins, then a ring's worth of fast ones.
    for i in range(SLOWEST_N + 1):
        store.record(_record(f"slow-{i}", seconds=100.0 + i))
    for i in range(CAPACITY):
        store.record(_record(f"fast-{i}", seconds=0.001 * i))
    assert len(store) == CAPACITY
    assert [t.trace_id for t in store.recent()] == [f"fast-{i}" for i in range(CAPACITY)]
    assert [t.trace_id for t in store.recent(2)] == [f"fast-{CAPACITY - 2}", f"fast-{CAPACITY - 1}"]
    # Slow exemplars survive eviction from the recent ring; the fastest slow one fell off.
    want = [f"slow-{i}" for i in range(SLOWEST_N, 0, -1)]
    assert [t.trace_id for t in store.slowest()] == want
    assert store.get(f"slow-{SLOWEST_N}").seconds == 100.0 + SLOWEST_N
    assert store.get("slow-0") is None and store.get("nope") is None
    snap = store.snapshot()
    assert snap["total_recorded"] == SLOWEST_N + 1 + CAPACITY and snap["stored"] == CAPACITY
    assert snap["slowest"][0]["trace_id"] == f"slow-{SLOWEST_N}"


def test_request_trace_round_trips_through_dict():
    trace = _record("t-rt", 1.5)
    trace.stages = {"compute": 1.2}
    trace.spans = [Span("rtrace.request", 0.0, 1.5, 1, None, 1, {"pid": 7})]
    clone = RequestTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
    assert clone.trace_id == "t-rt" and clone.stages == {"compute": 1.2}
    assert clone.spans[0].tags["pid"] == 7 and clone.pids == [7]


# -- request tracer ----------------------------------------------------------


def test_mint_returns_none_when_disabled():
    tracer = RequestTracer()  # default rate=0
    assert not tracer.enabled
    assert tracer.mint(1) is None
    assert tracer.finish(None, "ok") is None
    assert len(tracer.store) == 0


def test_finish_is_idempotent_and_records_head_samples():
    tracer = make_tracer(rate=1.0)
    ctx = tracer.mint(1)
    ctx.add_stage("compute", 0.0, 0.5)
    first = tracer.finish(ctx, "ok")
    assert first is not None and first.kept == "head"
    assert tracer.finish(ctx, "ok") is None  # second close: no-op
    assert len(tracer.store) == 1
    # The closing root span makes the tree whole.
    names = [s.name for s in first.spans]
    assert "rtrace.request" in names
    root = next(s for s in first.spans if s.name == "rtrace.request")
    assert root.span_id == ctx.root_id and root.tags["outcome"] == "ok"


def test_tail_keeps_errors_even_when_head_skipped():
    tracer = make_tracer(rate=1.0)
    ctx = tracer.mint(1)
    ctx.sampled = False  # simulate a head-skip without racing the RNG
    ctx.root_id = None
    record = tracer.finish(ctx, "error", error_code="WorkerLostError")
    assert record is not None and record.kept == "error"
    assert record.error_code == "WorkerLostError"
    assert record.spans == []  # tail-kept: timings only, no spans


def test_finish_observes_stage_histograms_and_counters(registry):
    reg = registry
    tracer = RequestTracer(SamplingPolicy(rate=1.0))
    ctx = tracer.mint(1)
    ctx.add_stage("queue_wait", 0.0, 0.25)
    tracer.finish(ctx, "ok")
    assert reg.counter("rtrace.minted").value == 1
    assert reg.counter("rtrace.sampled").value == 1
    assert reg.counter("rtrace.kept", {"reason": "head"}).value == 1
    assert reg.histogram("rtrace.request.seconds").count == 1
    assert reg.histogram("rtrace.stage.queue_wait.seconds").count == 1


def test_stage_vocabulary_is_stable():
    assert STAGES == (
        "gateway",
        "queue_wait",
        "pack",
        "compute",
        "split",
        "failover_retry",
    )


# -- chrome round-trip of a cross-process merged trace (satellite) -----------


def test_cross_process_merge_round_trips_through_chrome_trace():
    tracer = make_tracer(rate=1.0)
    ctx = tracer.mint(1)
    ctx.add_stage("queue_wait", 0.0, 0.1)
    shipped = [
        Span("w.eval", 5.0, 5.9, span_id=2, parent_id=None, thread_id=9).to_dict(),
        Span("w.ntt", 5.1, 5.4, span_id=3, parent_id=2, thread_id=9).to_dict(),
    ]
    ctx.absorb_worker_spans(shipped, worker="worker-1", pid=999, align_end=0.95)
    record = tracer.finish(ctx, "ok")
    assert record.pids == sorted([os.getpid(), 999])

    doc = json.loads(json.dumps(to_chrome_trace(record.spans)))  # valid JSON
    events = doc["traceEvents"]
    by_name = {ev["name"]: ev for ev in events}
    # One track group per process: gateway spans on this pid, worker's on 999.
    assert by_name["rtrace.queue_wait"]["pid"] == os.getpid()
    assert by_name["rtrace.request"]["pid"] == os.getpid()
    assert by_name["w.eval"]["pid"] == 999 and by_name["w.ntt"]["pid"] == 999
    # Parent links survive the remap into the export args.
    assert by_name["w.ntt"]["args"]["parent_id"] == by_name["w.eval"]["args"]["span_id"]
    assert by_name["w.eval"]["args"]["parent_id"] == by_name["rtrace.request"]["args"]["span_id"]
    # Alignment shifted the worker clock domain onto the gateway's:
    # w.eval now ends at align_end (0.95), i.e. 0.05..0.95 against the
    # queue_wait span's 0.0 origin (microsecond timestamps).
    eval_ev = by_name["w.eval"]
    assert eval_ev["ts"] == pytest.approx(0.05e6)
    assert eval_ev["ts"] + eval_ev["dur"] == pytest.approx(0.95e6)


def test_concurrent_stage_recording_is_thread_safe():
    ctx = TraceContext("t-mt", 1, sampled=True)

    def hammer(name):
        for _ in range(200):
            ctx.add_stage(name, 0.0, 0.001)

    threads = [threading.Thread(target=hammer, args=(f"s{i}",)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stages = ctx.stages()
    assert all(stages[f"s{i}"] == pytest.approx(0.2) for i in range(4))
    assert len(ctx.spans()) == 800
