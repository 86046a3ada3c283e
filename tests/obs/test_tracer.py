"""Tracer semantics: nesting, threading, enable/disable, no-op overhead."""

import threading

import pytest

from repro import obs
from repro.obs import tracer as tracer_mod
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import aggregate_spans
from repro.obs.tracer import NullTracer, Tracer


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    obs.disable()
    yield
    obs.disable()


def test_nested_spans_record_parentage_and_timing():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner", tag="x"):
            pass
    spans = t.finished()
    assert [s.name for s in spans] == ["inner", "outer"]  # completion order
    inner_s, outer_s = spans
    assert inner_s.parent_id == outer_s.span_id
    assert outer_s.parent_id is None
    assert inner_s.tags == {"tag": "x"}
    assert 0 <= inner_s.duration <= outer_s.duration


def test_sibling_spans_share_parent():
    t = Tracer()
    with t.span("root"):
        with t.span("a"):
            pass
        with t.span("b"):
            pass
    by_name = {s.name: s for s in t.finished()}
    assert by_name["a"].parent_id == by_name["root"].span_id
    assert by_name["b"].parent_id == by_name["root"].span_id


def test_thread_workers_record_independent_stacks():
    t = Tracer()

    def work(i):
        with t.span("worker", idx=i):
            pass

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    with t.span("dispatch"):
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    workers = [s for s in t.finished() if s.name == "worker"]
    assert len(workers) == 8
    # Worker spans belong to their own threads: no parent from the main
    # thread's stack, distinct thread ids from the dispatcher's.
    dispatch = next(s for s in t.finished() if s.name == "dispatch")
    assert all(s.parent_id is None for s in workers)
    assert all(s.thread_id != dispatch.thread_id for s in workers)
    assert sorted(s.tags["idx"] for s in workers) == list(range(8))


def test_noop_mode_never_reads_clock(monkeypatch):
    """Disabled tracing must not call perf_counter — counted, not timed."""
    calls = {"n": 0}
    real = tracer_mod.perf_counter

    def counting_perf_counter():
        calls["n"] += 1
        return real()

    monkeypatch.setattr(tracer_mod, "perf_counter", counting_perf_counter)
    obs.disable()
    for _ in range(100):
        with obs.span("hot.kernel", channel=3):
            pass
    assert calls["n"] == 0
    assert len(obs.get_tracer()) == 0
    # Enabled: exactly two clock reads per span (start + end).
    t = obs.enable()
    for _ in range(10):
        with obs.span("hot.kernel"):
            pass
    assert calls["n"] == 20
    assert len(t) == 10


def test_null_tracer_singleton_span_and_empty_reads():
    nt = NullTracer()
    a = nt.span("x")
    b = nt.span("y", tag=1)
    assert a is b  # shared no-op handle, no allocation per call site
    assert nt.finished() == []
    assert len(nt) == 0
    nt.clear()  # no-op, must not raise


def test_enable_disable_and_scoped_tracing():
    assert not obs.enabled()
    t = obs.enable()
    assert obs.enabled() and obs.get_tracer() is t
    obs.disable()
    assert not obs.enabled()
    with obs.tracing() as scoped:
        assert obs.get_tracer() is scoped
        with obs.span("inside"):
            pass
    assert not obs.enabled()  # previous (null) tracer restored
    assert [s.name for s in scoped.finished()] == ["inside"]


def test_traced_decorator_fast_path_and_span_path():
    @obs.traced("deco.fn")
    def fn(x):
        return x + 1

    obs.disable()
    assert fn(1) == 2
    with obs.tracing() as t:
        assert fn(2) == 3
    assert [s.name for s in t.finished()] == ["deco.fn"]


def test_span_is_recorded_once_in_the_tracer():
    """A span lands in the tracer only: no ``span.*`` registry series
    mirrors it; counts and times come from :func:`aggregate_spans`."""
    from repro.obs.metrics import get_registry, set_registry

    prev = get_registry()
    reg = set_registry(MetricsRegistry())
    try:
        with obs.tracing() as t:
            with obs.span("op"):
                pass
            with obs.span("op"):
                pass
    finally:
        set_registry(prev)
    assert reg.names() == []
    agg = aggregate_spans(t)["op"]
    assert agg.count == 2 and agg.total >= 0


def test_dropped_span_counted_in_process():
    """A tracer inherited by a forked worker refuses to record, and
    counts the loss in the worker's registry (whose delta ships home)."""
    from repro.obs.metrics import get_registry, set_registry

    prev = get_registry()
    reg = set_registry(MetricsRegistry())
    try:
        tracer = Tracer()
        tracer._pid = -1  # as if this tracer had been copied by fork()
        with tracer.span("lost.span"):
            pass
        assert tracer.finished() == []
        assert reg.counter("obs.spans.dropped").value == 1
    finally:
        set_registry(prev)
