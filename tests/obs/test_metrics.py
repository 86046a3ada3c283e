"""Counters, gauges and histograms: aggregation, thread safety, registry semantics."""

import math

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, metric_key
from repro.parallel import ThreadExecutor


def test_counter_basics():
    c = MetricsRegistry().counter("x")
    c.inc()
    c.inc(5)
    assert c.value == 6
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.to_dict() == {"type": "counter", "value": 6}


def test_histogram_statistics():
    h = MetricsRegistry().histogram("lat")
    for v in [3.0, 1.0, 2.0]:
        h.observe(v)
    assert h.count == 3
    assert h.total == 6.0
    assert h.min == 1.0 and h.max == 3.0
    assert h.mean == 2.0
    assert h.percentile(0) == 1.0
    assert h.percentile(50) == 2.0
    assert h.percentile(100) == 3.0
    with pytest.raises(ValueError):
        h.percentile(101)


def test_empty_histogram_is_nan_not_crash():
    h = MetricsRegistry().histogram("empty")
    assert math.isnan(h.mean) and math.isnan(h.min) and math.isnan(h.max)
    assert math.isnan(h.percentile(50))
    d = h.to_dict()
    assert d["count"] == 0 and d["mean"] is None


def test_registry_get_or_create_and_type_conflict():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.histogram("b") is reg.histogram("b")
    with pytest.raises(TypeError):
        reg.histogram("a")
    assert reg.names() == ["a", "b"]
    reg.reset()
    assert reg.names() == []


def test_aggregation_across_thread_workers():
    """Residue-channel workers bump shared metrics without losing updates."""
    reg = MetricsRegistry()
    n_items, per_item = 64, 25

    def work(i):
        for _ in range(per_item):
            reg.counter("channels.processed").inc()
        reg.histogram("channel.seconds").observe(float(i))
        return i

    with ThreadExecutor(workers=8) as ex:
        out = ex.map(work, list(range(n_items)))
    assert out == list(range(n_items))
    assert reg.counter("channels.processed").value == n_items * per_item
    h = reg.histogram("channel.seconds")
    assert h.count == n_items
    assert h.total == sum(range(n_items))


def test_snapshot_is_json_shaped():
    reg = MetricsRegistry()
    reg.counter("c").inc(3)
    reg.histogram("h").observe(1.5)
    snap = reg.snapshot()
    assert snap["c"] == {"type": "counter", "value": 3}
    assert snap["h"]["type"] == "histogram"
    assert snap["h"]["count"] == 1 and snap["h"]["mean"] == 1.5


def test_gauge_set_and_envelope():
    g = MetricsRegistry().gauge("level")
    assert math.isnan(g.value)
    assert g.to_dict() == {"type": "gauge", "value": None, "min": None, "max": None, "samples": 0}
    g.set(4.0)
    g.set(2.0)
    g.set(3.0)
    assert g.value == 3.0
    d = g.to_dict()
    assert d["min"] == 2.0 and d["max"] == 4.0 and d["samples"] == 3


def test_labelled_metrics_are_distinct_series():
    reg = MetricsRegistry()
    a = reg.gauge("henn.ct.level", {"layer": "HeConv2d"})
    b = reg.gauge("henn.ct.level", {"layer": "HePoly"})
    plain = reg.gauge("henn.ct.level")
    assert a is not b and a is not plain
    assert a is reg.gauge("henn.ct.level", {"layer": "HeConv2d"})
    a.set(3)
    b.set(2)
    keys = reg.names()
    assert metric_key("henn.ct.level", {"layer": "HeConv2d"}) in keys
    snap = reg.snapshot()
    assert snap['henn.ct.level{layer="HeConv2d"}']["labels"] == {"layer": "HeConv2d"}


def test_metric_key_sorts_labels():
    assert metric_key("m", {"b": 2, "a": 1}) == 'm{a="1",b="2"}'
    assert metric_key("m") == "m"


def test_summary_empty_and_single_sample():
    h = MetricsRegistry().histogram("lat")
    s = h.summary()
    assert s["count"] == 0 and s["total"] == 0.0
    assert all(s[k] is None for k in ("min", "max", "mean", "p50", "p90", "p99"))
    h.observe(0.7)
    s = h.summary()
    assert s["count"] == 1
    assert all(s[k] == 0.7 for k in ("min", "max", "mean", "p50", "p90", "p99"))
    # single-sample percentiles are the sample for every q, not an index error
    assert h.percentile(0) == h.percentile(99) == 0.7


def test_merge_delta_counters_gauges_histograms():
    worker = MetricsRegistry()
    worker.counter("ops").inc(5)
    worker.gauge("level", {"layer": "L"}).set(2.0)
    worker.gauge("level", {"layer": "L"}).set(4.0)
    worker.histogram("secs").observe_many([0.1, 0.2])

    parent = MetricsRegistry()
    parent.counter("ops").inc(1)
    parent.merge_delta(worker.to_delta())
    assert parent.counter("ops").value == 6
    g = parent.gauge("level", {"layer": "L"})
    assert g.value == 4.0
    assert g.to_dict()["min"] == 2.0  # envelope widened from the delta's min
    assert parent.histogram("secs").count == 2
    assert parent.histogram("secs").total == pytest.approx(0.3)


def test_snapshot_consistent_under_concurrent_merges():
    """snapshot() while worker deltas merge in never crashes or tears."""
    worker = MetricsRegistry()
    worker.counter("c").inc(3)
    worker.gauge("g").set(1.0)
    worker.histogram("h").observe_many([1.0, 2.0, 3.0])
    delta = worker.to_delta()

    parent = MetricsRegistry()
    n_merges = 200

    def merge(i):
        parent.merge_delta(delta)
        return i

    snaps = []

    def snap(i):
        snaps.append(parent.snapshot())
        return i

    with ThreadExecutor(workers=8) as ex:
        ex.map(lambda i: merge(i) if i % 2 else snap(i), list(range(n_merges)))

    final = parent.snapshot()
    assert final["c"]["value"] == 3 * (n_merges // 2)
    assert final["h"]["count"] == 3 * (n_merges // 2)
    # every intermediate snapshot is internally consistent
    for s in snaps:
        if "h" in s:
            assert s["h"]["count"] % 3 == 0


def test_histogram_reservoir_bounded_with_exact_scalars():
    h = MetricsRegistry().histogram("big")
    n = Histogram.RESERVOIR_SIZE + 3000
    h.observe_many(float(i) for i in range(n))
    # Sample storage is bounded; count/total/min/max stay exact.
    assert len(h.samples()) == Histogram.RESERVOIR_SIZE
    assert h.count == n
    assert h.total == sum(range(n))
    assert h.min == 0.0 and h.max == float(n - 1)
    assert h.mean == pytest.approx((n - 1) / 2)
    # Reservoir percentiles track the true distribution (coarse bound).
    assert h.percentile(50) == pytest.approx((n - 1) / 2, rel=0.15)


def test_histogram_reservoir_is_deterministic_per_key():
    def fill(name):
        h = MetricsRegistry().histogram(name)
        h.observe_many(float(i) for i in range(Histogram.RESERVOIR_SIZE + 500))
        return h.samples()

    assert fill("same") == fill("same")  # seeded by key: reproducible


def test_histogram_absorb_delta_corrects_scalars():
    h = MetricsRegistry().histogram("merge")
    h.observe(1.0)
    # A worker saw 100 observations but ships only 2 exemplars.
    h.absorb_delta([5.0, 7.0], count=100, total=600.0, mn=0.5, mx=9.0)
    assert h.count == 101
    assert h.total == pytest.approx(601.0)
    assert h.min == 0.5 and h.max == 9.0


def test_histogram_summary_has_p95():
    h = MetricsRegistry().histogram("s")
    h.observe_many(float(i) for i in range(1, 101))
    s = h.summary()
    assert s["p95"] == pytest.approx(95.0, rel=0.02)
    assert MetricsRegistry().histogram("empty").summary()["p95"] is None
