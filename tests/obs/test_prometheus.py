"""Prometheus text-exposition rendering of the metrics registry."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import CONTENT_TYPE, prometheus_name, render_prometheus


def test_prometheus_name_flattening():
    assert prometheus_name("plan.cache.hit") == "repro_plan_cache_hit"
    assert prometheus_name("henn.ct.level") == "repro_henn_ct_level"
    assert prometheus_name("1weird-name!") == "repro_1weird_name_"


def test_counter_rendering_with_total_suffix_and_labels():
    reg = MetricsRegistry()
    reg.counter("henn.requests", {"outcome": "ok"}).inc(3)
    reg.counter("henn.requests", {"outcome": "error"}).inc()
    text = render_prometheus(reg)
    assert text.count("# TYPE repro_henn_requests_total counter") == 1
    assert 'repro_henn_requests_total{outcome="ok"} 3' in text
    assert 'repro_henn_requests_total{outcome="error"} 1' in text
    assert text.endswith("\n")


def test_gauge_rendering_skips_never_sampled():
    reg = MetricsRegistry()
    reg.gauge("henn.ct.level").set(2)
    reg.gauge("henn.ct.scale_bits")  # created but never set -> no sample line
    text = render_prometheus(reg)
    assert "# TYPE repro_henn_ct_level gauge" in text
    assert "repro_henn_ct_level 2.0" in text
    assert "# TYPE repro_henn_ct_scale_bits gauge" in text
    assert "\nrepro_henn_ct_scale_bits " not in text


def test_histogram_rendering_as_summary():
    reg = MetricsRegistry()
    h = reg.histogram("henn.request.seconds")
    h.observe_many([1.0, 2.0, 3.0, 4.0])
    text = render_prometheus(reg)
    assert "# TYPE repro_henn_request_seconds summary" in text
    assert 'repro_henn_request_seconds{quantile="0.5"} 2.0' in text
    assert 'repro_henn_request_seconds{quantile="0.99"} 4.0' in text
    assert "repro_henn_request_seconds_sum 10.0" in text
    assert "repro_henn_request_seconds_count 4" in text


def test_empty_histogram_renders_counts_only():
    reg = MetricsRegistry()
    reg.histogram("empty.seconds")
    text = render_prometheus(reg)
    assert "quantile" not in text
    assert "repro_empty_seconds_sum 0.0" in text
    assert "repro_empty_seconds_count 0" in text


def test_label_values_escaped():
    reg = MetricsRegistry()
    reg.counter("c", {"detail": 'quote " backslash \\ newline \n'}).inc()
    text = render_prometheus(reg)
    assert '\\"' in text and "\\\\" in text and "\\n" in text


def test_empty_registry_renders_empty_document():
    assert render_prometheus(MetricsRegistry()) == ""


def test_content_type_is_version_0_0_4():
    assert "version=0.0.4" in CONTENT_TYPE
