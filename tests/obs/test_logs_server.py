"""Structured JSON logs and the /metrics + /healthz scrape server."""

import io
import json
import urllib.error
import urllib.request

import pytest

from repro.obs.logs import JsonLogger, capture_logs, get_logger
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.prometheus import CONTENT_TYPE
from repro.obs.server import ObservabilityServer


def test_logger_is_noop_until_configured():
    log = JsonLogger()
    assert not log.enabled
    assert log.event("x", a=1) is None


def test_logger_emits_json_lines():
    log = JsonLogger()
    buf = io.StringIO()
    log.configure(buf)
    rec = log.event("henn.request.ok", seconds=0.5, scores=10)
    assert rec["event"] == "henn.request.ok" and rec["pid"] > 0 and rec["ts"] > 0
    parsed = json.loads(buf.getvalue().splitlines()[0])
    assert parsed["seconds"] == 0.5 and parsed["scores"] == 10
    log.configure(None)
    assert not log.enabled


def test_logger_stringifies_unserialisable_fields():
    log = JsonLogger()
    log.configure(io.StringIO())
    rec = log.event("x", obj=object())
    assert isinstance(rec["obj"], str)


def test_capture_logs_scopes_and_restores():
    with capture_logs() as cap:
        get_logger().event("a", n=1)
        get_logger().event("b", n=2)
    assert not get_logger().enabled
    assert [r["event"] for r in cap.records()] == ["a", "b"]


def test_logger_closes_a_file_it_opened_and_never_a_callers_stream(tmp_path):
    log = JsonLogger()
    log.configure(tmp_path / "a.jsonl")
    first = log._sink
    log.event("a")
    log.configure(tmp_path / "b.jsonl")  # replaced: the logger's own file closes
    assert first.closed
    second = log._sink
    log.configure(None)  # disabled: likewise
    assert second.closed and not log.enabled
    buf = io.StringIO()
    log.configure(buf)
    log.configure(tmp_path / "c.jsonl")
    assert not buf.closed  # the caller's stream stays open
    third = log._sink
    log.configure(None)
    assert third.closed
    assert (tmp_path / "a.jsonl").read_text().count("\n") == 1


def test_capture_logs_leaves_a_configured_file_open(tmp_path):
    log = get_logger()
    log.configure(tmp_path / "run.jsonl")
    try:
        with capture_logs() as cap:
            log.event("inside")
        log.event("after")  # the restored file is still open and still owned
        own = log._sink
    finally:
        log.configure(None)
    assert own.closed
    assert [r["event"] for r in cap.records()] == ["inside"]
    assert json.loads((tmp_path / "run.jsonl").read_text())["event"] == "after"


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read().decode()


@pytest.fixture()
def registry():
    """A fresh global registry: ``/metrics`` renders it per scrape."""
    prev = get_registry()
    reg = set_registry(MetricsRegistry())
    reg.counter("test.hits").inc(7)
    reg.gauge("test.level").set(3)
    try:
        yield reg
    finally:
        set_registry(prev)

def test_server_serves_prometheus_metrics(registry):
    with ObservabilityServer(port=0) as srv:
        assert srv.running and srv.port > 0
        status, ctype, body = _get(srv.url + "/metrics")
    assert status == 200 and ctype == CONTENT_TYPE
    assert "repro_test_hits_total 7" in body
    assert "repro_test_level 3.0" in body
    assert not srv.running


def test_server_scrapes_the_registry_installed_after_start(registry):
    with ObservabilityServer(port=0) as srv:
        set_registry(MetricsRegistry()).counter("test.late").inc(2)
        _, _, body = _get(srv.url + "/metrics")
    assert "repro_test_late_total 2" in body
    assert "repro_test_hits" not in body


def test_server_healthz_ok_and_failing(registry):
    health = {"ok": True, "requests": 0}
    with ObservabilityServer(port=0, health_fn=lambda: health) as srv:
        status, _, body = _get(srv.url + "/healthz")
        assert status == 200 and json.loads(body) == health
        health["ok"] = False
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(srv.url + "/healthz")
        assert err.value.code == 503


def test_server_unknown_path_is_404(registry):
    with ObservabilityServer(port=0) as srv:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(srv.url + "/nope")
        assert err.value.code == 404


def test_server_start_stop_idempotent(registry):
    srv = ObservabilityServer(port=0)
    assert srv.start() is srv.start()
    srv.stop()
    srv.stop()
    assert not srv.running


def test_server_debug_traces_endpoints(registry):
    from repro.obs.rtrace import RequestTracer, SamplingPolicy

    tracer = RequestTracer(SamplingPolicy(rate=1.0))
    ctx = tracer.mint(1)
    ctx.add_stage("compute", 0.0, 0.5)
    record = tracer.finish(ctx, "ok")
    with ObservabilityServer(
        port=0, trace_store=tracer.store
    ) as srv:
        status, _, body = _get(srv.url + "/debug/traces")
        index = json.loads(body)
        assert status == 200 and index["stored"] == 1
        assert index["recent"][0]["trace_id"] == record.trace_id

        status, _, body = _get(srv.url + f"/debug/traces/{record.trace_id}")
        full = json.loads(body)
        assert status == 200 and full["stages"]["compute"] == 0.5
        assert [s["name"] for s in full["spans"]].count("rtrace.request") == 1

        status, _, body = _get(
            srv.url + f"/debug/traces/{record.trace_id}?format=chrome"
        )
        chrome = json.loads(body)
        assert status == 200 and chrome["traceEvents"]

        with pytest.raises(urllib.error.HTTPError) as err:
            _get(srv.url + "/debug/traces/no-such-id")
        assert err.value.code == 404


def test_server_debug_traces_404_without_store(registry):
    with ObservabilityServer(port=0) as srv:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(srv.url + "/debug/traces")
        assert err.value.code == 404
