"""Opt-in scrape endpoints: ``/metrics`` (Prometheus) and ``/healthz``.

:class:`ObservabilityServer` runs a stdlib ``ThreadingHTTPServer`` on a
daemon thread, so attaching it to a
:class:`~repro.henn.protocol.CloudService` costs nothing on the request
path — a scraper pulls whenever it wants:

* ``GET /metrics`` — the process registry (whatever
  :func:`~repro.obs.metrics.get_registry` returns at scrape time)
  rendered by :func:`repro.obs.prometheus.render_prometheus`;
* ``GET /healthz`` — a small JSON document from the owner's health
  callback (HTTP 200 when ``"ok": true``, 503 otherwise);
* ``GET /debug/traces`` — when the owner attached a
  :class:`~repro.obs.rtrace.TraceStore`: the per-request trace index
  (slowest-N exemplars with stage breakdowns plus the recent ring),
  ``GET /debug/traces/<trace_id>`` for one full record, and
  ``?format=chrome`` on the latter for a Chrome/Perfetto ``traceEvents``
  document spanning the gateway and worker processes.

Nothing is served unless the owner explicitly starts the server
(``port=0`` picks an ephemeral port, handy for tests), and the handler
only ever *reads* telemetry — it cannot reach ciphertexts or keys.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
from urllib.parse import parse_qs

from repro.obs.metrics import get_registry
from repro.obs.prometheus import CONTENT_TYPE, render_prometheus

__all__ = ["ObservabilityServer"]


class _Handler(BaseHTTPRequestHandler):
    server: "_ObsHTTPServer"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path, _, query = self.path.partition("?")
        if path == "/metrics":
            body = render_prometheus(get_registry()).encode("utf-8")
            self._reply(200, CONTENT_TYPE, body)
        elif path == "/healthz":
            try:
                status = dict(self.server.health_fn())
            except Exception:
                status = {"ok": False, "error": "health callback failed"}
            code = 200 if status.get("ok", False) else 503
            body = json.dumps(status, separators=(",", ":")).encode("utf-8")
            self._reply(code, "application/json", body)
        elif path == "/debug/traces" or path.startswith("/debug/traces/"):
            self._traces(path, query)
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    def _traces(self, path: str, query: str) -> None:
        """Serve the request-trace store (index, one record, chrome export)."""
        store = self.server.trace_store
        if store is None:
            self._reply(
                404, "text/plain; charset=utf-8", b"request tracing not enabled\n"
            )
            return
        trace_id = path[len("/debug/traces/"):] if path != "/debug/traces" else ""
        if not trace_id:
            body = json.dumps(store.snapshot(), indent=1).encode("utf-8")
            self._reply(200, "application/json", body)
            return
        trace = store.get(trace_id)
        if trace is None:
            self._reply(404, "text/plain; charset=utf-8", b"unknown trace id\n")
            return
        fmt = parse_qs(query).get("format", [""])[0]
        if fmt == "chrome":
            from repro.obs.export import to_chrome_trace

            doc = to_chrome_trace(trace.spans)
        else:
            doc = trace.to_dict()
        self._reply(200, "application/json", json.dumps(doc, indent=1).encode("utf-8"))

    def _reply(self, code: int, ctype: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: Any) -> None:  # silence per-request stderr
        pass


class _ObsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    health_fn: Callable[[], dict[str, Any]]
    trace_store: Any | None


class ObservabilityServer:
    """Daemon-thread HTTP server exposing ``/metrics`` and ``/healthz``.

    Parameters
    ----------
    port:
        TCP port to bind on ``host``; ``0`` (the default) lets the OS
        pick a free one — read it back from :attr:`port` after
        :meth:`start`.
    health_fn:
        Zero-argument callable returning the ``/healthz`` JSON dict;
        the endpoint answers 200 when its ``"ok"`` key is true, 503
        otherwise.  Defaults to a static ``{"ok": True}``.
    trace_store:
        Optional :class:`~repro.obs.rtrace.TraceStore` backing the
        ``/debug/traces`` endpoints; without one those answer 404.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        health_fn: Callable[[], dict[str, Any]] | None = None,
        trace_store: Any | None = None,
    ):
        self.host = host
        self._requested_port = port
        self.health_fn = health_fn or (lambda: {"ok": True})
        self.trace_store = trace_store
        self._httpd: _ObsHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL of the running server (``http://host:port``)."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObservabilityServer":
        """Bind and serve on a daemon thread; idempotent.  Returns self."""
        if self._httpd is not None:
            return self
        httpd = _ObsHTTPServer((self.host, self._requested_port), _Handler)
        httpd.health_fn = self.health_fn
        httpd.trace_store = self.trace_store
        thread = threading.Thread(
            target=httpd.serve_forever, name="repro-obs-server", daemon=True
        )
        self._httpd = httpd
        self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        """Shut down and release the socket; idempotent."""
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
