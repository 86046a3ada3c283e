"""Structured JSON logging for request lifecycle events.

One record per line (``jsonl``), one event per record:

``{"ts": <unix seconds>, "event": "henn.request.ok", "pid": 1234,
"seconds": 0.81, ...}``

The logger is a no-op until a sink is configured — the serving default
stays silent, matching the tracer's zero-overhead philosophy.  Point it
at a stream (or a path) with :meth:`JsonLogger.configure`, or scoped,
with the :func:`capture_logs` context manager used by tests.  A file
the logger opened from a path is closed when another sink replaces it
or logging is disabled; a stream the caller passed in is never closed.

Records deliberately carry only operational fields (durations, batch
shapes, sanitised error codes).  Nothing derived from ciphertext *data*
(slot values, exact scales) is ever logged on the cloud side — the same
fixed-vocabulary rule :class:`repro.henn.protocol.ServiceError` follows.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, IO

__all__ = ["JsonLogger", "get_logger", "capture_logs"]


class JsonLogger:
    """Line-oriented JSON event writer (thread-safe, no-op by default)."""

    def __init__(self) -> None:
        self._sink: IO[str] | None = None
        self._owned = False  # _sink is a file opened here, so closed here
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._sink is not None

    def configure(self, sink: "IO[str] | str | Path | None") -> None:
        """Attach a sink (stream or file path); ``None`` disables logging."""
        owned = isinstance(sink, (str, Path))
        if owned:
            sink = open(sink, "a", encoding="utf-8")
        prev, prev_owned = self._swap(sink, owned)  # type: ignore[arg-type]
        if prev_owned and prev is not sink:
            prev.close()  # type: ignore[union-attr]

    def _swap(self, sink: "IO[str] | None", owned: bool) -> "tuple[IO[str] | None, bool]":
        """Install *sink* and return the previous ``(sink, owned)`` pair."""
        with self._lock:
            prev = (self._sink, self._owned)
            self._sink, self._owned = sink, owned
        return prev

    def event(self, name: str, **fields: Any) -> dict[str, Any] | None:
        """Emit one event record; returns it (or ``None`` when disabled).

        Non-JSON-serialisable field values are stringified rather than
        raised on — a telemetry write must never take down the request
        it is describing.
        """
        sink = self._sink
        if sink is None:
            return None
        record: dict[str, Any] = {"ts": time.time(), "event": name, "pid": os.getpid()}
        for k, v in fields.items():
            record[k] = v if _jsonable(v) else str(v)
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            if self._sink is None:  # disabled concurrently
                return None
            self._sink.write(line + "\n")
            self._sink.flush()
        return record


def _jsonable(v: Any) -> bool:
    return isinstance(v, (str, int, float, bool, type(None), list, tuple, dict))


_LOGGER = JsonLogger()


def get_logger() -> JsonLogger:
    """The process-global request-lifecycle logger."""
    return _LOGGER


class capture_logs:
    """Scoped capture: ``with capture_logs() as buf: ...`` then read lines.

    Restores the previous sink (still open, ownership unchanged) on
    exit; the buffer's :meth:`records` parses every captured line back
    into dicts.
    """

    def __init__(self) -> None:
        self.buffer = io.StringIO()
        self._prev: "tuple[IO[str] | None, bool]" = (None, False)

    def __enter__(self) -> "capture_logs":
        self._prev = _LOGGER._swap(self.buffer, False)
        return self

    def __exit__(self, *exc: object) -> None:
        _LOGGER._swap(*self._prev)

    def records(self) -> list[dict[str, Any]]:
        """All captured events, parsed."""
        return [
            json.loads(line)
            for line in self.buffer.getvalue().splitlines()
            if line.strip()
        ]
