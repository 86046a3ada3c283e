#!/usr/bin/env python
"""CI smoke check: distributed request tracing across the serving path.

Count-asserted end-to-end gate for :mod:`repro.obs.rtrace`:

* With head sampling forced on (``rate=1.0``), clustered classifications
  must each yield exactly one retained trace whose merged span tree
  contains spans from **at least two processes** (gateway + worker),
  with ``gateway``/``queue_wait``/``compute`` stage attribution,
  worker-side ``rtrace.worker.*`` spans, parent links that all resolve
  inside the trace, and a Chrome export that round-trips through JSON.
  The live ``/debug/traces`` endpoint must serve the same records, and
  ``tools/trace_critical_path.py`` must print a stage breakdown.
* With tracing off (no policy), the same traffic must leak **zero**
  traces: nothing minted, nothing stored, endpoint answering 404.

Exits non-zero with the offending numbers.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.henn.backend import MockBackend
from repro.henn.layers import HeConv2d, HeFlatten, HeLinear, HePoly
from repro.henn.protocol import Client, ClusteredCloudService
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.rtrace import SamplingPolicy

WORKERS = 2
REQUESTS = 4
SHAPE = (1, 6, 6)

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("PASS " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def build_layers():
    rng = np.random.default_rng(0)
    return [
        HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), rng.uniform(-0.1, 0.1, 2)),
        HePoly(np.array([0.1, 0.5, 0.25])),
        HeFlatten(),
        HeLinear(rng.uniform(-0.3, 0.3, (10, 32)), rng.uniform(-0.1, 0.1, 10)),
    ]


def drive(gateway: ClusteredCloudService) -> None:
    backend = gateway.engine.backend
    client = Client(backend, SHAPE)
    images = np.random.default_rng(1).uniform(0, 1, (REQUESTS, *SHAPE))
    for i in range(REQUESTS):
        scores = client.classify_with_retry(gateway, images[i : i + 1])
        assert scores.shape == (1, 10)
    # Trace finish runs on future done-callbacks; let the last one land.
    time.sleep(0.3)


def fetch(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def run_sampled() -> None:
    set_registry(MetricsRegistry())
    gateway = ClusteredCloudService(
        MockBackend(batch=64, levels=6),
        build_layers(),
        SHAPE,
        workers=WORKERS,
        trace_policy=SamplingPolicy(rate=1.0, seed=7),
    )
    try:
        obs = gateway.start_observability()
        drive(gateway)
        records = gateway.rtrace.store.recent()
        check(
            len(records) == REQUESTS,
            f"sampled: {len(records)} traces retained for {REQUESTS} requests",
        )
        cross = [r for r in records if len(r.pids) >= 2]
        check(
            len(cross) == len(records),
            f"sampled: {len(cross)}/{len(records)} traces span >=2 processes",
        )
        for record in records:
            stages = set(record.stages)
            check(
                {"gateway", "queue_wait", "compute"} <= stages,
                f"trace {record.trace_id}: stages {sorted(stages)} cover "
                "gateway+queue_wait+compute",
            )
            names = {s.name for s in record.spans}
            check(
                any(n.startswith("rtrace.worker.") for n in names),
                f"trace {record.trace_id}: worker-side spans present",
            )
            ids = {s.span_id for s in record.spans}
            dangling = [
                s.name
                for s in record.spans
                if s.parent_id is not None and s.parent_id not in ids
            ]
            check(not dangling, f"trace {record.trace_id}: parent links resolve")

        status, body = fetch(f"{obs.url}/debug/traces")
        index = json.loads(body)
        check(
            status == 200 and index["stored"] == REQUESTS,
            f"/debug/traces: status {status}, stored {index.get('stored')}",
        )
        trace_id = records[0].trace_id
        status, body = fetch(f"{obs.url}/debug/traces/{trace_id}?format=chrome")
        chrome = json.loads(body)
        pids = {ev["pid"] for ev in chrome.get("traceEvents", [])}
        check(
            status == 200 and len(pids) >= 2,
            f"/debug/traces/{trace_id}?format=chrome: {len(pids)} process tracks",
        )

        # The analyzer CLI must produce a stage breakdown from a record.
        from trace_critical_path import load_traces, render

        text = render(load_traces(records[0].to_dict())[0])
        check(
            "stage latency" in text and "critical path" in text,
            "trace_critical_path renders stage table + critical path",
        )
    finally:
        gateway.close()


def run_unsampled() -> None:
    set_registry(MetricsRegistry())
    gateway = ClusteredCloudService(
        MockBackend(batch=64, levels=6), build_layers(), SHAPE, workers=WORKERS
    )
    try:
        obs = gateway.start_observability()
        drive(gateway)
        check(
            len(gateway.rtrace.store) == 0,
            f"unsampled: store holds {len(gateway.rtrace.store)} traces (want 0)",
        )
        snap = get_registry().snapshot()
        minted = snap.get("rtrace.minted", {}).get("value", 0)
        check(minted == 0, f"unsampled: {minted} contexts minted (want 0)")
        status, _ = fetch(f"{obs.url}/debug/traces")
        check(status == 404, f"unsampled: /debug/traces answers {status} (want 404)")
    finally:
        gateway.close()


def main() -> int:
    run_sampled()
    run_unsampled()
    if failures:
        print(f"\ntrace smoke FAILED ({len(failures)} checks):")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("\ntrace smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
