"""The four benchmark workloads (runs inside the per-workload subprocess).

Every workload follows the same outline: build the system from cold
(that is ``setup_s``), warm it, measure with tracing off, check every
output against the plaintext reference *outside* the timed intervals,
and — in a traced run — repeat a shorter measurement with the span
recorder installed around the public entry points of each layer.

Sizes are functions of ``--seconds`` alone (see :func:`sizes`), so the
driver's fixed ``run_seconds`` fixes every count.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

import numpy as np

from loadgen import poisson_schedule, run_open_loop
from metrics import (
    CNN_LAYERS,
    CONTEXT_METHODS,
    END_TO_END,
    HEADLINE,
    MIN_COVERAGE,
    PER_LAYER,
    REGISTRY_COUNTERS,
)
from spans import SpanRecorder
from stats import latency_metric, percentile, quiet_window, supported_percentile, sustained_phase

from repro.bench import get_preset, prepare_models
from repro.henn import CkksRnsBackend, MockBackend
from repro.henn.inference import HeInferenceEngine
from repro.henn.protocol import BatchedCloudService, Client, CloudService
from repro.henn.rnscnn import QuantizedConvSpec, RnsIntegerConv, basis_for_budget
from repro.nt.crt import CrtBasis
from repro.nt.ntt import BatchedNttPlan, NttPlan
from repro.obs.metrics import get_registry
from repro.parallel import SerialExecutor, ThreadExecutor
from repro.parallel.executor import Executor

PRESET = "tiny"
#: A decrypted logit may differ from the plaintext SLAF model by this much.
LOGIT_TOLERANCE = 0.05
#: Inputs are drawn from test images whose plaintext top-2 logit margin
#: is at least this (> 2 x tolerance), so "argmax equal" is implied by
#: the logit bound and a near-tie cannot turn noise into a wrong answer.
MIN_MARGIN = 0.10

# gateway_mock_open: service configuration and open-loop ladder.
GATEWAY = {
    "max_batch_slots": 32,
    "max_wait_ms": 2.0,
    "max_queue_depth": 128,
    "pool_size": 64,
    "warm_requests": 8,
    #: Rates judged against the SLO, rising; the latency metrics pool them.
    "slo_rates_rps": (100, 200, 300),
    #: The traced run's rate: wrapping every mock-backend call roughly
    #: doubles a batch's compute time, which at 300 req/s would push the
    #: traced service to saturation and measure queueing, not layers.
    "traced_rate_rps": 200,
    #: Well above capacity on purpose: its rejections are the overload
    #: behaviour, not failures.
    "overload_rate_rps": 900,
    "latency_limit_s": 0.200,
    "max_end_queue_depth": 64,
}

# hybrid_conv: the Table IV/VI geometry.
CONV = {"maps": 5, "kernel": 5, "stride": 2, "padding": 1, "images": 64, "size": 28, "total_bits": 232}


def sizes(workload: str, seconds: float, traced: bool) -> dict[str, Any]:
    """Request counts and phase lengths for a ``--seconds`` budget.

    At the manifest's ``run_seconds`` = 24 the untraced run makes 24
    ``rns_single`` requests, 8 ``rns_batch_cnn2`` requests, four 4 s
    gateway phases and 36 conv calls per configuration.
    """
    warm = 2 if seconds >= 8 else 1
    if workload == "rns_single":
        n = seconds / 4 if traced else seconds
        return {"warm": warm, "requests": max(2, round(n)), "images_per_request": 1}
    if workload == "rns_batch_cnn2":
        n = seconds / 6 if traced else seconds / 3
        return {"warm": warm, "requests": max(2, round(n)), "images_per_request": 256}
    if workload == "gateway_mock_open":
        return {"phase_s": seconds / 6, **GATEWAY}
    if workload == "hybrid_conv":
        n = seconds / 4 if traced else 1.5 * seconds
        return {"warm": warm, "reps": max(2, round(n)), "threads": os.cpu_count() or 1, **CONV}
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------- shared pieces


def _confident_pool(models: Any) -> tuple[np.ndarray, np.ndarray]:
    """Indices of usable test images and the reference logits of all."""
    reference = models.slaf_model.forward(models.x_test)
    top2 = np.sort(reference, axis=1)[:, -2:]
    return np.nonzero(top2[:, 1] - top2[:, 0] >= MIN_MARGIN)[0], reference


class _Oracle:
    """Compares decrypted logits with the plaintext SLAF model."""

    def __init__(self) -> None:
        self.error_max = 0.0
        self.images = 0
        self.argmax_equal = 0

    def wrong(self, logits: np.ndarray, reference: np.ndarray) -> bool:
        error = float(np.max(np.abs(logits - reference)))
        equal = int(np.sum(np.argmax(logits, axis=1) == np.argmax(reference, axis=1)))
        self.error_max = max(self.error_max, error)
        self.images += len(reference)
        self.argmax_equal += equal
        return error > LOGIT_TOLERANCE or equal != len(reference)

    @property
    def agreement(self) -> float:
        return self.argmax_equal / self.images if self.images else 0.0


def _counter_values() -> dict[str, int]:
    reg = get_registry()
    values = {name: reg.counter(name).value for name in REGISTRY_COUNTERS}
    values["requests_ok"] = reg.counter("henn.requests", {"outcome": "ok"}).value
    values["requests_failed"] = sum(
        reg.counter("henn.requests", {"outcome": o}).value for o in ("error", "rejected")
    )
    return values


def _layer_metrics(
    recorder: SpanRecorder, units: int, counters: dict[str, float], extra: dict[str, float]
) -> dict[str, dict[str, Any]]:
    """Every declared per-layer metric; 0 where the layer did no work.

    Span-derived values and registry counters are per unit of work (one
    request, one conv call); *extra* values are taken as they are.
    """
    by_name = recorder.by_name()
    backend_self = sum(r["self_s"] for n, r in by_name.items() if n.startswith("henn.backend."))
    out: dict[str, dict[str, Any]] = {}
    for name, unit, _better in PER_LAYER:
        if name in extra:
            value = extra[name]
        elif name in counters:
            value = counters[name] / units
        elif name == "henn.backend.self_s":
            value = backend_self / units
        else:
            base, _, field = name.rpartition(".")
            value = by_name.get(base, {}).get(field, 0.0) / units
        out[name] = {"value": float(value), "unit": unit}
    return out


def _wrap_engine(recorder: SpanRecorder, engine: HeInferenceEngine, arch: str) -> None:
    """Spans on the engine, its planned layers, its backend and the NTT plans."""
    for fn in ("run_encrypted", "encrypt_images", "assemble_batch", "split_scores"):
        recorder.wrap(HeInferenceEngine, fn, f"henn.inference.{fn}")
    for label, layer in zip(CNN_LAYERS[arch], engine.plan.layers):
        recorder.wrap(layer, "forward", f"henn.layers.{label}")
    backend = engine.backend
    packing = ("concat_slots", "slice_slots")
    recorder.wrap_public_methods(backend, "henn.backend", skip=packing)
    for fn in packing:
        recorder.wrap(backend, fn, f"serving.packing.{fn}")
    ctx = getattr(backend, "ctx", None)
    if ctx is not None:
        for fn in CONTEXT_METHODS:
            recorder.wrap(ctx, fn, f"ckksrns.context.{fn}")
    for cls, kind in ((BatchedNttPlan, "batched"), (NttPlan, "single")):
        for fn in ("forward", "inverse"):
            recorder.wrap(cls, fn, f"nt.ntt.{kind}.{fn}")
    recorder.wrap(CrtBasis, "compose_centered", "nt.crt.compose_centered")
    recorder.wrap(Executor, "map", "parallel.executor.map")


def _finish(
    workload: str,
    sz: dict[str, Any],
    attempted: int,
    failures: dict[str, int],
    detail: dict[str, Any],
    oracle: _Oracle | None = None,
    end_to_end: dict[str, dict[str, Any]] | None = None,
    per_layer: dict[str, dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Assemble the child's result document."""
    failed = sum(failures.values())
    if oracle is not None:
        detail.update(logit_error_max=oracle.error_max, argmax_agreement=oracle.agreement)
    result: dict[str, Any] = {
        "workload": workload,
        "sizes": sz,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "failed_fraction": failed / attempted if attempted else 1.0,
        "detail": detail,
    }
    if end_to_end is not None:
        end_to_end["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        }
        headline = end_to_end[HEADLINE[workload]]
        for name, unit, _better, _bound in END_TO_END:
            if name in end_to_end:
                end_to_end[name].setdefault("native", True)
            else:
                # See metrics.HEADLINE: a latency this workload does not
                # produce repeats the workload's headline latency.
                if unit != "s":
                    raise RuntimeError(f"{workload} produced no {name}")
                end_to_end[name] = {
                    "value": headline["value"], "unit": unit, "native": False, "repeats": HEADLINE[workload],
                }
        result["end_to_end"] = {name: end_to_end[name] for name, *_ in END_TO_END}
    if per_layer is not None:
        result["per_layer"] = per_layer
    return result


# --------------------------------------------------------------------------- rns_single / rns_batch_cnn2


def run_rns(
    workload: str, arch: str, seed: int, seconds: float, traced: bool, t_start: float,
    recorder: SpanRecorder,
) -> dict[str, Any]:
    """Closed loop, one client: encrypt -> try_classify -> decrypt."""
    sz = sizes(workload, seconds, traced)
    batch, n_warm, n_req = sz["images_per_request"], sz["warm"], sz["requests"]
    preset = get_preset(PRESET)
    models = prepare_models(arch, preset)
    backend = CkksRnsBackend(preset.rns_params(models.depth), seed=0)
    client = Client(backend, models.input_shape)
    service = CloudService(backend, models.he_layers, models.input_shape)
    pool, reference = _confident_pool(models)
    rng = np.random.default_rng(seed)
    rounds = 2 if traced else 1  # traced run: same count untraced first, for the overhead ratio
    total = n_warm + rounds * n_req
    if batch == 1:
        # one *distinct* image per request: the content-addressed hoist
        # cache must never see the same ciphertext twice
        picks = rng.choice(pool, total, replace=False).reshape(total, 1)
    else:
        picks = np.stack([rng.choice(pool, batch, replace=False) for _ in range(total)])

    oracle = _Oracle()
    failures = {"errors": 0, "rejections": 0, "wrong_answers": 0}

    def round_trip(idx: np.ndarray) -> tuple[float, float, np.ndarray | None]:
        images = models.x_test[idx]
        t0 = time.perf_counter()
        encrypted = client.encrypt_request(images)
        t1 = time.perf_counter()
        response = service.try_classify(encrypted)
        t2 = time.perf_counter()
        logits = client.decrypt_response(response.scores, len(idx)) if response.ok else None
        t3 = time.perf_counter()
        return t3 - t0, t2 - t1, logits

    def measure(rows: np.ndarray, around: Callable[[int], Any] = lambda i: nullcontext()) -> dict[str, list]:
        """Timed loop; the oracle runs after it, outside every interval."""
        request_s, cloud_s, outputs = [], [], []
        for i, idx in enumerate(rows):
            with around(i):
                total_s, cloud, logits = round_trip(idx)
            request_s.append(total_s)
            cloud_s.append(cloud)
            outputs.append(logits)
        for idx, logits in zip(rows, outputs):
            if logits is None:
                failures["errors"] += 1
            elif oracle.wrong(logits, reference[idx]):
                failures["wrong_answers"] += 1
        return {"request_s": request_s, "cloud_s": cloud_s}

    for idx in picks[:n_warm]:
        round_trip(idx)
    setup_s = time.time() - t_start

    plain = measure(picks[n_warm : n_warm + n_req])
    detail: dict[str, Any] = {
        "model": {"arch": arch, "depth": models.depth, "slaf_test_accuracy": models.slaf_acc},
        "usable_test_images": int(len(pool)),
        "request_s": plain["request_s"],
        "cloud_s": plain["cloud_s"],
    }
    if not traced:
        images = batch * n_req
        request_p50 = latency_metric(plain["request_s"], 50)
        median_s = request_p50["value"]
        end_to_end = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "request_latency_p50_s": request_p50,
            "cloud_latency_p50_s": latency_metric(plain["cloud_s"], 50),
            # Throughput at the (quiet-window) median pace, not requests /
            # wall clock: one slow spell of the machine would set the mean.
            "images_per_s": {"value": batch / median_s, "unit": "1/s", "images": images},
            "sustained_rate_rps": {
                "value": 1.0 / median_s, "unit": "req/s",
                "note": "closed loop, 1 client: requests per second at the median request time",
            },
        }
        for wanted in (75, 95):
            if supported_percentile(n_req, wanted) == wanted:
                end_to_end[f"request_latency_p{wanted}_s"] = latency_metric(plain["request_s"], wanted)
        return _finish(workload, sz, n_req, failures, detail, oracle, end_to_end=end_to_end)

    # ---- traced round -----------------------------------------------------------
    _wrap_engine(recorder, service.engine, arch)
    recorder.wrap(client, "encrypt_request", "henn.protocol.encrypt_request")
    recorder.wrap(client, "decrypt_response", "henn.protocol.decrypt_response")
    recorder.wrap(service, "try_classify", "henn.protocol.try_classify")
    before = _counter_values()

    try:
        with_spans = measure(picks[n_warm + n_req :], around=recorder.root)
    finally:
        recorder.uninstall()
    after = _counter_values()
    counters = {k: after[k] - before[k] for k in after}
    extra = {
        "henn.protocol.requests_ok": counters.pop("requests_ok"),
        "henn.protocol.requests_failed": counters.pop("requests_failed"),
        "trace.coverage": recorder.coverage("request"),
        "trace.overhead_ratio": quiet_window(with_spans["request_s"], 50)[0] / quiet_window(plain["request_s"], 50)[0],
        "henn.logit_error_max": oracle.error_max,
        "henn.argmax_agreement": oracle.agreement,
    }
    detail["traced_request_s"] = with_spans["request_s"]
    return _finish(
        workload, sz, 2 * n_req, failures, detail, oracle,
        per_layer=_layer_metrics(recorder, n_req, counters, extra),
    )


# --------------------------------------------------------------------------- gateway_mock_open


def run_gateway(
    workload: str, seed: int, seconds: float, traced: bool, t_start: float, recorder: SpanRecorder
) -> dict[str, Any]:
    """Open loop against the batching gateway on the mock backend."""
    sz = sizes(workload, seconds, traced)
    phase_s = sz["phase_s"]
    preset = get_preset(PRESET)
    models = prepare_models("cnn1", preset)
    backend = MockBackend(batch=preset.accuracy_samples, levels=models.depth + 1)
    client = Client(backend, models.input_shape)
    usable, reference = _confident_pool(models)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(usable, sz["pool_size"], replace=False)
    pool = [client.encrypt_request(models.x_test[i : i + 1]) for i in chosen]
    pool_reference = reference[chosen]
    service = BatchedCloudService(
        backend, models.he_layers, models.input_shape,
        max_batch_slots=sz["max_batch_slots"], max_wait_ms=sz["max_wait_ms"],
        max_queue_depth=sz["max_queue_depth"],
    )
    oracle = _Oracle()

    def submit(k: int):
        return service.submit(pool[k], count=1)

    def phase(rate: float, label: str, duration_s: float = phase_s) -> dict[str, Any]:
        """One open-loop phase; responses are checked after it ended."""
        due, picks = poisson_schedule(rng, rate, duration_s, len(pool))
        run = run_open_loop(submit, due, picks, end_probe=lambda: service.scheduler.queue_depth)
        ok = np.zeros(len(due), dtype=bool)
        counts = {"errors": 0, "rejections": 0, "wrong_answers": 0}
        for i, response in enumerate(run["responses"]):
            if response is None:
                counts["errors"] += 1
            elif not response.ok:
                counts["rejections" if response.error.category == "overload" else "errors"] += 1
            elif oracle.wrong(
                client.decrypt_response(response.scores, 1), pool_reference[picks[i] : picks[i] + 1]
            ):
                counts["wrong_answers"] += 1
            else:
                ok[i] = True
        latency = run["latency_s"][ok]
        tail = supported_percentile(int(ok.sum()), 95)
        return {
            "label": label,
            "rate_rps": rate,
            "duration_s": duration_s,
            "sent": len(due),
            "ok": int(ok.sum()),
            "failed": int(len(due) - ok.sum()),
            "failures": counts,
            "achieved_rps": float(ok.sum() / duration_s),
            "latency_p50_s": quiet_window(latency, 50)[0] if len(latency) else float("nan"),
            "latency_tail_s": quiet_window(latency, tail)[0] if len(latency) else float("inf"),
            "latency_tail_percentile": tail,
            "lateness_p99_s": percentile(run["lateness_s"], 99),
            "end_queue_depth": int(run["end_probe"]),
            "latency_s": latency,
            "service_s": run["service_s"][ok],
        }

    def public(p: dict[str, Any]) -> dict[str, Any]:
        return {k: v for k, v in p.items() if k not in ("latency_s", "service_s")}

    def summarize(judged: list[dict[str, Any]], overload: dict[str, Any]) -> tuple[int, dict, dict]:
        """Attempted count, failures and detail: the probe's rejections are not failures."""
        failures = {kind: sum(p["failures"][kind] for p in judged) for kind in judged[0]["failures"]}
        detail = {
            "phases": [public(p) for p in judged],
            "overload": {**public(overload), "rejected_fraction": overload["failed"] / overload["sent"]},
        }
        return sum(p["sent"] for p in judged), failures, detail

    try:
        for k in range(sz["warm_requests"]):
            if not service.try_classify(pool[k], count=1).ok:
                raise RuntimeError("warm-up request failed")
        # a short open-loop lead-in: threads, queues and caches reach the state the phases run in
        phase(sz["slo_rates_rps"][0], "warm", phase_s / 4)
        setup_s = time.time() - t_start

        if not traced:
            phases = [phase(rate, f"slo_{rate}") for rate in sz["slo_rates_rps"]]
            overload = phase(sz["overload_rate_rps"], "overload")
            # Latencies pool the ok requests of all SLO phases: one 4 s
            # phase sits inside or outside a slow spell of the machine,
            # three in a row average over it.
            latency = np.concatenate([p["latency_s"] for p in phases])
            in_service = np.concatenate([p["service_s"] for p in phases])
            slo_seconds = phase_s * len(phases)
            best = sustained_phase(phases, sz["latency_limit_s"], sz["max_end_queue_depth"])
            end_to_end = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "cloud_latency_p50_s": {
                    **latency_metric(in_service, 50),
                    "note": "submit() to future completion, generator lateness excluded",
                },
                "images_per_s": {
                    "value": len(latency) / slo_seconds, "unit": "1/s", "images": len(latency),
                    "note": "completed over the SLO phases together",
                },
                "sustained_rate_rps": {
                    "value": best["achieved_rps"] if best else 0.0,
                    "unit": "req/s",
                    "nominal_rate_rps": best["rate_rps"] if best else 0,
                    "note": "requests completed per second in the highest phase meeting the SLO",
                },
            }
            for wanted in (50, 75, 95):
                end_to_end[f"request_latency_p{wanted}_s"] = latency_metric(latency, wanted)
            attempted, failures, detail = summarize(phases, overload)
            return _finish(workload, sz, attempted, failures, detail, oracle, end_to_end=end_to_end)

        # ---- traced: one phase untraced, the same traced, then the probe ----
        rate = sz["traced_rate_rps"]
        plain = phase(rate, f"slo_{rate}")
        _wrap_engine(recorder, service.engine, "cnn1")
        recorder.wrap(service, "submit", "henn.protocol.submit")
        get_registry().reset()  # serving.* histograms then describe the traced phase only
        stats_before = service.scheduler.stats()
        try:
            with_spans = phase(rate, f"slo_{rate}_traced")
        finally:
            recorder.uninstall()
        # Everything about the traced phase is read before the overload
        # probe runs: the serving.* histograms are live objects.
        reg = get_registry()
        stats = service.scheduler.stats()
        counters = {k: float(v) for k, v in _counter_values().items()}
        compute = reg.histogram("serving.batch.compute_seconds", {"outcome": "ok"})
        wait = reg.histogram("serving.batch.wait_seconds")
        engine_calls = {f"henn.inference.{fn}" for fn in ("assemble_batch", "run_encrypted", "split_scores")}
        in_engine = sum(s.duration for s in recorder.spans if s.parent < 0 and s.name in engine_calls)
        sent = with_spans["sent"]
        extra = {
            "henn.protocol.requests_ok": counters.pop("requests_ok"),
            "henn.protocol.requests_failed": counters.pop("requests_failed"),
            "serving.batch.wait_seconds.p50": wait.percentile(50),
            "serving.batch.wait_seconds.p95": wait.percentile(95),
            "serving.batch.compute_seconds.p50": compute.percentile(50),
            "serving.batch.size.mean": reg.histogram("serving.batch.size").mean,
            "serving.batches": stats["batches"] - stats_before["batches"],
            "serving.slot_utilization": reg.histogram("serving.batch.slots").mean / sz["max_batch_slots"],
            "serving.requests_rejected": stats["requests_rejected"] - stats_before["requests_rejected"],
            "serving.requests_shed_expired": (
                stats["requests_shed_expired"] - stats_before["requests_shed_expired"]
            ),
            "loadgen.lateness_p99_s": with_spans["lateness_p99_s"],
            # share of the scheduler's own batch-compute clock spent
            # inside the three wrapped engine calls
            "trace.coverage": in_engine / compute.total,
            "trace.overhead_ratio": with_spans["latency_p50_s"] / plain["latency_p50_s"],
        }
        overload = phase(sz["overload_rate_rps"], "overload")
        extra["serving.overload.rejected_fraction"] = overload["failed"] / overload["sent"]
        extra["henn.logit_error_max"] = oracle.error_max
        extra["henn.argmax_agreement"] = oracle.agreement
        attempted, failures, detail = summarize([plain, with_spans], overload)
        return _finish(
            workload, sz, attempted, failures, detail, oracle,
            per_layer=_layer_metrics(recorder, sent, counters, extra),
        )
    finally:
        service.close()


# --------------------------------------------------------------------------- hybrid_conv


def run_hybrid_conv(
    workload: str, seed: int, seconds: float, traced: bool, t_start: float, recorder: SpanRecorder
) -> dict[str, Any]:
    """The Table IV/VI conv stage at k=3, k=9 and k=9 on threads.

    The three configurations take turns inside every repetition, so a
    slow spell of the machine lands on all of them and the k=9/k=3 and
    serial/threaded ratios stay meaningful.
    """
    sz = sizes(workload, seconds, traced)
    bits = sz["total_bits"]
    spec = QuantizedConvSpec(input_bits=bits // 2, weight_bits=bits - bits // 2 - 12)
    # the fixed random instance of the paper geometry that Table IV uses
    weight = np.random.default_rng(0).normal(0, 0.3, (sz["maps"], 1, sz["kernel"], sz["kernel"]))
    images = np.random.default_rng(seed).random((sz["images"], sz["size"], sz["size"]))
    executors = {"k3": SerialExecutor(), "k9": SerialExecutor(), "k9_par": ThreadExecutor(workers=sz["threads"])}
    moduli = {"k3": 3, "k9": 9, "k9_par": 9}
    try:
        convs = {
            name: RnsIntegerConv(
                weight, basis_for_budget(moduli[name], bits), stride=sz["stride"],
                padding=sz["padding"], spec=spec, executor=executors[name],
            )
            for name in moduli
        }
        reference = convs["k3"].forward_direct(images)  # the oracle, never timed
        failures = {"errors": 0, "rejections": 0, "wrong_answers": 0}

        def measure(reps: int, root: bool = False) -> dict[str, list[float]]:
            samples: dict[str, list[float]] = {name: [] for name in convs}
            for rep in range(reps):
                for name, conv in convs.items():
                    t0 = time.perf_counter()
                    with recorder.root(rep) if root else nullcontext():
                        out = conv.forward(images)
                    samples[name].append(time.perf_counter() - t0)
                    if not np.allclose(out, reference, rtol=1e-9, atol=0.0):
                        failures["wrong_answers"] += 1
            return samples

        measure(sz["warm"])  # warm-up outputs are checked like any other
        setup_s = time.time() - t_start

        reps = sz["reps"]
        plain = measure(reps)
        medians = {name: quiet_window(v, 50)[0] for name, v in plain.items()}
        detail: dict[str, Any] = {
            "samples_s": plain,
            "moduli_bits": {n: [m.bit_length() for m in c.base.moduli] for n, c in convs.items()},
            "speedup_k9": medians["k9"] / medians["k9_par"],
            "k9_over_k3": medians["k9"] / medians["k3"],
        }
        if not traced:
            round_s = sum(medians.values())  # one call of each configuration at its median pace
            calls = 3 * reps
            end_to_end = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "images_per_s": {
                    "value": 3 * sz["images"] / round_s, "unit": "1/s", "images": sz["images"] * calls,
                    "note": "all three configurations together, each at its median call time",
                },
                "sustained_rate_rps": {
                    "value": 3 / round_s, "unit": "req/s",
                    "note": "closed loop: conv-stage calls per second at the median call times",
                },
            }
            for name, values in plain.items():
                end_to_end[f"conv_stage_{name}_p50_s"] = latency_metric(values, 50)
            return _finish(workload, sz, calls, failures, detail, end_to_end=end_to_end)

        # ---- traced round -------------------------------------------------------
        recorder.wrap(QuantizedConvSpec, "quantize_input", "henn.rnscnn.quantize_input")
        recorder.wrap(QuantizedConvSpec, "dequantize_output", "henn.rnscnn.dequantize_output")
        for conv in convs.values():
            recorder.wrap(conv, "forward_quantized", "henn.rnscnn.forward_quantized")
        recorder.wrap(CrtBasis, "compose_centered", "nt.crt.compose_centered")
        recorder.wrap(Executor, "map", "parallel.executor.map")
        for cls, kind in ((BatchedNttPlan, "batched"), (NttPlan, "single")):
            for fn in ("forward", "inverse"):
                recorder.wrap(cls, fn, f"nt.ntt.{kind}.{fn}")
        try:
            with_spans = measure(reps, root=True)
        finally:
            recorder.uninstall()
        traced_round_s = sum(quiet_window(v, 50)[0] for v in with_spans.values())
        extra = {
            "parallel.speedup_k9": detail["speedup_k9"],
            "parallel.k9_over_k3": detail["k9_over_k3"],
            "trace.coverage": recorder.coverage("request"),
            "trace.overhead_ratio": traced_round_s / sum(medians.values()),
        }
        detail["traced_samples_s"] = with_spans
        return _finish(
            workload, sz, 6 * reps, failures, detail,
            per_layer=_layer_metrics(recorder, 3 * reps, {}, extra),
        )
    finally:
        for executor in executors.values():
            executor.close()


# --------------------------------------------------------------------------- entry point

RUNNERS: dict[str, Callable[..., dict[str, Any]]] = {
    "rns_single": lambda *a: run_rns("rns_single", "cnn1", *a),
    "rns_batch_cnn2": lambda *a: run_rns("rns_batch_cnn2", "cnn2", *a),
    "gateway_mock_open": lambda *a: run_gateway("gateway_mock_open", *a),
    "hybrid_conv": lambda *a: run_hybrid_conv("hybrid_conv", *a),
}


def run(
    workload: str, seed: int, seconds: float, traced: bool, t_start: float,
    trace_path: Path | None = None, chrome: bool = False,
) -> dict[str, Any]:
    """Run one workload; in a traced run also write the span dump."""
    recorder = SpanRecorder()
    result = RUNNERS[workload](seed, seconds, traced, t_start, recorder)
    result.update(seed=seed, seconds=seconds, traced=traced)
    if traced:
        coverage = result["per_layer"]["trace.coverage"]["value"]
        result["coverage_ok"] = coverage >= MIN_COVERAGE
        if trace_path is not None:
            recorder.dump(trace_path, meta={"workload": workload, "seed": seed}, chrome=chrome)
            result["trace_file"] = str(trace_path)
    return result
