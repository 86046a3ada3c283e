"""The benchmark's declared metrics: names, units, direction, bounds.

``BENCHMARK.json`` at the repository root lists exactly these (a
self-test compares the two), so the harness prints what the manifest
promises and nothing else.
"""

from __future__ import annotations

WORKLOADS: dict[str, str] = {
    "rns_single": (
        "CNN1-HE-RNS closed loop, 1 client, one distinct image per request: the paper's Lat; "
        "ckksrns key switching under the first HePoly dominates, every request misses the hoist cache"
    ),
    "rns_batch_cnn2": (
        "CNN2-HE-RNS (14-prime chain) closed loop, 256 images per request, every slot used: "
        "same layers the other way, throughput per image, keyswitch cost grows with the chain"
    ),
    "gateway_mock_open": (
        "BatchedCloudService on the mock backend, open-loop Poisson arrivals at fixed rates plus an "
        "overload probe: scheduler, admission and slot concat/split do all the work, ckksrns/nt none"
    ),
    "hybrid_conv": (
        "Table IV/VI conv stage, RnsIntegerConv.forward on 64 28x28 images at k=3, k=9 and k=9 on "
        "nproc threads: rns limbs, CRT recompose and parallel dispatch work, ckksrns and serving do not"
    ),
}

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
#: Times and rates share 0.25: over three ten-seed sets on the builder's
#: shared 2-vCPU box their spreads (inter-quartile distance / median)
#: reached 7-12 %, and a bound is only usable at about three times that
#: (README "Reference numbers").  Tighten on a quiet machine.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("request_latency_p50_s", "s", "lower", 0.25),
    ("request_latency_p75_s", "s", "lower", 0.25),
    ("request_latency_p95_s", "s", "lower", 0.25),
    ("cloud_latency_p50_s", "s", "lower", 0.25),
    ("images_per_s", "1/s", "higher", 0.25),
    ("sustained_rate_rps", "req/s", "higher", 0.25),
    ("conv_stage_k3_p50_s", "s", "lower", 0.25),
    ("conv_stage_k9_p50_s", "s", "lower", 0.25),
    ("conv_stage_k9_par_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: The workload's own headline latency.  The manifest contract makes
#: every run print every end-to-end metric and forbids zeros, so a
#: latency metric a workload does not produce repeats this one
#: (``"native": false`` in the result); see README "Metric grid".
HEADLINE: dict[str, str] = {
    "rns_single": "request_latency_p50_s",
    "rns_batch_cnn2": "request_latency_p50_s",
    "gateway_mock_open": "request_latency_p50_s",
    # the serial k=9 stage: the threaded one also depends on whether the
    # second core happens to be free
    "hybrid_conv": "conv_stage_k9_p50_s",
}

#: Planned layers of CNN1 and CNN2, index-qualified so the HePoly rows
#: of one model never collide.
CNN_LAYERS: dict[str, tuple[str, ...]] = {
    "cnn1": ("0.HeConv2d", "1.HePoly", "2.HeFlatten", "3.HeLinear", "4.HePoly", "5.HeLinear"),
    "cnn2": (
        "0.HeConv2d", "1.HePoly", "2.HeConv2d", "3.HePoly",
        "4.HeFlatten", "5.HeLinear", "6.HePoly", "7.HeLinear",
    ),
}

BACKEND_BUSY = ("poly_eval_many", "weighted_sum_encoded", "encrypt", "rescale_many", "relinearize_ext")
CONTEXT_METHODS = (
    "encrypt", "decrypt", "weighted_sum", "relinearize", "rescale", "rescale_ext",
    "mul_raw", "square_raw", "add_plain_many", "mul_plain_scalar_many",
)
#: Registry counters reported per traced request.
REGISTRY_COUNTERS = (
    "plan.cache.hit", "plan.cache.miss", "plan.encode.fresh",
    "poly.bsgs.ct_mults", "relin.count", "keyswitch.hoist.hit", "keyswitch.hoist.miss",
)


def _per_layer() -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = []

    def busy(name: str) -> None:
        rows.append((f"{name}.busy_s", "s", "lower"))

    def self_(name: str) -> None:
        rows.append((f"{name}.self_s", "s", "lower"))

    def calls(name: str) -> None:
        rows.append((f"{name}.calls", "count", "lower"))

    for fn in ("encrypt_request", "try_classify", "decrypt_response", "submit"):
        busy(f"henn.protocol.{fn}")
    rows.append(("henn.protocol.requests_ok", "count", "higher"))
    rows.append(("henn.protocol.requests_failed", "count", "lower"))

    self_("henn.inference.run_encrypted")
    self_("henn.inference.encrypt_images")
    busy("henn.inference.assemble_batch")
    busy("henn.inference.split_scores")

    for layer in sorted({l for layers in CNN_LAYERS.values() for l in layers}):
        busy(f"henn.layers.{layer}")
    for counter in REGISTRY_COUNTERS[:3]:
        rows.append((counter, "count", "higher" if counter.endswith(".hit") else "lower"))

    for fn in BACKEND_BUSY:
        busy(f"henn.backend.{fn}")
    rows.append(("henn.backend.self_s", "s", "lower"))
    for counter in REGISTRY_COUNTERS[3:]:
        rows.append((counter, "count", "higher" if counter.endswith(".hit") else "lower"))

    for fn in CONTEXT_METHODS:
        calls(f"ckksrns.context.{fn}")
        self_(f"ckksrns.context.{fn}")
    busy("ckksrns.context.relinearize")

    for plan in ("batched", "single"):
        for direction in ("forward", "inverse"):
            calls(f"nt.ntt.{plan}.{direction}")
            self_(f"nt.ntt.{plan}.{direction}")

    calls("nt.crt.compose_centered")
    self_("nt.crt.compose_centered")
    for fn in ("quantize_input", "forward_quantized", "dequantize_output"):
        self_(f"henn.rnscnn.{fn}")

    calls("parallel.executor.map")
    busy("parallel.executor.map")
    rows.append(("parallel.speedup_k9", "ratio", "higher"))
    rows.append(("parallel.k9_over_k3", "ratio", "lower"))

    rows += [
        ("serving.batch.wait_seconds.p50", "s", "lower"),
        ("serving.batch.wait_seconds.p95", "s", "lower"),
        ("serving.batch.compute_seconds.p50", "s", "lower"),
        ("serving.batch.size.mean", "count", "higher"),
        ("serving.batches", "count", "lower"),
        ("serving.slot_utilization", "ratio", "higher"),
        ("serving.requests_rejected", "count", "lower"),
        ("serving.requests_shed_expired", "count", "lower"),
    ]
    for fn in ("concat_slots", "slice_slots"):
        calls(f"serving.packing.{fn}")
        self_(f"serving.packing.{fn}")
    rows.append(("serving.overload.rejected_fraction", "ratio", "lower"))

    rows += [
        ("loadgen.lateness_p99_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("henn.logit_error_max", "ratio", "lower"),
        ("henn.argmax_agreement", "ratio", "higher"),
    ]
    return rows


#: (name, unit, better) of every per-layer metric the traced run prints.
PER_LAYER: list[tuple[str, str, str]] = _per_layer()

#: Lowest acceptable ``trace.coverage`` (ROADMAP item 1's "adds up" check).
MIN_COVERAGE = 0.95


def manifest(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these declarations imply."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
