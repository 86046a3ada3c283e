"""Ablation — DESIGN.md §5.3: SIMD batch packing amortisation.

One per-position classification costs about the same wall-clock
whether 2 or 16 images ride in the slots, so throughput scales with the
batch while latency stays flat.  A one-image request on CKKS-RNS
travels in the packed single-image layout instead (the ``layout``
column, read from ``engine.layout``): row 1 is not a per-position
batch, so the amortisation check starts at B = 2, the smallest
per-position batch, and row 1 is checked to beat it.  Each latency is
the median of warm requests.  The table is written before the checks,
so a failing run still records what it measured.
"""

import numpy as np
from conftest import save_record

from repro.bench.tables import measure_engine_latency
from repro.bench.workloads import make_engine

#: Warm requests timed per row; the row reports their median.
REPEATS = 5


def test_ablation_packing(benchmark, cnn1_models):
    engine = make_engine(cnn1_models, "ckks-rns")
    rows = []
    for b in (1, 2, 4, 16):
        stats = measure_engine_latency(engine, cnn1_models.x_test[:b], repeats=REPEATS)
        lat = float(np.median(stats.samples))
        layout = "packed" if b == 1 and engine.layout is not None else "per-position"
        rows.append([b, layout, lat, b / lat])

    benchmark.pedantic(
        lambda: engine.classify(cnn1_models.x_test[:1]), rounds=1, iterations=1
    )
    save_record(
        "ablation_packing",
        ["batch (images)", "layout", "latency (s)", "throughput (img/s)"],
        rows,
        f"SIMD batch packing: per-position latency is batch-invariant (median of {REPEATS} warm requests)",
    )
    lat = {row[0]: row[2] for row in rows}
    assert lat[16] < 2.0 * lat[2], "per-position batching should not scale latency with batch"
    assert lat[1] < lat[2], "one packed image should beat the smallest per-position batch"
