"""Ablation — DESIGN.md §5.3: SIMD batch packing amortisation.

One encrypted classification costs the same wall-clock whether 1 or
max-batch images ride in the slots; throughput therefore scales with
the batch while single-image latency is constant.  A one-image request
on CKKS-RNS travels in the packed single-image layout instead (the
``layout`` column), so row 1 is not a per-position batch.  The table is
written before the check, so a failing run still records what it
measured.
"""

from conftest import save_record

from repro.bench.tables import measure_engine_latency
from repro.bench.workloads import make_engine


def test_ablation_packing(benchmark, cnn1_models):
    engine = make_engine(cnn1_models, "ckks-rns")
    batches = [1, 4, 16]
    rows = []
    for b in batches:
        stats = measure_engine_latency(engine, cnn1_models.x_test[:b], repeats=1)
        layout = "packed" if b == 1 and engine.plan.packed_width is not None else "per-position"
        rows.append([b, layout, stats.avg, b / stats.avg])

    benchmark.pedantic(
        lambda: engine.classify(cnn1_models.x_test[:1]), rounds=1, iterations=1
    )
    save_record(
        "ablation_packing",
        ["batch (images)", "layout", "latency (s)", "throughput (img/s)"],
        rows,
        "SIMD batch packing: latency is batch-invariant",
    )
    lat1 = rows[0][2]
    lat16 = rows[-1][2]
    assert lat16 < 2.0 * lat1, "batched packing should not scale latency with batch"
