"""Ablation — weight pruning (Faster-CryptoNets, §IV related work).

Compiling with ``prune_below`` drops near-zero weights from the
homomorphic weighted sums: the planned tap count falls with sparsity
while accuracy degrades gracefully.  This regenerates that trade-off
curve on CNN1, one engine per pruned graph.  On CKKS-RNS the latency
stays flat: a map is one dense limb GEMM whatever its zeros, and a
one-image request travels packed, where pruning leaves the diagonal and
rotation counts of tiny CNN1 as they are.
"""

import numpy as np
from conftest import save_record

from repro.bench.tables import measure_engine_latency
from repro.henn.backend import CkksRnsBackend, MockBackend
from repro.henn.compiler import compile_model, model_depth
from repro.henn.inference import HeInferenceEngine
from repro.henn.plan import PlannedTaps


def planned_taps(engine: HeInferenceEngine) -> int:
    """Taps the engine's per-position plan weighs: every planned row's kept taps, summed."""
    return sum(
        len(enc.keep)
        for layer in engine.plan.layers
        if isinstance(layer, PlannedTaps)
        for _, enc in layer.map.rows
    )


def test_ablation_pruning(benchmark, cnn1_models, preset):
    rows, taps = [], []
    for threshold in (0.0, 0.02, 0.05, 0.1):
        layers = compile_model(cnn1_models.slaf_model, prune_below=threshold)
        mock = MockBackend(batch=256, levels=model_depth(layers) + 1)
        eng = HeInferenceEngine(mock, layers, cnn1_models.input_shape)
        n = min(256, len(cnn1_models.y_test))
        acc = eng.accuracy(cnn1_models.x_test[:n], cnn1_models.y_test[:n])
        # the engine runs the plan it compiles from its layers: build one per graph
        rns = HeInferenceEngine(
            CkksRnsBackend(preset.rns_params(model_depth(layers)), seed=0),
            layers,
            cnn1_models.input_shape,
        )
        taps.append(planned_taps(rns))
        lat = measure_engine_latency(rns, cnn1_models.x_test[:1], repeats=20).avg
        weights = np.concatenate(
            [l.weight.ravel() for l in layers if hasattr(l, "weight")]
        )
        sparsity = float((np.abs(weights) <= threshold).mean()) if threshold else 0.0
        rows.append([threshold, f"{sparsity:.0%}", taps[-1], lat, acc * 100])

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    save_record(
        "ablation_pruning",
        ["prune threshold", "weights dropped", "planned taps", "latency (s)", "accuracy (%)"],
        rows,
        f"Pruning ablation on CNN1 (preset={preset.name})",
    )
    assert taps == sorted(set(taps), reverse=True)  # each threshold plans fewer taps
    assert rows[-1][3] <= rows[0][3] * 1.05  # latency should not grow with pruning
