"""Generators for every table of the paper's evaluation section.

Each ``run_tableN`` returns ``(headers, rows)`` ready for
:func:`format_table`; the ``benchmarks/`` suite prints them and
EXPERIMENTS.md records measured-vs-paper.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.presets import BenchPreset
from repro.bench.workloads import TrainedModels, make_engine
from repro.henn.hybrid import HybridRnsEngine
from repro.henn.layers import HeConv2d
from repro.henn.rnscnn import QuantizedConvSpec, RnsIntegerConv, basis_for_budget
from repro.henn.security import validate_security
from repro.utils.timing import LatencyStats

__all__ = [
    "format_table",
    "table1_rows",
    "table2_rows",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "measure_engine_latency",
    "mock_accuracy",
]


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Plain-text table (the paper's layout, monospace)."""
    cells = [[str(h) for h in headers]] + [
        [f"{c:.2f}" if isinstance(c, float) else str(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# ------------------------------------------------------------------ Table I

#: Reference values transcribed from the paper's Table I.
TABLE1_REFERENCE: list[tuple] = [
    (2016, "CryptoNets", "MNIST", 250.0, 98.95),
    (2017, "Chabanne-NN", "MNIST", None, 97.95),
    (2018, "F-CryptoNets", "MNIST", 39.1, 98.70),
    (2018, "F-CryptoNets", "CIFAR-10", 22372.0, 76.72),
    (2018, "FHE-DiNN100", "MNIST", 1.65, 96.35),
    (2018, "TAPAS", "MNIST", 133200.0, 98.60),  # 37 hours
    (2019, "SEALion", "MNIST", 60.0, 98.91),
    (2019, "CryptoDL", "MNIST", 148.97, 98.52),
    (2019, "Lo-La", "MNIST", 2.20, 98.95),
    (2019, "Lo-La", "CIFAR-10", 730.0, 74.10),
    (2019, "nGraph-HE", "MNIST", 16.72, 98.95),
    (2019, "E2DM", "MNIST", 1.69, 98.10),
    (2021, "HCNN", "MNIST", 5.16, 99.00),
    (2022, "LeNet-HE", "MNIST", 138.0, 98.18),
    (2022, "RNS-CKKS-NN", "CIFAR-10", 10602.0, 92.43),
    (2024, "CNN-HE-SLAF (CNN1)", "MNIST", 3.13, 98.22),
    (2024, "CNN-HE-SLAF (CNN2)", "MNIST", 39.84, 99.21),
]


def table1_rows(measured: list[tuple] | None = None) -> tuple[list[str], list[list]]:
    """Table I: literature summary + our measured rows (appended)."""
    headers = ["Year", "Model", "Dataset", "Lat (s)", "Acc (%)"]
    rows: list[list] = [
        [y, m, d, ("NR" if l is None else l), a] for (y, m, d, l, a) in TABLE1_REFERENCE
    ]
    for name, lat, acc in measured or []:
        rows.append([2026, name, "synth-MNIST", lat, acc])
    return headers, rows


# ------------------------------------------------------------------ Table II


def table2_rows(params) -> tuple[list[str], list[list]]:
    """Table II: CKKS-RNS security settings + HE-standard validation."""
    log_qp = params.log_qp
    report = validate_security(params.n, log_qp, 128)
    headers = ["Parameter", "Value"]
    rows = [
        ["lambda", 128 if report.secure else f"<128 (toy: margin {report.margin_bits})"],
        ["N", params.n],
        ["Delta", f"2^{params.scale_bits}"],
        ["log q", params.log_q],
        ["log qP", log_qp],
        ["L", params.levels],
        ["q", list(params.moduli_bits)],
        ["HE-standard OK", report.secure],
    ]
    return headers, rows


# -------------------------------------------------------- Tables III and V


def measure_engine_latency(engine, images: np.ndarray, repeats: int) -> LatencyStats:
    """Timed encrypted classifications (the paper's Lat column).

    One untimed classify runs first: the first request pays the plan
    compile and the Galois keys, which are setup, not latency.
    """
    engine.classify(images)
    stats = LatencyStats()
    for _ in range(repeats):
        engine.latency = LatencyStats()
        engine.classify(images)
        stats.add(engine.latency.samples[-1])
    return stats


def mock_accuracy(models: TrainedModels) -> float:
    """Full-pipeline accuracy via the plaintext-simulation backend."""
    n = min(models.preset.accuracy_samples, len(models.y_test))
    engine = make_engine(models, "mock")
    return engine.accuracy(models.x_test[:n], models.y_test[:n])


def _run_he_vs_rns(models: TrainedModels, repeats: int) -> tuple[list[str], list[list]]:
    acc = mock_accuracy(models) * 100.0
    img = models.x_test[:1]
    mp_engine = make_engine(models, "ckks")
    rns_engine = make_engine(models, "ckks-rns")
    mp = measure_engine_latency(mp_engine, img, repeats)
    rns = measure_engine_latency(rns_engine, img, repeats)
    name = models.arch.upper()
    headers = ["Model", "Training Acc (%)", "Lat min", "Lat max", "Lat avg", "Acc (%)"]
    train_acc = models.slaf_acc * 100.0
    rows = [
        [f"{name}-HE", train_acc, mp.min, mp.max, mp.avg, acc],
        [f"{name}-HE-RNS", train_acc, rns.min, rns.max, rns.avg, acc],
        ["speed-up (%)", "", "", "", 100.0 * (1 - rns.avg / mp.avg), ""],
    ]
    return headers, rows


def run_table3(models: TrainedModels, repeats: int | None = None) -> tuple[list[str], list[list]]:
    """Table III: CNN1-HE vs CNN1-HE-RNS (latency + accuracy)."""
    if models.arch != "cnn1":
        raise ValueError("run_table3 expects CNN1 models")
    return _run_he_vs_rns(models, repeats or models.preset.latency_repeats)


def run_table5(models: TrainedModels, repeats: int | None = None) -> tuple[list[str], list[list]]:
    """Table V: CNN2-HE vs CNN2-HE-RNS (latency + accuracy)."""
    if models.arch != "cnn2":
        raise ValueError("run_table5 expects CNN2 models")
    return _run_he_vs_rns(models, repeats or models.preset.latency_repeats)


# -------------------------------------------------------- Tables IV and VI


def _run_moduli_sweep(
    models: TrainedModels,
    ks: list[int],
    include_he_tail: bool = True,
) -> tuple[list[str], list[list]]:
    """Latency vs moduli-chain length for the Fig. 5 hybrid pipeline.

    The homomorphic tail is independent of *k*, so it is measured once
    and reported as a constant column; the conv-stage column carries the
    sweep signal (k = 1 is the non-decomposed multiprecision baseline —
    ``forward_direct``).
    """
    preset = models.preset
    conv = models.he_layers[0]
    assert isinstance(conv, HeConv2d)
    total_bits = preset.sweep_total_bits
    half = total_bits // 2
    spec = QuantizedConvSpec(input_bits=half, weight_bits=total_bits - half - 12)
    # The sweep measures the decomposed-convolution arithmetic, so it
    # always runs the paper-shape conv workload (5 maps, 5x5, stride 2 on
    # 28x28) — at the "paper" preset these are the trained CNN weights,
    # otherwise a fixed random instance of the same geometry.
    if models.input_shape[1] == 28:
        weight, stride, padding = conv.weight, conv.stride, conv.padding
        imgs = models.x_test[: preset.sweep_batch, 0]
    else:
        w_rng = np.random.default_rng(0)
        weight, stride, padding = w_rng.normal(0, 0.3, (5, 1, 5, 5)), 2, 1
        imgs = w_rng.random((preset.sweep_batch, 28, 28))

    he_tail = 0.0
    if include_he_tail:
        engine = HybridRnsEngine(
            make_engine(models, "ckks-rns").backend,
            models.he_layers,
            models.input_shape,
            k_moduli=max(ks),
            total_bits=total_bits,
            spec=spec,
        )
        engine.classify(models.x_test[:1])
        he_tail = engine.stages.he_stage

    headers = ["Moduli chain length", "conv stage (ms)", "HE tail (s)", "Lat (s)"]
    rows: list[list] = []
    for k in ks:
        base = basis_for_budget(k, total_bits)
        rconv = RnsIntegerConv(weight, base, stride=stride, padding=padding, spec=spec)
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            if k == 1:
                rconv.forward_direct(imgs)
            else:
                rconv.forward(imgs)
            samples.append(time.perf_counter() - t0)
        dt = min(samples)
        rows.append([k, dt * 1e3, he_tail, dt + he_tail])
    return headers, rows


def run_table4(models: TrainedModels, ks: list[int] | None = None, include_he_tail: bool = True):
    """Table IV: CNN1-HE-RNS latency across moduli configurations."""
    if models.arch != "cnn1":
        raise ValueError("run_table4 expects CNN1 models")
    return _run_moduli_sweep(models, ks or list(range(3, 11)), include_he_tail)


def run_table6(models: TrainedModels, ks: list[int] | None = None, include_he_tail: bool = True):
    """Table VI: CNN2-HE-RNS latency across moduli configurations
    (row k = 1 is the non-decomposed baseline, as in the paper)."""
    if models.arch != "cnn2":
        raise ValueError("run_table6 expects CNN2 models")
    return _run_moduli_sweep(models, ks or [1] + list(range(3, 11)), include_he_tail)
