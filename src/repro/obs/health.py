"""Ciphertext-health telemetry: the quantities that silently kill CKKS.

Latency spans say where time went; this module watches the quantities
that destroy *correctness* without raising: the plaintext scale drifting
off Δ, the modulus-chain level budget running out, and the noise margin
(headroom between the live modulus and the scale) shrinking toward
zero.  :func:`observe_layer` samples them from the ciphertexts crossing
every :mod:`repro.henn` layer boundary into labelled gauges
(``henn.ct.*``, tagged by layer, index and backend), and
:func:`precision_probe` measures the only ground truth an approximate
scheme has — ``max |decrypt(ct) − reference|`` — on the decrypt side.

Sampling is gated on :func:`repro.obs.enabled`, so the steady-state
engine keeps its zero-overhead default; a traced classification gets a
per-layer health timeline for free.  The noise estimate is deliberately
cheap (no decryption, no canonical-embedding norm): ``noise_margin_bits
= log2(q_level) − log2(scale)`` is the headroom the §V.B parameter
accounting budgets against, and it hits zero exactly when decryption
starts returning garbage.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

import numpy as np

from repro.obs import tracer as _tracer
from repro.obs.metrics import get_registry

__all__ = [
    "ciphertext_health",
    "observe_layer",
    "precision_probe",
]


def _modulus_bits(backend: Any, level: int) -> float:
    """``log2`` of the ciphertext modulus active at *level*.

    Exact for both real schemes (RNS prime-chain prefix, multiprecision
    ``q_level``); the mock backend has no modulus, so each remaining
    level is modelled as one Δ-sized rescale prime — the same fiction
    its ``rescale`` implements.
    """
    ctx = getattr(backend, "ctx", None)
    moduli = getattr(ctx, "moduli", None) if ctx is not None else None
    if moduli:
        if getattr(backend, "name", "") == "ckks-rns":
            return float(sum(int(m).bit_length() for m in moduli[: level + 1]))
        return float(int(moduli[min(level, len(moduli) - 1)]).bit_length())
    scale = float(getattr(backend, "scale", 2.0))
    return float(math.log2(scale) * (level + 1))


def _top_level(backend: Any) -> int | None:
    """Length of the backend's level budget, where discoverable."""
    ctx = getattr(backend, "ctx", None)
    if ctx is not None:
        top = getattr(ctx, "top_level", None)
        if top is not None:
            return int(top)
        params = getattr(ctx, "params", None)
        levels = getattr(params, "levels", None) if params is not None else None
        if levels is not None:
            return int(levels)
    levels = getattr(backend, "levels", None)
    return int(levels) if levels is not None else None


def ciphertext_health(backend: Any, handle: Any) -> dict[str, float | int | None]:
    """Health vitals of one ciphertext under *backend*.

    Returns
    -------
    dict with:

    * ``scale_bits`` — ``log2`` of the current plaintext scale Δ'.
    * ``level`` — remaining rescale budget (chain depth remaining).
    * ``depth_consumed`` — levels already spent (``None`` when the
      backend's level budget is not discoverable).
    * ``modulus_bits`` — ``log2 q`` of the active modulus.
    * ``noise_margin_bits`` — the cheap noise-budget estimate
      ``modulus_bits − scale_bits``; at 0 the message drowns.
    """
    scale = float(handle.scale)
    level = int(handle.level)
    scale_bits = math.log2(scale) if scale > 0 else 0.0
    modulus_bits = _modulus_bits(backend, level)
    top = _top_level(backend)
    return {
        "scale_bits": scale_bits,
        "level": level,
        "depth_consumed": (top - level) if top is not None else None,
        "modulus_bits": modulus_bits,
        "noise_margin_bits": modulus_bits - scale_bits,
    }


def _flat_handles(handles: Any) -> list[Any]:
    if isinstance(handles, np.ndarray):
        return list(handles.reshape(-1))
    if isinstance(handles, (list, tuple)):
        return list(handles)
    return [handles]


def observe_layer(
    backend: Any,
    handles: Any,
    layer: str,
    index: int | None = None,
    used_slots: int | None = None,
) -> dict[str, float | int | None] | None:
    """Sample health gauges for the ciphertexts leaving one layer.

    Scans every handle's scale/level (cheap attribute reads) for the
    *floor* of the batch — the weakest ciphertext is the one that fails
    first — and records ``henn.ct.scale_bits`` / ``henn.ct.level`` /
    ``henn.ct.depth_consumed`` / ``henn.ct.noise_margin_bits`` gauges
    labelled ``{layer, index, backend}``, plus unlabelled floor gauges
    whose ``min`` envelope gives the run-wide worst case.  No-op (and
    returns ``None``) unless tracing is enabled.

    ``henn.ct.slot_utilization`` (same labels) is the fraction of each
    ciphertext's slots that carry data: *used_slots* / slots, where the
    caller knows the occupancy (the packed layout: the feature width),
    else the slot count a mock handle holds.  A real ciphertext of the
    per-position layout hides how many images ride in it, so there the
    gauge is not set.
    """
    if not _tracer.enabled():
        return None
    flat = _flat_handles(handles)
    if not flat:
        return None
    worst = min(flat, key=lambda h: (h.level, -h.scale))
    health = ciphertext_health(backend, worst)
    labels: dict[str, Any] = {"layer": layer, "backend": getattr(backend, "name", "?")}
    if index is not None:
        labels["index"] = index
    reg = get_registry()
    if used_slots is None and getattr(worst, "values", None) is not None:
        used_slots = len(worst.values)
    if used_slots is not None:
        health["slot_utilization"] = used_slots / backend.max_batch
        reg.gauge("henn.ct.slot_utilization", labels).set(health["slot_utilization"])
    for field in ("scale_bits", "level", "depth_consumed", "noise_margin_bits"):
        value = health[field]
        if value is None:
            continue
        reg.gauge(f"henn.ct.{field}", labels).set(float(value))
        reg.gauge(f"henn.ct.{field}").set(float(value))  # unlabelled floor series
    reg.counter("henn.ct.sampled").inc(len(flat))
    return health


def precision_probe(
    backend: Any,
    handles: Any,
    reference: np.ndarray,
    labels: Mapping[str, Any] | None = None,
) -> dict[str, float]:
    """Decrypt-side ground truth: error statistics against a reference.

    Decrypts *handles* (a single handle, or a sequence stacked along the
    last axis, matching ``HeInferenceEngine.classify``'s logit layout)
    and compares against *reference*, recording
    ``henn.probe.max_abs_err`` and ``henn.probe.bits_precision`` gauges.
    This needs the secret key, so it belongs in tests and benchmarks —
    never on the serving path — but it is the only real measurement of
    CKKS noise.

    Parameters
    ----------
    backend:
        Backend holding the decryption context.
    handles:
        One ciphertext handle, or a sequence/object-array of handles
        (decrypted columns are stacked on the last axis).
    reference:
        Expected plaintext values; shape must match the decryption.  Its
        leading dimension is the number of slots kept per handle.
    labels:
        Extra gauge labels (merged over ``{"backend": ...}``).

    Returns
    -------
    The :func:`repro.ckks.noise.measure_error` statistics dict
    (``max_abs``, ``mean_abs``, ``max_rel``, ``bits_precision``).
    """
    from repro.ckks.noise import measure_error

    reference = np.asarray(reference, dtype=np.float64)
    flat = _flat_handles(handles)
    if len(flat) == 1 and reference.ndim <= 1:
        decrypted = np.real(np.asarray(backend.decrypt(flat[0])))
        decrypted = decrypted[: reference.shape[0]] if reference.ndim else decrypted
    else:
        n = reference.shape[0] if reference.ndim else None
        decrypted = np.stack(
            [np.real(np.asarray(backend.decrypt(h, count=n))) for h in flat], axis=-1
        )
    stats = measure_error(decrypted, reference)
    all_labels = {"backend": getattr(backend, "name", "?")}
    all_labels.update(labels or {})
    reg = get_registry()
    reg.gauge("henn.probe.max_abs_err", all_labels).set(stats["max_abs"])
    reg.gauge("henn.probe.bits_precision", all_labels).set(stats["bits_precision"])
    return stats
