"""Order statistics and verdict rules of the end-to-end benchmark.

Pure functions, no ``repro`` imports: the self-tests exercise them
without building any model.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Percentiles a latency metric may be reported at, lowest first.
LADDER = (50, 75, 90, 95, 99)
#: Samples that must lie beyond a percentile before it is trusted.
MIN_BEYOND = 10
#: A latency is read in at most this many consecutive windows of a run.
MAX_WINDOWS = 24
#: Fewest samples a window's median is taken from.
MIN_MEDIAN_WINDOW = 4
PERCENTILE_RULE = (
    f"median, or the highest of p{'/p'.join(map(str, LADDER[1:]))} not above the "
    f"requested one with at least {MIN_BEYOND} samples beyond it; evaluated in up to "
    f"{MAX_WINDOWS} consecutive windows of the run (each large enough for that "
    "percentile by the same rule), the value is that of the quietest window"
)


def supported_percentile(n: int, wanted: int) -> int:
    """Highest ladder percentile <= *wanted* that *n* samples support.

    The median is always reported; a tail percentile only when at least
    :data:`MIN_BEYOND` samples lie beyond it, so a handful of slow
    requests cannot set the number on their own.
    """
    best = LADDER[0]
    for p in LADDER[1:]:
        if p <= wanted and n * (100 - p) / 100.0 >= MIN_BEYOND:
            best = p
    return best


def percentile(samples: Sequence[float], p: int) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    if not len(samples):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), p))


def window_size(p: int) -> int:
    """Fewest samples one window needs to carry percentile *p*."""
    if p == LADDER[0]:
        return MIN_MEDIAN_WINDOW
    return -(-MIN_BEYOND * 100 // (100 - p))


def quiet_window(samples: Sequence[float], p: int) -> tuple[float, list[float]]:
    """Percentile *p* of the quietest window, and every window's value.

    *samples* are in time order.  The machine this runs on is shared:
    other tenants slow it for seconds at a time and never speed it up,
    so a whole-run median drifts with the neighbours while the lowest
    window tracks what the code itself costs.  Windows are consecutive,
    equally long, and as many as the percentile rule allows (at most
    :data:`MAX_WINDOWS`).
    """
    if not len(samples):
        raise ValueError("no samples")
    count = max(1, min(MAX_WINDOWS, len(samples) // window_size(p)))
    values = [percentile(w, p) for w in np.array_split(np.asarray(samples, dtype=np.float64), count)]
    return min(values), values


def latency_metric(samples: Sequence[float], wanted: int) -> dict:
    """One latency entry: the quiet-window value plus what it was made from."""
    used = supported_percentile(len(samples), wanted)
    value, windows = quiet_window(samples, used)
    return {
        "value": value,
        "unit": "s",
        "samples": len(samples),
        "percentile_wanted": wanted,
        "percentile_used": used,
        "windows": windows,
        "whole_run_value": percentile(samples, used),
    }


def phase_meets_slo(phase: dict, latency_limit_s: float, max_end_queue: int) -> bool:
    """Whether one open-loop phase was sustained.

    Sustained means: nothing failed, the supported tail percentile of
    the due-time latency is within the limit, and the queue was not
    still growing when the phase ended.
    """
    return (
        phase["failed"] == 0
        and phase["sent"] > 0
        and phase["latency_tail_s"] <= latency_limit_s
        and phase["end_queue_depth"] <= max_end_queue
    )


def sustained_phase(
    phases: Sequence[dict], latency_limit_s: float, max_end_queue: int
) -> dict | None:
    """The highest-rate phase that meets the SLO, or ``None``."""
    passing = [p for p in phases if phase_meets_slo(p, latency_limit_s, max_end_queue)]
    return max(passing, key=lambda p: p["rate_rps"], default=None)
