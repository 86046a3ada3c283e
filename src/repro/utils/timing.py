"""Wall-clock timing helpers used by the benchmark harness.

The paper reports latency as (min, max, avg) over repeated single-image
classification requests (Tables III-VI); :class:`LatencyStats` carries
exactly those statistics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

__all__ = ["Timer", "LatencyStats"]


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self._start


@dataclass
class LatencyStats:
    """Accumulates per-run latencies and exposes min/max/avg like the paper."""

    samples: list[float] = field(default_factory=list)

    def add(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        self.samples.append(seconds)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def min(self) -> float:
        return min(self.samples) if self.samples else math.nan

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else math.nan

    @property
    def avg(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else math.nan

    @property
    def std(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mu = self.avg
        return math.sqrt(sum((s - mu) ** 2 for s in self.samples) / (len(self.samples) - 1))

    def row(self) -> dict[str, float]:
        """Dictionary shaped like one row of the paper's latency tables."""
        return {"min": self.min, "max": self.max, "avg": self.avg}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyStats(n={self.count}, min={self.min:.4f}, "
            f"max={self.max:.4f}, avg={self.avg:.4f})"
        )
