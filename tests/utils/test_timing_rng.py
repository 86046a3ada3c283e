"""Utilities: latency statistics and RNG plumbing."""

import math

import numpy as np
import pytest

from repro.utils.rng import derive_rng
from repro.utils.timing import LatencyStats, Timer


def test_timer_measures():
    with Timer() as t:
        sum(range(10000))
    assert t.elapsed > 0


def test_latency_stats():
    s = LatencyStats()
    for v in (0.2, 0.1, 0.3):
        s.add(v)
    assert s.count == 3
    assert math.isclose(s.min, 0.1)
    assert math.isclose(s.max, 0.3)
    assert math.isclose(s.avg, 0.2)
    assert s.std > 0
    assert s.row() == {"min": s.min, "max": s.max, "avg": s.avg}
    with pytest.raises(ValueError):
        s.add(-1.0)


def test_latency_stats_empty():
    s = LatencyStats()
    assert math.isnan(s.avg)
    assert s.std == 0.0


def test_derive_rng_passthrough_and_seed():
    g = np.random.default_rng(5)
    assert derive_rng(g) is g
    a = derive_rng(7).integers(0, 100, 5)
    b = derive_rng(7).integers(0, 100, 5)
    assert np.array_equal(a, b)

