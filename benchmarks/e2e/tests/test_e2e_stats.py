"""Percentile rule, spread and the sustained-rate verdict."""

import pytest

from stats import (
    MAX_WINDOWS,
    latency_metric,
    percentile,
    phase_meets_slo,
    quiet_window,
    supported_percentile,
    sustained_phase,
    window_size,
)


@pytest.mark.parametrize(
    "n, wanted, expected",
    [
        (8, 95, 50),  # a handful of samples: the median only
        (24, 75, 50),  # 6 beyond p75 is not enough
        (39, 75, 50),
        (40, 75, 75),  # exactly 10 beyond
        (40, 95, 75),  # falls back to the highest supported one
        (199, 95, 90),
        (200, 95, 95),
        (1200, 95, 95),
        (1200, 99, 99),
        (999, 99, 95),
        (1200, 50, 50),
    ],
)
def test_supported_percentile(n, wanted, expected):
    assert supported_percentile(n, wanted) == expected


def test_window_sizes_follow_the_ten_beyond_rule():
    assert [window_size(p) for p in (50, 75, 90, 95, 99)] == [4, 40, 100, 200, 1000]


def test_quiet_window_ignores_a_slow_spell():
    """Two of three windows are slowed by a neighbour; the value is the
    median of the undisturbed one, whatever the whole-run median says."""
    quiet = [1.00, 1.02, 0.98, 1.01]
    samples = [x * 1.4 for x in quiet] + quiet + [x * 1.3 for x in quiet]
    value, windows = quiet_window(samples, 50)
    assert len(windows) == 3
    assert value == percentile(quiet, 50) == windows[1]
    assert percentile(samples, 50) > 1.25


def test_quiet_window_count_is_capped_and_never_zero():
    assert len(quiet_window(list(range(1, 10_001)), 50)[1]) == MAX_WINDOWS
    assert len(quiet_window([3.0, 1.0, 2.0], 50)[1]) == 1  # too few for two windows
    assert len(quiet_window(list(range(1200)), 95)[1]) == 6  # 200 samples carry a p95
    with pytest.raises(ValueError):
        quiet_window([], 50)


def test_latency_metric_records_what_it_used():
    samples = [float(i) for i in range(1, 41)]
    m = latency_metric(samples, 95)
    assert (m["percentile_wanted"], m["percentile_used"], m["samples"]) == (95, 75, 40)
    assert m["windows"] == [percentile(samples, 75)] and m["value"] == m["whole_run_value"]
    assert m["unit"] == "s"
    m = latency_metric(samples, 50)
    assert len(m["windows"]) == 10 and m["value"] == 2.5 and m["whole_run_value"] == 20.5


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)


def _phase(rate, failed=0, tail=0.05, depth=3, sent=100):
    return {
        "rate_rps": rate, "failed": failed, "sent": sent,
        "latency_tail_s": tail, "end_queue_depth": depth, "achieved_rps": rate * 0.99,
    }


def test_phase_meets_slo_needs_all_three():
    assert phase_meets_slo(_phase(100), 0.2, 64)
    assert not phase_meets_slo(_phase(100, failed=1), 0.2, 64)
    assert not phase_meets_slo(_phase(100, tail=0.21), 0.2, 64)
    assert not phase_meets_slo(_phase(100, depth=65), 0.2, 64)
    assert not phase_meets_slo(_phase(100, sent=0), 0.2, 64)


def test_sustained_phase_is_the_highest_pass():
    phases = [_phase(300), _phase(100), _phase(200)]
    assert sustained_phase(phases, 0.2, 64)["rate_rps"] == 300
    phases = [_phase(100), _phase(200), _phase(300, tail=0.5)]
    assert sustained_phase(phases, 0.2, 64)["rate_rps"] == 200
    # each rate is judged on its own: a hiccup on a low rung does not void the rest
    phases = [_phase(100, tail=0.5), _phase(200), _phase(300)]
    assert sustained_phase(phases, 0.2, 64)["rate_rps"] == 300
    assert sustained_phase([_phase(100, failed=2)], 0.2, 64) is None
