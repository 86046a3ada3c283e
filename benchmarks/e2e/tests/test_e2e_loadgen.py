"""Open-loop schedule determinism and due-time latency accounting."""

import time
from concurrent.futures import Future

import numpy as np
import pytest

from loadgen import poisson_schedule, run_open_loop


def test_schedule_is_a_function_of_the_seed():
    a = poisson_schedule(np.random.default_rng(5), 300, 4.0, 64)
    b = poisson_schedule(np.random.default_rng(5), 300, 4.0, 64)
    c = poisson_schedule(np.random.default_rng(6), 300, 4.0, 64)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0][:10], c[0][:10])


def test_schedule_shape():
    due, picks = poisson_schedule(np.random.default_rng(1), 300, 4.0, 64)
    assert len(due) == len(picks)
    assert np.all(np.diff(due) > 0) and due[0] > 0 and due[-1] < 4.0
    assert abs(len(due) - 1200) < 6 * np.sqrt(1200)
    assert picks.min() >= 0 and picks.max() < 64


def test_schedule_rejects_nonsense():
    with pytest.raises(ValueError):
        poisson_schedule(np.random.default_rng(1), 0, 1.0, 4)


def _done(value):
    fut = Future()
    fut.set_result(value)
    return fut


def test_latency_runs_from_the_due_time_not_the_send_time():
    """A stall in the first submit delays the sends behind it; the open
    loop charges that delay to those requests as latency."""
    due = [0.00, 0.01, 0.02]

    def submit(k):
        if k == 0:
            time.sleep(0.08)  # the service blocks its caller
        return _done(k)

    run = run_open_loop(submit, due, [0, 1, 2])
    assert run["responses"] == [0, 1, 2]
    lateness, latency, service = run["lateness_s"], run["latency_s"], run["service_s"]
    assert np.all(lateness >= 0)
    assert lateness[0] < 0.02
    assert lateness[1] > 0.05 and lateness[2] > 0.04  # sent late, through no fault of their own
    assert latency[1] > 0.05 and service[1] < 0.02  # due-time latency sees the stall, send-time does not
    assert np.allclose(latency, lateness + service)


def test_failed_future_yields_none_and_probe_is_read():
    def submit(k):
        fut = Future()
        if k:
            fut.set_exception(RuntimeError("x"))
        else:
            fut.set_result("ok")
        return fut

    run = run_open_loop(submit, [0.0, 0.001], [0, 1], end_probe=lambda: 17)
    assert run["responses"] == ["ok", None]
    assert run["end_probe"] == 17
