"""Single-thread open-loop load generator.

Arrivals follow a schedule fixed before the phase starts; every request
is timed from the instant it was *due*, not from when the generator got
round to sending it, so a stall in the service (or in the generator)
shows up as latency of the requests queued behind it.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Any, Callable, Sequence

import numpy as np


def poisson_schedule(
    rng: np.random.Generator, rate_rps: float, duration_s: float, pool_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Due times (s from phase start, ascending, < duration) and pool picks.

    Same generator state in, same schedule out: the schedule is the
    seed-dependent input of an open-loop phase.
    """
    if rate_rps <= 0 or duration_s <= 0 or pool_size < 1:
        raise ValueError("rate, duration and pool size must be positive")
    # 6 sigma above the expected count, so the cut at `duration` is what
    # ends the schedule, never the number of gaps drawn.
    expected = rate_rps * duration_s
    gaps = rng.exponential(1.0 / rate_rps, int(expected + 6 * np.sqrt(expected) + 16))
    due = np.cumsum(gaps)
    due = due[due < duration_s]
    picks = rng.integers(0, pool_size, len(due))
    return due, picks


def run_open_loop(
    submit: Callable[[int], Future],
    due: Sequence[float],
    picks: Sequence[int],
    end_probe: Callable[[], Any] = lambda: None,
    result_timeout_s: float = 60.0,
) -> dict[str, Any]:
    """Send ``submit(picks[i])`` at ``due[i]``; wait for every future.

    Returns per-request arrays: ``lateness_s`` (send instant minus due
    time, >= 0), ``latency_s`` (completion minus *due* time),
    ``service_s`` (completion minus send instant) and the resolved
    ``responses``.  A future that raises or times out yields ``None``
    as its response.  ``end_probe()`` is read right after the last send
    (the caller's view of the backlog the phase left behind).
    """
    n = len(due)
    sent_at = np.zeros(n)
    done_at = np.full(n, np.nan)
    futures: list[Future] = []
    clock = time.perf_counter
    t0 = clock()

    def stamp(i: int) -> Callable[[Future], None]:
        def on_done(_fut: Future) -> None:
            done_at[i] = clock() - t0

        return on_done

    for i in range(n):
        wait = due[i] - (clock() - t0)
        if wait > 0:
            time.sleep(wait)
        sent_at[i] = clock() - t0
        fut = submit(int(picks[i]))
        fut.add_done_callback(stamp(i))
        futures.append(fut)

    probed = end_probe()
    responses: list[Any] = []
    for fut in futures:
        try:
            responses.append(fut.result(timeout=result_timeout_s))
        except Exception:  # counted as a failed request by the caller
            responses.append(None)
    elapsed = clock() - t0
    due = np.asarray(due, dtype=np.float64)
    return {
        "lateness_s": sent_at - due,
        "latency_s": done_at - due,
        "service_s": done_at - sent_at,
        "responses": responses,
        "elapsed_s": elapsed,
        "end_probe": probed,
    }
