"""Executors: order preservation, result agreement, lifecycle."""

import numpy as np
import pytest

from repro.parallel import SerialExecutor, ThreadExecutor


def _square(x):
    return x * x


@pytest.mark.parametrize("kind", ["serial", "thread"])
def test_map_order_preserved(kind):
    with (SerialExecutor() if kind == "serial" else ThreadExecutor(workers=4)) as ex:
        out = ex.map(_square, list(range(20)))
    assert out == [i * i for i in range(20)]


def test_single_item_short_circuit():
    ex = ThreadExecutor(workers=2)
    assert ex.map(_square, [7]) == [49]
    assert ex._pool is None  # no pool spun up for one item
    ex.close()


def test_executors_agree_on_numpy_work(rng):
    data = [rng.integers(0, 100, 50) for _ in range(6)]

    def work(a):
        return (a * 3 + 1) % 97

    serial = SerialExecutor().map(work, data)
    with ThreadExecutor(workers=3) as tex:
        threaded = tex.map(work, data)
    for s, t in zip(serial, threaded):
        assert np.array_equal(s, t)


def test_close_idempotent():
    ex = ThreadExecutor(workers=2)
    ex.map(_square, [1, 2])
    ex.close()
    ex.close()


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    """A ``taskset``-pinned process gets one thread per allowed core,
    not one per core of the machine."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert ThreadExecutor().workers == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert ThreadExecutor().workers == 32  # capped


# -- pool lifecycle regressions ----------------------------------------------


def _raise_on_three(x):
    if x == 3:
        raise ValueError("poisoned item")
    return x * x


@pytest.mark.parametrize("kind", ["thread"])
def test_map_after_raising_map_still_works(kind):
    """Regression: a worker exception must not leave a dead pool cached —
    the next map has to run, not re-raise a stale error."""
    with ThreadExecutor(workers=2) as ex:
        with pytest.raises(ValueError):
            ex.map(_raise_on_three, [1, 2, 3, 4])
        assert ex.map(_square, [5, 6, 7]) == [25, 36, 49]


def test_pool_executors_registered_for_atexit():
    """Thread executors are tracked so the atexit hook can close the
    ones their owners never close."""
    from repro.parallel.executor import _LIVE_POOLS

    ex = ThreadExecutor(workers=1)
    assert ex in _LIVE_POOLS
    ex.close()
