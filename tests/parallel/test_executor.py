"""Executors: order preservation, result agreement, lifecycle."""

import numpy as np
import pytest

from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    interleave,
    make_executor,
    shard_indices,
)


def _square(x):
    return x * x


def _add(a, b):
    return a + b


@pytest.mark.parametrize("kind", ["serial", "thread"])
def test_map_order_preserved(kind):
    with make_executor(kind, workers=4) as ex:
        out = ex.map(_square, list(range(20)))
    assert out == [i * i for i in range(20)]


def test_process_executor():
    with ProcessExecutor(workers=2) as ex:
        out = ex.map(_square, [1, 2, 3, 4])
    assert out == [1, 4, 9, 16]


def test_single_item_short_circuit():
    ex = ThreadExecutor(workers=2)
    assert ex.map(_square, [7]) == [49]
    assert ex._pool is None  # no pool spun up for one item
    ex.close()


def test_starmap():
    with SerialExecutor() as ex:
        assert ex.starmap(lambda a, b: a + b, [(1, 2), (3, 4)]) == [3, 7]


def test_process_executor_starmap():
    """Regression: starmap must not wrap fn in a lambda — process pools
    pickle the callable, so the adapter has to be a module-level class."""
    with ProcessExecutor(workers=2) as ex:
        assert ex.starmap(_add, [(1, 2), (3, 4), (5, 6)]) == [3, 7, 11]


def test_executors_agree_on_numpy_work(rng):
    data = [rng.integers(0, 100, 50) for _ in range(6)]

    def work(a):
        return (a * 3 + 1) % 97

    serial = SerialExecutor().map(work, data)
    with ThreadExecutor(workers=3) as tex:
        threaded = tex.map(work, data)
    for s, t in zip(serial, threaded):
        assert np.array_equal(s, t)


def test_make_executor_unknown():
    with pytest.raises(ValueError):
        make_executor("gpu")


def test_close_idempotent():
    ex = ThreadExecutor(workers=2)
    ex.map(_square, [1, 2])
    ex.close()
    ex.close()


def test_shard_indices_balanced():
    shards = shard_indices(10, 3)
    assert [len(s) for s in shards] == [4, 3, 3]
    assert sorted(i for s in shards for i in s) == list(range(10))
    assert shard_indices(2, 5) == [[0], [1]]
    assert shard_indices(0, 3) == [[]]
    with pytest.raises(ValueError):
        shard_indices(-1, 2)
    with pytest.raises(ValueError):
        shard_indices(5, 0)


def test_interleave_inverse_of_sharding():
    shards = shard_indices(11, 4)
    results = [[i * 10 for i in s] for s in shards]
    flat = interleave(results, shards, 11)
    assert flat == [i * 10 for i in range(11)]
    with pytest.raises(ValueError):
        interleave([[1, 2]], [[0]], 2)


# -- pool lifecycle regressions (resilience satellites) ----------------------


def _raise_on_three(x):
    if x == 3:
        raise ValueError("poisoned item")
    return x * x


def _kill_self(x):
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("kind", ["thread", "process"])
def test_map_after_raising_map_still_works(kind):
    """Regression: a worker exception must not leave a dead pool cached —
    the next map has to run, not re-raise a stale error."""
    with make_executor(kind, workers=2) as ex:
        with pytest.raises(ValueError):
            ex.map(_raise_on_three, [1, 2, 3, 4])
        assert ex.map(_square, [5, 6, 7]) == [25, 36, 49]


@pytest.mark.faults
def test_map_after_broken_process_pool_recovers():
    """A SIGKILLed worker breaks the pool; the executor must discard it
    and serve the next map from a fresh one."""
    from concurrent.futures import BrokenExecutor

    with ProcessExecutor(workers=2) as ex:
        with pytest.raises(BrokenExecutor):
            ex.map(_kill_self, [1, 2, 3])
        assert ex._pool is None  # broken pool was discarded
        assert ex.map(_square, [2, 3]) == [4, 9]


def test_reset_is_idempotent_and_nonblocking():
    ex = ThreadExecutor(workers=2)
    assert ex.map(_square, [1, 2]) == [1, 4]
    ex.reset()
    ex.reset()
    assert ex._pool is None
    assert ex.map(_square, [3, 4]) == [9, 16]  # lazily recreated
    ex.close()


def test_close_after_reset_idempotent():
    ex = ProcessExecutor(workers=1)
    assert ex.map(_square, [1, 2]) == [1, 4]
    ex.reset()
    ex.close()
    ex.close()


def test_submit_single_item():
    with ThreadExecutor(workers=2) as ex:
        fut = ex.submit(_square, 9)
        assert fut.result(timeout=30) == 81


def test_pool_executors_registered_for_atexit():
    """Internally-created executors are tracked so the atexit hook can
    close them (leak-proofing for make_executor callers)."""
    from repro.parallel.executor import _LIVE_POOLS

    ex = make_executor("thread", workers=1)
    assert ex in _LIVE_POOLS
    ex.close()
