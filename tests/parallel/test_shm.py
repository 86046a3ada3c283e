"""Zero-copy residue dispatch: arena packing, fallback paths, fault survival."""

import numpy as np
import pytest

from repro.obs.metrics import get_registry
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ShmArena,
    ShmArrayRef,
    ThreadExecutor,
    dispatch_channels,
    shm_available,
    uses_processes,
)
from repro.parallel.shm import _ALIGN, resolve

needs_shm = pytest.mark.skipif(not shm_available(), reason="POSIX shared memory unavailable")


def _channel_sum(arrays, i):
    """Module-level worker (picklable): sum one channel of each array."""
    return float(arrays["a"][i].sum()) + float(arrays["b"][i].sum())


def _channel_slice(arrays, i):
    """Returns an ndarray view of the segment — must come back detached."""
    return arrays["a"][i]


# -- ShmArena ---------------------------------------------------------------


@needs_shm
def test_arena_roundtrip(rng):
    a = rng.integers(-(2**40), 2**40, size=(3, 4, 16)).astype(np.int64)
    b = rng.uniform(-1, 1, size=(5, 7))
    with ShmArena({"a": a, "b": b}) as arena:
        assert set(arena.refs) == {"a", "b"}
        for ref in arena.refs.values():
            assert ref.offset % _ALIGN == 0
        va = resolve(arena.refs["a"])
        vb = resolve(arena.refs["b"])
        assert np.array_equal(va, a)
        assert np.array_equal(vb, b)
        assert va.dtype == a.dtype and vb.dtype == b.dtype


@needs_shm
def test_arena_rejects_object_dtype():
    arr = np.empty(3, dtype=object)
    with pytest.raises(TypeError):
        ShmArena({"bad": arr})


@needs_shm
def test_arena_close_idempotent():
    arena = ShmArena({"a": np.arange(8)})
    arena.close()
    arena.close()  # second close is a no-op


def test_ref_nbytes():
    ref = ShmArrayRef("x", (3, 4), "<i8", 0)
    assert ref.nbytes == 3 * 4 * 8


# -- uses_processes ---------------------------------------------------------


def test_uses_processes_classification():
    assert not uses_processes(None)
    assert not uses_processes(SerialExecutor())
    with ThreadExecutor(workers=2) as tex:
        assert not uses_processes(tex)
    with ProcessExecutor(workers=1) as pex:
        assert uses_processes(pex)

    class _Chained:
        chain = ("process", "thread", "serial")

    class _NoProc:
        chain = ("thread", "serial")

    assert uses_processes(_Chained())
    assert not uses_processes(_NoProc())


def test_uses_processes_on_resilient_executor():
    from repro.resilience import ResiliencePolicy, ResilientExecutor

    fast = dict(backoff_base=0.001, backoff_max=0.01)
    with ResilientExecutor(
        primary="process", workers=2, policy=ResiliencePolicy(degrade=("serial",), **fast)
    ) as ex:
        assert uses_processes(ex)
    with ResilientExecutor(primary="serial", policy=ResiliencePolicy(**fast)) as ex:
        assert not uses_processes(ex)


# -- dispatch_channels ------------------------------------------------------


def test_dispatch_serial_matches_direct(rng):
    a = rng.uniform(-1, 1, size=(4, 32))
    b = rng.uniform(-1, 1, size=(4, 32))
    arrays = {"a": a, "b": b}
    expect = [_channel_sum(arrays, i) for i in range(4)]
    got = dispatch_channels(SerialExecutor(), _channel_sum, arrays, list(range(4)))
    assert got == expect


def test_dispatch_thread_is_inline_path(rng):
    """Thread executors must NOT pay for a segment: no dispatch counter bump."""
    reg = get_registry()
    d0 = reg.counter("parallel.shm.dispatches").value
    a = rng.uniform(-1, 1, size=(4, 32))
    arrays = {"a": a, "b": a}
    with ThreadExecutor(workers=2) as ex:
        got = dispatch_channels(ex, _channel_sum, arrays, list(range(4)))
    assert got == [_channel_sum(arrays, i) for i in range(4)]
    assert reg.counter("parallel.shm.dispatches").value == d0


@needs_shm
def test_dispatch_process_matches_serial_and_counts(rng):
    a = rng.integers(-1000, 1000, size=(3, 64)).astype(np.int64)
    b = rng.uniform(-1, 1, size=(3, 64))
    arrays = {"a": a, "b": b}
    expect = [_channel_sum(arrays, i) for i in range(3)]
    reg = get_registry()
    d0 = reg.counter("parallel.shm.dispatches").value
    i0 = reg.counter("parallel.shm.items").value
    with ProcessExecutor(workers=2) as ex:
        got = dispatch_channels(ex, _channel_sum, arrays, list(range(3)))
    assert got == expect
    assert reg.counter("parallel.shm.dispatches").value == d0 + 1
    assert reg.counter("parallel.shm.items").value == i0 + 3


@needs_shm
def test_dispatch_single_item_skips_segment(rng):
    """One item is not worth a segment: inline even on a process pool."""
    reg = get_registry()
    d0 = reg.counter("parallel.shm.dispatches").value
    arrays = {"a": rng.uniform(size=(1, 8)), "b": rng.uniform(size=(1, 8))}
    with ProcessExecutor(workers=1) as ex:
        got = dispatch_channels(ex, _channel_sum, arrays, [0])
    assert got == [_channel_sum(arrays, 0)]
    assert reg.counter("parallel.shm.dispatches").value == d0


@needs_shm
def test_dispatch_result_views_are_detached(rng):
    """A worker returning a view of the segment must not hand the parent a
    buffer that dies when the arena is unlinked."""
    a = rng.integers(0, 100, size=(2, 16)).astype(np.int64)
    with ProcessExecutor(workers=2) as ex:
        got = dispatch_channels(ex, _channel_slice, {"a": a}, [0, 1])
    # The arena is closed by now; the results must still be readable.
    assert np.array_equal(got[0], a[0])
    assert np.array_equal(got[1], a[1])


@needs_shm
def test_dispatch_object_array_falls_back(rng):
    """Unshareable arrays take the pickle path and bump the fallback counter."""
    obj = np.empty(2, dtype=object)
    obj[0] = np.arange(4)
    obj[1] = np.arange(4, 8)
    reg = get_registry()
    f0 = reg.counter("parallel.shm.fallbacks").value

    with ProcessExecutor(workers=2) as ex:
        got = dispatch_channels(ex, _obj_sum, {"a": obj}, [0, 1])
    assert got == [6.0, 22.0]
    assert reg.counter("parallel.shm.fallbacks").value == f0 + 1


def _obj_sum(arrays, i):
    return float(np.asarray(arrays["a"][i]).sum())


# -- fault survival ---------------------------------------------------------


@pytest.mark.faults
@needs_shm
def test_shm_dispatch_survives_worker_kill(rng):
    """A worker SIGKILLed mid-flight breaks the pool; the resilient chain
    recreates it and the retry must still resolve the same refs (the
    arena is only unlinked after the map returns)."""
    from repro.resilience import FaultInjector, ResiliencePolicy, ResilientExecutor

    inj = FaultInjector(seed=0).fail_worker(item=1, mode="kill", times=1)
    a = rng.integers(0, 1000, size=(3, 128)).astype(np.int64)
    expect = [float(a[i].sum()) for i in range(3)]
    policy = ResiliencePolicy(
        max_retries=2, degrade=("serial",), backoff_base=0.001, backoff_max=0.01
    )
    reg = get_registry()
    rec0 = reg.counter("resilience.pool_recreations").value
    with ResilientExecutor(primary="process", workers=2, policy=policy, injector=inj) as ex:
        got = dispatch_channels(ex, _channel_only_a, {"a": a}, [0, 1, 2])
    assert got == expect
    assert reg.counter("resilience.pool_recreations").value >= rec0 + 1
    assert inj.summary() == {"worker.kill": 1}


def _channel_only_a(arrays, i):
    return float(arrays["a"][i].sum())
