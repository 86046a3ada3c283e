"""Position shards: the CKKS-RNS backend splits each packed group over the cores.

``poly_eval_many``, ``rescale_many``, ``add_plain_each`` and
``relinearize_many`` run every group as contiguous position shards, the
calling thread one and a per-process pool the rest.  Nothing but time
may move:

* outputs are bit-identical for 1, 2 and 3 shards (the ``*/sharded``
  rows of ``test_parent_identity`` hold the same at engine level);
* counters and an armed fault injector see one call per packed group;
* a backend that sharded keeps working in a fork-started child, whose
  inherited pool has no threads;
* with one usable core, or groups of one position (a packed one-image
  request), no pool is created and no thread starts.
"""

import hashlib
import multiprocessing
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import repro.henn.backend as backend_mod
from repro import obs
from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksRnsBackend
from repro.henn.inference import HeInferenceEngine
from repro.henn.layers import HeConv2d, HeFlatten, HeLinear, HePoly
from repro.henn.protocol import Client, CloudService
from repro.nt.kernels import compile_poly_program
from repro.obs.metrics import get_registry
from repro.resilience.faults import FaultInjector

PARAMS = CkksRnsParams(n=128, moduli_bits=(36,) + (26,) * 5, scale_bits=26, special_bits=45, hw=16)
COUNTERS = ("relin.count", "relin.deferred", "poly.bsgs.evals", "poly.bsgs.batches", "poly.bsgs.ct_mults")


@contextmanager
def shards(backend: CkksRnsBackend, count: int):
    """Run *backend*'s packed groups as *count* shards on any machine (1: serial).

    The floor drops to one element and the affinity mask reads *count*
    cores; both come back on exit.
    """
    floor = backend.ctx.shard_min_elems
    backend.ctx.shard_min_elems = 1
    try:
        with mock.patch("os.sched_getaffinity", return_value=set(range(count))):
            yield backend
    finally:
        backend.ctx.shard_min_elems = floor


def _digest(handles) -> str:
    h = hashlib.sha256()
    for ct in handles:
        for comp in ct.components():
            h.update(np.ascontiguousarray(comp).tobytes())
        h.update(repr((ct.level, ct.scale, ct.degree, ct.deferred)).encode())
    return h.hexdigest()


def _two_groups(backend: CkksRnsBackend, rng) -> list:
    """Seven positions: five at the top level, two one level down."""
    cts = backend.encrypt_many([rng.uniform(-1, 1, backend.max_batch) for _ in range(7)])
    return cts[:5] + [backend.ctx.mod_switch_to(ct, backend.ctx.top_level - 1) for ct in cts[5:]]


def _pipeline(backend: CkksRnsBackend, handles) -> list:
    """All four batch entry points, one after the other."""
    rows = np.linspace(0.1, 0.4, 4 * len(handles)).reshape(len(handles), 4)
    out = backend.poly_eval_many(handles, rows)  # lazy cubic: unrelinearised
    out = backend.relinearize_many(out)
    out = backend.add_plain_each(out, np.linspace(-0.5, 0.5, len(out)))
    return backend.rescale_many(out)


def test_batch_entry_points_are_shard_invariant(rng):
    backend = CkksRnsBackend(PARAMS, seed=0)
    handles = _two_groups(backend, rng)
    reg = get_registry()
    runs = {}
    for count in (1, 2, 3):
        with shards(backend, count), obs.tracing() as tracer:
            before = [reg.counter(c).value for c in COUNTERS]
            digest = _digest(_pipeline(backend, handles))
            deltas = [reg.counter(c).value - b for c, b in zip(COUNTERS, before)]
        (span,) = [s for s in tracer.finished() if s.name == "henn.poly_eval_many"]
        runs[count] = digest, deltas
        # the five-position group splits into `count` shards, the pair into min(count, 2)
        assert span.tags["shards"] == count + min(count, 2)
    assert runs[2] == runs[1] and runs[3] == runs[1]
    # two groups: one BSGS program and one merged sweep each
    assert runs[1][1] == [2, 2, 7, 2, 2 * compile_poly_program(3).ct_mults]


def test_more_shards_than_cores_under_a_short_switch_interval(monkeypatch, rng):
    """Five threads on a fresh pool switching every microsecond: every
    position is written back once, every counter bumped once per group."""
    backend = CkksRnsBackend(PARAMS, seed=0)
    handles = _two_groups(backend, rng)
    with shards(backend, 1):
        want = _digest(_pipeline(backend, handles))
    monkeypatch.setattr(backend_mod, "_SHARD_POOLS", {})
    reg = get_registry()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with shards(backend, 5):
            for _ in range(3):
                before = reg.counter("relin.count").value
                assert _digest(_pipeline(backend, handles)) == want
                assert reg.counter("relin.count").value - before == 2
    finally:
        sys.setswitchinterval(interval)
        for pool in backend_mod._SHARD_POOLS.values():
            pool.shutdown(wait=True)


def test_an_armed_fault_injector_sees_one_draw_per_group(rng):
    """Scale hooks are stateful: sharded or not, the same draws in the same order."""
    runs = []
    for count in (1, 2):
        injector = FaultInjector(seed=3).perturb_scale(factor=1.0, times=1000)
        backend = CkksRnsBackend(PARAMS, seed=0, fault_injector=injector)
        handles = _two_groups(backend, np.random.default_rng(5))
        drawn = len(injector.events)
        with shards(backend, count):
            out = _pipeline(backend, handles)
        runs.append((_digest(out), injector.events[drawn:]))
    assert runs[1] == runs[0]
    # per group: the cubic program's three rescales and rescale_many's one
    assert len(runs[0][1]) == 2 * (3 + 1)


def test_the_floor_decides_the_shard_count(rng):
    backend = CkksRnsBackend(PARAMS, seed=0)
    handles = backend.encrypt_many([rng.uniform(-1, 1, backend.max_batch) for _ in range(7)])
    position = handles[0].c0.size
    backend.ctx.shard_min_elems = 3 * position
    with mock.patch("os.sched_getaffinity", return_value={0, 1, 2, 3}):
        (plan,) = backend._shard_plan(handles)
        assert [len(s) for s in plan] == [4, 3]  # 7 positions hold two floors
        (plan,) = backend._shard_plan(handles[:5])
        assert [len(s) for s in plan] == [5]


def _small_engine() -> HeInferenceEngine:
    """Conv-SLAF-dense on 6x6 inputs; one image fits the slots (packed layout)."""
    rng = np.random.default_rng(0)
    layers = [
        HeConv2d(rng.uniform(-0.5, 0.5, (2, 1, 3, 3)), rng.uniform(-0.1, 0.1, 2)),
        HePoly(np.array([0.1, 0.5, 0.25])),
        HeFlatten(),
        HeLinear(rng.uniform(-0.3, 0.3, (10, 32)), rng.uniform(-0.1, 0.1, 10)),
    ]
    return HeInferenceEngine(CkksRnsBackend(PARAMS, seed=0), layers, (1, 6, 6))


def test_a_fork_started_child_of_a_sharded_backend_classifies():
    engine = _small_engine()
    images = np.random.default_rng(1).uniform(0, 1, (4, 1, 6, 6))
    fork = multiprocessing.get_context("fork")
    with shards(engine.backend, 2):
        engine.classify(images)  # the parent's pool now has a thread
        parent_end, child_end = fork.Pipe()

        def child() -> None:
            child_end.send(engine.classify(images))

        proc = fork.Process(target=child, daemon=True)
        proc.start()
        try:
            assert parent_end.poll(60), "the forked child never answered (inherited pool?)"
            got = parent_end.recv()
        finally:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
        # the parent's next classify draws the randomness the child drew
        want = engine.classify(images)
    assert proc.exitcode == 0
    assert np.array_equal(got, want)


def _shard_threads() -> int:
    return sum(t.name.startswith("he-shard") for t in threading.enumerate())


@pytest.mark.parametrize("layout", ["one-core", "packed"])
def test_no_pool_and_no_thread_without_a_second_shard(monkeypatch, layout):
    """One usable core, floor or not; or two cores and a packed
    one-image request, whose packed groups hold one ciphertext each and
    never reach the floor."""
    monkeypatch.setattr(backend_mod, "_SHARD_POOLS", {})
    engine = _small_engine()
    threads = _shard_threads()
    if layout == "one-core":
        with shards(engine.backend, 1):
            engine.classify(np.random.default_rng(1).uniform(0, 1, (4, 1, 6, 6)))
    else:
        client = Client(engine.backend, engine.input_shape)
        service = CloudService(engine.backend, engine.layers, engine.input_shape)
        request = client.encrypt_request(np.random.default_rng(1).uniform(0, 1, (1, 1, 6, 6)))
        assert request.shape == (9,)  # the packed layout: one ciphertext per 3x3 kernel tap
        with mock.patch("os.sched_getaffinity", return_value={0, 1}):
            assert service.try_classify(request).ok
    assert backend_mod._SHARD_POOLS == {}
    assert _shard_threads() == threads
