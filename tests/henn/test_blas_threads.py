"""BLAS stays on the threads Python started.

Every exact GEMM — the linear maps and both passes of every NTT — runs
as BLAS calls below ``repro.nt.kernels.GEMM_MAX_MACS`` multiply-adds,
too small for OpenBLAS to hand to its worker thread.  A woken worker
spins on the core the position shards need, so a warm two-shard CNN2
classify must leave every thread Python did not start exactly as idle
as it found it.  CPU time is read per thread from
``/proc/self/task/*/stat`` (``utime + stime``, clock ticks).
"""

import os
import sys
import threading

import pytest

from repro.ckksrns import CkksRnsParams
from repro.henn.backend import CkksRnsBackend
from repro.henn.compiler import model_depth
from repro.henn.inference import HeInferenceEngine

from ..ckksrns.test_hybrid_keyswitch import HW, N, smoke_models  # noqa: F401 - fixture
from .test_shards import shards


def _task_ticks() -> dict[int, int]:
    """``utime + stime`` of every thread of this process, by native id."""
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread exited meanwhile
            continue
        ticks[int(tid)] = int(fields[11]) + int(fields[12])
    return ticks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_a_sharded_classify_wakes_no_foreign_thread(smoke_models):
    layers, images = smoke_models
    params = CkksRnsParams(
        n=N, moduli_bits=(40,) + (26,) * model_depth(layers["cnn2"]), scale_bits=26,
        special_bits=(36, 36, 36), hw=HW,
    )
    with shards(CkksRnsBackend(params, seed=0), 2) as backend:
        engine = HeInferenceEngine(backend, layers["cnn2"], (1, 12, 12))
        engine.classify(images[:4])  # warm: plan compiled, shard pool started
        before = _task_ticks()
        for _ in range(3):
            engine.classify(images[:4])
        after = _task_ticks()
        ours = {t.native_id for t in threading.enumerate()}
    foreign = {tid: ticks - before.get(tid, 0) for tid, ticks in after.items() if tid not in ours}
    assert not any(foreign.values()), f"threads Python did not start ran: {foreign}"
