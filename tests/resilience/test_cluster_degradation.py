"""Whole-pool loss: the cluster gateway degrades, it does not die.

Extends the resilience suite's degradation-chain story (process ->
thread -> serial in the executor) to the serving cluster: when every
worker is dead and none will respawn (the respawn budget is set to
zero), batches fall back to serial in-process evaluation on the
gateway's own engine — slower, but every future still resolves with
correct scores.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.henn.backend import MockBackend
from repro.henn.layers import HeFlatten, HeLinear, HePoly
from repro.henn.protocol import Client, ClusteredCloudService, CloudService
from repro.serving import cluster

SHAPE = (1, 4, 4)


@pytest.fixture(scope="module")
def layers():
    rng = np.random.default_rng(2)
    return [
        HePoly([0.0, 1.0, 0.1]),
        HeFlatten(),
        HeLinear(rng.normal(0, 0.3, (5, 16)), np.zeros(5)),
    ]


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(3).uniform(0, 1, (4, 1, 4, 4))


def _kill_pool(pool):
    """SIGKILL every live worker and wait for the pool to notice."""
    for worker in pool.workers:
        if worker.proc is not None and worker.proc.is_alive():
            worker.proc.kill()
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline and not pool.is_lost():
        time.sleep(0.02)
    assert pool.is_lost()


@pytest.mark.faults
def test_whole_pool_loss_degrades_to_serial_in_process(monkeypatch, layers, images):
    monkeypatch.setattr(cluster, "RESPAWN_MAX_ATTEMPTS", 0)  # no way back: the pool stays lost
    backend = MockBackend(batch=8, levels=4)
    client = Client(backend, SHAPE)
    serial = CloudService(backend, layers, SHAPE)
    with ClusteredCloudService(
        backend,
        layers,
        SHAPE,
        workers=2,
        max_wait_ms=5.0,
    ) as gateway:
        _kill_pool(gateway.pool)
        for i in range(3):
            enc = client.encrypt_request(images[i : i + 1])
            want = client.decrypt_response(serial.classify_encrypted(enc), batch=1)
            response = gateway.submit(enc).result(timeout=60)
            assert response.ok, response.error
            got = client.decrypt_response(response.scores, batch=1)
            assert np.array_equal(got, want)
        assert gateway.dispatcher.degraded is True
        pool = gateway._health()["cluster"]
        assert pool["ready"] == 0
        assert pool["degraded_serial"] is True
        assert all(w["state"] == "dead" for w in pool["workers"])

