"""Shared fixtures: small, fast parameter sets reused across suites.

Also installs a per-test watchdog (SIGALRM) so a wedged executor or a
deadlocked pool fails the one test quickly instead of stalling the whole
run — essential for the fault-injection suite, which deliberately hangs
and kills workers.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParams
from repro.ckksrns import CkksRnsContext, CkksRnsParams

#: Per-test wall-clock budget in seconds (override via REPRO_TEST_TIMEOUT).
WATCHDOG_SECONDS = int(os.environ.get("REPRO_TEST_TIMEOUT", "300"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Abort any single test that exceeds the watchdog budget."""
    if (
        WATCHDOG_SECONDS <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return (yield)

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {WATCHDOG_SECONDS}s per-test watchdog "
            "(hung executor or deadlocked pool?)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def fuzz_examples(request):
    """``pick(tier1, fuzz)``: a ``fuzz``-marked test's hypothesis example
    count — small in the default run, large when ``-m fuzz`` selects it."""
    fuzzing = "fuzz" in (request.config.getoption("markexpr") or "")
    return lambda tier1, fuzz: fuzz if fuzzing else tier1


@pytest.fixture(scope="session")
def ckks_ctx():
    """Small multiprecision CKKS context shared by the ckks suites."""
    return CkksContext(CkksParams(n=128, scale_bits=24, q0_bits=36, levels=4, hw=16))


@pytest.fixture(scope="session")
def ckks_keys(ckks_ctx):
    return ckks_ctx.keygen(7, rotations=(1, 2, 5))


@pytest.fixture(scope="session")
def rns_ctx():
    """Small CKKS-RNS context shared by the ckksrns suites."""
    return CkksRnsContext(
        CkksRnsParams(
            n=128, moduli_bits=(36, 26, 26, 26, 26), scale_bits=26, special_bits=45, hw=16
        )
    )


@pytest.fixture(scope="session")
def rns_keys(rns_ctx):
    return rns_ctx.keygen(7, rotations=(1, 2, 5))
