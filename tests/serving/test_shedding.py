"""Tiered overload shedding: policy ladder + scheduler integration."""

from __future__ import annotations

import time

import pytest

from repro.serving import shedding
from repro.serving.errors import ServiceOverloadedError, ServiceShedError
from repro.serving.scheduler import BatchingScheduler
from repro.serving.shedding import (
    DEFER_DEADLINE_S,
    DEFER_FILL,
    REJECT_FILL,
    SHED_FILL,
    SHED_TIERS,
    ShedPolicy,
)


def test_tier_ladder_escalates_with_queue_fill():
    policy = ShedPolicy()  # thresholds 0.5 / 0.8 / 1.0
    assert policy.tier(0, 10) == "accept"
    assert policy.tier(4, 10) == "accept"
    assert policy.tier(5, 10) == "defer"
    assert policy.tier(8, 10) == "reject"
    assert policy.tier(10, 10) == "shed"


def test_saturation_advances_the_ladder():
    """A saturated pool sheds earlier than queue depth alone suggests —
    queue fill lags the actual overload when workers are the bottleneck."""
    policy = ShedPolicy(saturation_weight=0.5)
    assert policy.tier(4, 10, saturation=0.0) == "accept"
    assert policy.tier(4, 10, saturation=0.4) == "defer"  # 0.4 + 0.2 = 0.6
    assert policy.tier(4, 10, saturation=0.8) == "reject"  # 0.4 + 0.4 = 0.8
    assert policy.tier(8, 10, saturation=0.8) == "shed"  # 0.8 + 0.4 = 1.2


def test_saturation_weight_zero_ignores_pool():
    policy = ShedPolicy(saturation_weight=0.0)
    assert policy.tier(4, 10, saturation=1.0) == policy.tier(4, 10, saturation=0.0)


def test_policy_validates_threshold_order():
    assert 0.0 <= DEFER_FILL <= REJECT_FILL <= SHED_FILL
    assert DEFER_DEADLINE_S > 0
    with pytest.raises(ValueError):
        ShedPolicy(saturation_weight=-0.1)


def test_tier_names_are_the_gauge_vocabulary():
    assert SHED_TIERS == ("accept", "defer", "reject", "shed")


# -- scheduler integration ---------------------------------------------------


def _echo(payloads, slots):
    return list(payloads)


def _idle_scheduler(max_queue_depth=10, **kwargs):
    """A scheduler whose worker is idle: the queue only fills."""
    return BatchingScheduler(
        _echo, max_batch_slots=4, max_queue_depth=max_queue_depth, start=False, **kwargs
    )


def test_scheduler_reject_tier_raises_retryable_overload():
    sched = _idle_scheduler(shed_policy=ShedPolicy())
    futures = [sched.submit(i) for i in range(8)]  # fill 0 .. 0.7: accept, defer
    with pytest.raises(ServiceOverloadedError):
        sched.submit("rejected")  # fill 0.8: the reject tier
    assert all(not f.done() for f in futures)
    sched.close(drain=False, timeout=1.0)


def test_scheduler_hard_shed_tier_is_not_retryable():
    sched = _idle_scheduler(shed_policy=ShedPolicy(saturation_weight=0.5))
    saturation = [0.0]
    sched.saturation_fn = lambda: saturation[0]
    for i in range(5):
        sched.submit(i)  # fill 0 .. 0.4, idle pool: accept
    saturation[0] = 1.0
    with pytest.raises(ServiceShedError):
        sched.submit("shed")  # 0.5 + 0.5 * 1.0: past the hard tier
    sched.close(drain=False, timeout=1.0)


def test_saturation_feeds_admission():
    sched = _idle_scheduler(shed_policy=ShedPolicy(saturation_weight=1.0))
    sched.saturation_fn = lambda: 0.8
    # Queue empty, but the pool alone puts the load index at 0.8: reject.
    with pytest.raises(ServiceOverloadedError):
        sched.submit("x")
    sched.close(drain=False, timeout=1.0)


def test_broken_saturation_fn_fails_safe_toward_shedding():
    def sick():
        raise RuntimeError("pool gone")

    sched = _idle_scheduler(shed_policy=ShedPolicy(saturation_weight=1.0))
    sched.saturation_fn = sick
    with pytest.raises(ServiceShedError):
        sched.submit("x")  # saturation reads as 1.0 -> the hard tier, not 0.0
    sched.close(drain=False, timeout=1.0)


def test_deferred_requests_expire_with_retryable_overload(monkeypatch):
    """The defer tier's promise: evaluated soon, or told to retry —
    never parked past the shedding deadline."""
    monkeypatch.setattr(shedding, "DEFER_DEADLINE_S", 0.05)
    sched = _idle_scheduler(max_queue_depth=2, shed_policy=ShedPolicy())
    accepted = sched.submit("accepted")  # fill 0: accept
    deferred = sched.submit("deferred")  # fill 0.5: defer tier
    time.sleep(0.1)  # let the shedding deadline lapse before the worker runs
    sched._worker.start()
    with pytest.raises(ServiceOverloadedError):
        deferred.result(timeout=5.0)
    assert accepted.result(timeout=5.0) == "accepted"
    assert sched.stats()["requests_shed_expired"] == 1
    sched.close()


def test_without_policy_legacy_single_bound_behaviour():
    sched = _idle_scheduler(max_queue_depth=2)
    sched.submit("a")
    sched.submit("b")
    with pytest.raises(ServiceOverloadedError):
        sched.submit("c")
    assert sched.stats()["shed_tiers"] is False
    sched.close(drain=False, timeout=1.0)
