"""FaultInjector: seeded determinism, stream independence, counters."""

import pytest

from repro.faults.injector import FaultInjector, FaultPlan, FaultStats
from repro.faults.profiles import CONGESTED, IDEAL, ChannelProfile
from repro.faults.recovery import RecoveryPolicy
from repro.runtime.observability import KERNEL_STATS, collecting


def test_same_seed_same_history():
    a = FaultInjector(CONGESTED, seed=123)
    b = FaultInjector(CONGESTED, seed=123)
    history_a = [(a.bandwidth_scale(t), a.attempt_rtt_jitter(),
                  a.attempt_lost(), a.promotion_spike(), a.ril_delay())
                 for t in range(0, 200, 7)]
    history_b = [(b.bandwidth_scale(t), b.attempt_rtt_jitter(),
                  b.attempt_lost(), b.promotion_spike(), b.ril_delay())
                 for t in range(0, 200, 7)]
    assert history_a == history_b


def test_different_seeds_differ():
    a = FaultInjector(CONGESTED, seed=1)
    b = FaultInjector(CONGESTED, seed=2)
    draws_a = [a.attempt_rtt_jitter() for _ in range(20)]
    draws_b = [b.attempt_rtt_jitter() for _ in range(20)]
    assert draws_a != draws_b


def test_streams_are_independent():
    """Consuming one stream must not perturb another: the loss history
    is the same whether or not jitter was drawn in between."""
    a = FaultInjector(CONGESTED, seed=5)
    b = FaultInjector(CONGESTED, seed=5)
    for _ in range(50):
        a.attempt_rtt_jitter()  # extra draws on the jitter stream only
    losses_a = [a.attempt_lost() for _ in range(50)]
    losses_b = [b.attempt_lost() for _ in range(50)]
    assert losses_a == losses_b


def test_ideal_profile_is_identity():
    injector = FaultInjector(IDEAL, seed=99)
    with collecting() as collector:
        for t in (0.0, 5.0, 500.0):
            assert injector.bandwidth_scale(t) == 1.0
        assert injector.attempt_rtt_jitter() == 0.0
        assert injector.attempt_lost() is False
        assert injector.promotion_spike() == 0.0
        assert injector.ril_dropped() is False
        assert injector.ril_delay() == 0.0
        assert injector.dormancy_fails() is False
    assert injector.stats == FaultStats()
    assert collector.snapshot().faults_injected == 0


def test_fade_timeline_is_piecewise_constant_and_query_order_free():
    a = FaultInjector(CONGESTED, seed=11)
    b = FaultInjector(CONGESTED, seed=11)
    times = [0.0, 3.0, 9.0, 27.0, 81.0]
    forward = [a.bandwidth_scale(t) for t in times]
    # b materialises the whole timeline first, then queries backwards.
    b.bandwidth_scale(times[-1])
    backward = [b.bandwidth_scale(t) for t in reversed(times)]
    assert forward == list(reversed(backward))
    floor, ceiling = CONGESTED.fade_floor, CONGESTED.fade_ceiling
    assert all(floor <= s <= ceiling for s in forward)


def test_impairments_feed_kernel_stats():
    lossy = ChannelProfile(name="drop-all", ril_drop_prob=1.0,
                           dormancy_failure_prob=1.0)
    injector = FaultInjector(lossy, seed=3)
    with collecting() as collector:
        assert injector.ril_dropped() is True
        assert injector.dormancy_fails() is True
        injector.note_retry()
    snapshot = collector.snapshot()
    assert snapshot.faults_injected == 2
    assert snapshot.transfer_retries == 1
    assert injector.stats.ril_drops == 1
    assert injector.stats.dormancy_failures == 1


def test_fault_stats_merge_and_dict():
    a = FaultStats(transfers_lost=2, ril_drops=1)
    b = FaultStats(transfers_lost=1, promotion_spikes=3)
    merged = a.merged(b)
    assert merged.transfers_lost == 3
    assert merged.promotion_spikes == 3
    assert merged.faults_injected == 3 + 1 + 3
    assert merged.to_dict()["faults_injected"] == 7


def test_plan_builds_fresh_injectors():
    plan = FaultPlan.named("congested", seed=42,
                           recovery=RecoveryPolicy(timeout=9.0))
    assert plan.profile is CONGESTED
    assert plan.recovery.timeout == 9.0
    one, two = plan.injector(), plan.injector()
    assert one is not two
    assert [one.attempt_rtt_jitter() for _ in range(5)] == \
           [two.attempt_rtt_jitter() for _ in range(5)]


def test_plan_unknown_profile_raises():
    with pytest.raises(KeyError):
        FaultPlan.named("atlantis")
