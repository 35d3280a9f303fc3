"""Recovery policy math and link-level retry behaviour."""

import pytest

from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.profiles import ChannelProfile
from repro.faults.recovery import RecoveryPolicy
from repro.network.link import Link, NetworkConfig
from repro.rrc.machine import RrcMachine
from repro.rrc.states import RrcState
from repro.sim.kernel import Simulator
from repro.units import kb
from tests.oracles.readouts import time_in_mode, worst_case_delay

#: Loses every attempt: good-state loss probability one.
ALWAYS_LOSE = ChannelProfile(name="always-lose", loss_good=1.0)

#: Loses exactly the attempts an all-good GE chain draws below p; with
#: loss_good=0.5 roughly half the attempts fail — enough to force
#: retries without making completion impossible.
SOMETIMES_LOSE = ChannelProfile(name="sometimes-lose", loss_good=0.5)


def make_link(profile=None, recovery=None, config=None):
    sim = Simulator()
    machine = RrcMachine(sim)
    injector = (FaultInjector(profile, seed=7)
                if profile is not None else None)
    link = Link(sim, machine, config, injector=injector, recovery=recovery)
    return sim, machine, link, injector


def test_backoff_grows_exponentially():
    policy = RecoveryPolicy(backoff_base=0.5, backoff_factor=2.0)
    assert policy.backoff(1) == pytest.approx(0.5)
    assert policy.backoff(2) == pytest.approx(1.0)
    assert policy.backoff(3) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        policy.backoff(0)


def test_worst_case_delay_bounds_timeouts_and_backoffs():
    policy = RecoveryPolicy(timeout=10.0, max_attempts=3,
                            backoff_base=1.0, backoff_factor=2.0)
    assert worst_case_delay(policy) == pytest.approx(30.0 + 1.0 + 2.0)


def test_policy_validation():
    with pytest.raises(ValueError):
        RecoveryPolicy(timeout=0.0)
    with pytest.raises(ValueError):
        RecoveryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RecoveryPolicy(backoff_factor=0.0)


def test_lost_attempts_are_retried_until_success():
    """A 50 %-loss channel forces retries, but every transfer still
    completes (max_attempts is generous) and accounts its attempts."""
    policy = RecoveryPolicy(timeout=5.0, max_attempts=10,
                            backoff_base=0.1)
    sim, machine, link, injector = make_link(SOMETIMES_LOSE, policy)
    done = []
    for index in range(6):
        link.fetch(kb(20), done.append, label=f"t{index}")
    sim.run()
    assert len(done) == 6
    assert all(t.complete and not t.failed for t in done)
    total_attempts = sum(t.attempts for t in done)
    assert total_attempts > 6  # at least one retry happened
    assert injector.stats.transfers_lost == total_attempts - 6
    assert injector.stats.transfer_retries == total_attempts - 6


def test_exhausted_retries_fail_the_transfer_without_hanging():
    policy = RecoveryPolicy(timeout=2.0, max_attempts=3, backoff_base=0.1)
    sim, machine, link, injector = make_link(ALWAYS_LOSE, policy)
    done = []
    link.fetch(kb(20), done.append, label="doomed")
    sim.run()
    (transfer,) = done
    assert transfer.failed
    assert not transfer.complete
    assert transfer.attempts == 3
    assert transfer.lost_attempts == 3
    assert injector.stats.transfers_failed == 1
    # The kernel drained completely: the radio demoted back to IDLE.
    assert machine.state is RrcState.IDLE


def test_lost_attempt_burns_the_full_timeout_on_the_radio():
    """A lost attempt holds DCH for the whole recovery timeout — the
    energy waste the recovery layer exists to bound."""
    policy = RecoveryPolicy(timeout=3.0, max_attempts=1)
    sim, machine, link, injector = make_link(ALWAYS_LOSE, policy)
    done = []
    link.fetch(kb(20), done.append, label="doomed")
    sim.run()
    machine.finalize()
    from repro.rrc.states import RadioMode
    assert time_in_mode(machine, RadioMode.DCH_TX) == pytest.approx(3.0)


def test_deep_fade_trips_the_timeout():
    """A fade that stretches the wire time past the timeout is abandoned
    as a timeout, not a loss."""
    fade = ChannelProfile(name="deep-fade", fade_floor=0.01,
                          fade_ceiling=0.011, fade_interval=1e6)
    policy = RecoveryPolicy(timeout=4.0, max_attempts=2, backoff_base=0.1)
    sim, machine, link, injector = make_link(fade, policy)
    done = []
    link.fetch(kb(70), done.append, label="slow")  # ~100x wire stretch
    sim.run()
    (transfer,) = done
    assert transfer.failed
    assert transfer.timeout_attempts == 2
    assert injector.stats.transfer_timeouts == 2


def test_loss_without_recovery_policy_never_loses():
    """An injector without a recovery policy must not lose transfers —
    there would be no retry path, so the load would hang."""
    sim, machine, link, injector = make_link(ALWAYS_LOSE, recovery=None)
    done = []
    link.fetch(kb(20), done.append, label="safe")
    sim.run()
    assert done[0].complete
    assert done[0].attempts == 1
    assert injector.stats.transfers_lost == 0


def test_retry_pays_a_fresh_rtt():
    """A retried attempt must not inherit the original request time's
    RTT overlap: the re-issue is a fresh request."""
    policy = RecoveryPolicy(timeout=5.0, max_attempts=10, backoff_base=0.5)
    config = NetworkConfig()
    sim, machine, link, injector = make_link(SOMETIMES_LOSE, policy,
                                             config)
    done = []
    for index in range(6):
        link.fetch(kb(20), done.append, label=f"t{index}")
    sim.run()
    retried = [t for t in done if t.attempts > 1]
    assert retried, "seed 7 at 50% loss must retry at least once"
    healthy_wire = config.wire_time(kb(20))
    for transfer in retried:
        # duration spans first issue to completion: at least one full
        # timeout-free attempt plus the backoff and the lost time.
        assert transfer.duration > healthy_wire
