"""RRC state machine: promotions, timers, transfers, dormancy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rrc.config import RrcConfig
from repro.rrc.machine import RrcError, RrcMachine
from repro.rrc.states import RadioMode, RrcState
from repro.sim.kernel import Simulator
from tests.oracles.readouts import (extra_energy, radio_energy,
                                    time_in_state)


def make_machine(config=None):
    sim = Simulator()
    return sim, RrcMachine(sim, config)


def test_starts_idle():
    _, machine = make_machine()
    assert machine.state is RrcState.IDLE
    assert not machine.transmitting


def test_idle_promotion_takes_configured_latency():
    sim, machine = make_machine()
    granted = []
    machine.acquire_channel(lambda: granted.append(sim.now))
    sim.run()
    assert granted == [machine.config.promo_idle_latency]
    assert machine.state is RrcState.DCH


def test_idle_promotion_charges_signalling_energy():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    assert extra_energy(machine) == pytest.approx(
        machine.config.promo_idle_signalling_energy)
    assert machine.promotions == {"IDLE": 1, "FACH": 0}


def test_acquire_from_dch_is_instant():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    granted = []
    machine.acquire_channel(lambda: granted.append(sim.now))
    assert granted == [sim.now]


def test_fach_promotion_is_faster_than_idle():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    machine.tx_end()
    # Let T1 expire so the machine sits in FACH.
    sim.run(until=sim.now + machine.config.t1 + 0.1)
    assert machine.state is RrcState.FACH
    start = sim.now
    granted = []
    machine.acquire_channel(lambda: granted.append(sim.now - start))
    sim.run(until=sim.now + 1.0)
    assert granted == [pytest.approx(machine.config.promo_fach_latency)]


def test_concurrent_acquires_granted_together():
    sim, machine = make_machine()
    granted = []
    machine.acquire_channel(lambda: granted.append("a"))
    machine.acquire_channel(lambda: granted.append("b"))
    sim.run()
    assert granted == ["a", "b"]
    assert machine.promotions["IDLE"] == 1


def test_t1_then_t2_demotion_path():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    machine.tx_end()
    t_end = sim.now
    sim.run()
    machine.finalize()
    modes = [s.mode for s in machine.segments]
    assert modes[-2:] == [RadioMode.DCH, RadioMode.FACH]
    assert machine.state is RrcState.IDLE
    dch_tail = [s for s in machine.segments if s.mode is RadioMode.DCH][-1]
    assert dch_tail.duration == pytest.approx(machine.config.t1)
    fach = [s for s in machine.segments if s.mode is RadioMode.FACH][-1]
    assert fach.duration == pytest.approx(machine.config.t2)
    assert fach.start == pytest.approx(t_end + machine.config.t1)


def test_new_transfer_cancels_t1():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    machine.tx_end()
    # Re-acquire inside T1: no demotion should happen.
    sim.run(until=sim.now + 2.0)
    machine.acquire_channel(lambda: None)
    machine.tx_begin()
    sim.run(until=sim.now + 10.0)
    assert machine.state is RrcState.DCH
    assert machine.mode is RadioMode.DCH_TX
    machine.tx_end()


def test_overlapping_transfers_are_refcounted():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    machine.tx_begin()
    machine.tx_end()
    assert machine.mode is RadioMode.DCH_TX  # one still in flight
    machine.tx_end()
    assert machine.mode is RadioMode.DCH


def test_tx_begin_outside_dch_rejected():
    _, machine = make_machine()
    with pytest.raises(RrcError):
        machine.tx_begin()


def test_tx_end_without_begin_rejected():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    with pytest.raises(RrcError):
        machine.tx_end()


def test_fast_dormancy_from_dch_tail():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    machine.tx_end()
    machine.fast_dormancy()
    assert machine.state is RrcState.IDLE
    assert machine.fast_dormancy_count == 1
    # Timers were cancelled: nothing pending fires later.
    sim.run()
    assert machine.state is RrcState.IDLE


def test_fast_dormancy_during_transfer_rejected():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    with pytest.raises(RrcError, match="during a transfer"):
        machine.fast_dormancy()


def test_fast_dormancy_during_promotion_rejected():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    with pytest.raises(RrcError, match="promotion"):
        machine.fast_dormancy()


def test_fast_dormancy_when_idle_is_noop():
    _, machine = make_machine()
    machine.fast_dormancy()
    assert machine.fast_dormancy_count == 0


def test_release_channels_goes_to_fach_and_arms_t2():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    machine.tx_end()
    machine.release_channels()
    assert machine.state is RrcState.FACH
    sim.run()
    assert machine.state is RrcState.IDLE
    machine.finalize()
    fach = [s for s in machine.segments if s.mode is RadioMode.FACH][-1]
    assert fach.duration == pytest.approx(machine.config.t2)


def test_release_channels_below_dch_is_noop():
    _, machine = make_machine()
    machine.release_channels()
    assert machine.state is RrcState.IDLE


def test_radio_energy_integrates_segments():
    config = RrcConfig()
    sim, machine = make_machine(config)
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    sim.run(until=sim.now + 2.0)
    machine.tx_end()
    machine.fast_dormancy()
    machine.finalize()
    expected = (config.power.promotion * config.promo_idle_latency
                + config.power.dch_tx * 2.0
                + config.promo_idle_signalling_energy)
    assert radio_energy(machine) == pytest.approx(expected)


def test_time_in_state_accounts_promotions_as_dch():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.finalize()
    assert time_in_state(machine, RrcState.DCH) == pytest.approx(
        machine.config.promo_idle_latency)


def test_segments_are_contiguous():
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    sim.run(until=sim.now + 1.0)
    machine.tx_end()
    sim.run()
    machine.finalize()
    for previous, current in zip(machine.segments, machine.segments[1:]):
        assert previous.end == pytest.approx(current.start)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=30.0), min_size=1,
                max_size=10))
def test_property_any_gap_pattern_keeps_invariants(gaps):
    """Property: under arbitrary transfer gap patterns, segments stay
    contiguous, energy stays non-negative, and the machine ends IDLE
    after a full tail."""
    sim = Simulator()
    machine = RrcMachine(sim)

    def do_transfer():
        machine.acquire_channel(lambda: _begin())

    def _begin():
        machine.tx_begin()
        sim.schedule(0.2, _end)

    def _end():
        machine.tx_end()

    at = 0.0
    for gap in gaps:
        at += gap
        sim.schedule_at(at, do_transfer)
    sim.run()
    machine.finalize()

    for previous, current in zip(machine.segments, machine.segments[1:]):
        assert previous.end == pytest.approx(current.start)
    assert radio_energy(machine) > 0
    assert machine.state is RrcState.IDLE
    assert not machine.transmitting


def test_signalling_message_counts():
    """Section 2.1: an IDLE→DCH promotion costs ~10 control message
    exchanges; FACH→DCH fewer (the signalling connection exists)."""
    sim, machine = make_machine()
    machine.acquire_channel(lambda: None)
    sim.run()
    assert machine.signalling_messages == machine.config.promo_idle_messages
    machine.tx_begin()
    machine.tx_end()
    sim.run(until=sim.now + machine.config.t1 + 0.1)  # demote to FACH
    machine.acquire_channel(lambda: None)
    sim.run(until=sim.now + 1.0)
    assert machine.signalling_messages == (
        machine.config.promo_idle_messages
        + machine.config.promo_fach_messages)
