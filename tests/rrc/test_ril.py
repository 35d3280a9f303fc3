"""RIL message path."""

import pytest

from repro.rrc.machine import RrcMachine
from repro.rrc.ril import RilLink, RilMessageType
from repro.rrc.states import RrcState
from repro.sim.kernel import Simulator
from tests.oracles.readouts import ril_total_latency


def make_link():
    sim = Simulator()
    machine = RrcMachine(sim)
    return sim, machine, RilLink(sim, machine)


def promote(sim, machine):
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    machine.tx_end()


def test_fast_dormancy_travels_through_both_hops():
    sim, machine, ril = make_link()
    promote(sim, machine)
    replies = []
    ril.request_fast_dormancy(replies.append)
    sim.run(until=sim.now + 1.0)
    (message,) = replies
    assert message.hops == ["RIL.java", "firmware"]
    assert message.reply == "OK"
    assert message.error is None
    assert machine.state is RrcState.IDLE


def test_message_latency_is_sum_of_hops():
    sim, machine, ril = make_link()
    promote(sim, machine)
    start = sim.now
    replies = []
    ril.request_fast_dormancy(replies.append)
    sim.run(until=sim.now + 1.0)
    assert replies[0].delivered_at - start == pytest.approx(
        ril_total_latency(ril))


def test_channel_release_message():
    sim, machine, ril = make_link()
    promote(sim, machine)
    replies = []
    ril.request_channel_release(replies.append)
    sim.run(until=sim.now + 0.1)
    assert replies[0].reply == "OK"
    assert machine.state is RrcState.FACH


def test_dormancy_error_reported_not_raised():
    """A dormancy request landing mid-transfer must surface the RrcError
    as a message error, not crash the firmware hop."""
    sim, machine, ril = make_link()
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    replies = []
    ril.request_fast_dormancy(replies.append)
    sim.run(until=sim.now + 1.0)
    assert replies[0].reply is None
    assert "transfer" in replies[0].error
    machine.tx_end()


def test_fast_dormancy_from_idle_is_noop_success():
    """Dormancy requested when the radio is already IDLE acknowledges
    OK without touching the machine — no error, no promotion."""
    sim, machine, ril = make_link()
    assert machine.state is RrcState.IDLE
    replies = []
    ril.request_fast_dormancy(replies.append)
    sim.run(until=sim.now + 1.0)
    assert replies[0].ok
    assert machine.state is RrcState.IDLE
    assert ril.errors == []


def test_channel_release_below_dch_is_noop_success():
    sim, machine, ril = make_link()
    replies = []
    ril.request_channel_release(replies.append)
    sim.run(until=sim.now + 1.0)
    assert replies[0].ok
    assert machine.state is RrcState.IDLE


def test_error_routed_to_on_error_callback():
    """With an ``on_error`` callback, a failed request goes there and
    only there; the success callback never fires."""
    sim, machine, ril = make_link()
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    oks, errors = [], []
    ril.request_channel_release(oks.append, on_error=errors.append)
    sim.run(until=sim.now + 1.0)
    assert oks == []
    assert len(errors) == 1
    assert "transfer" in errors[0].error
    assert ril.errors == errors
    machine.tx_end()


def test_release_during_promotion_surfaces_error():
    sim, machine, ril = make_link()
    machine.acquire_channel(lambda: None)  # promotion in flight
    errors = []
    ril.request_channel_release(on_error=errors.append)
    sim.run(until=sim.now + RilLink.FRAMEWORK_HOP_LATENCY
            + RilLink.SOCKET_HOP_LATENCY + 0.001)
    assert len(errors) == 1
    assert "promotion" in errors[0].error
    sim.run()


def test_messages_are_logged():
    sim, machine, ril = make_link()
    ril.request_fast_dormancy()
    ril.request_channel_release()
    assert [m.message_type for m in ril.log] == [
        RilMessageType.FAST_DORMANCY, RilMessageType.RELEASE_CHANNELS]


def test_custom_latencies_validated():
    sim = Simulator()
    machine = RrcMachine(sim)
    with pytest.raises(ValueError):
        RilLink(sim, machine, framework_latency=-0.1)
