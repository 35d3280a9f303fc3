"""3G link: RRC gating, FIFO/priority scheduling, pipelining."""

import pytest

from repro.network.link import Link, NetworkConfig
from repro.rrc.machine import RrcMachine
from repro.rrc.states import RrcState
from repro.sim.kernel import Simulator
from repro.units import kb
from tests.oracles.readouts import bytes_transferred, time_in_mode


def make_link(config=None):
    sim = Simulator()
    machine = RrcMachine(sim)
    return sim, machine, Link(sim, machine, config)


def test_single_transfer_pays_promotion_and_wire_time():
    config = NetworkConfig()
    sim, machine, link = make_link(config)
    done = []
    link.fetch(kb(70), done.append, label="one")
    sim.run()
    (transfer,) = done
    promo = machine.config.promo_idle_latency
    assert transfer.started_at == pytest.approx(promo)
    assert transfer.duration == pytest.approx(
        config.wire_time(kb(70)))


def test_wire_time_scales_with_size():
    config = NetworkConfig()
    assert (config.wire_time(kb(100)) - config.wire_time(kb(30))
            == pytest.approx(kb(70) / config.downlink_bandwidth))


def test_queued_request_rtt_is_pipelined_away():
    """A request that waited longer than one RTT behind other transfers
    starts streaming immediately when the link frees."""
    config = NetworkConfig()
    assert config.wire_time(kb(10), queue_delay=10.0) == pytest.approx(
        config.pipeline_overhead
        + config.request_bytes / config.uplink_bandwidth
        + kb(10) / config.downlink_bandwidth)


def test_partial_queue_delay_pays_partial_rtt():
    config = NetworkConfig(rtt=0.4)
    full = config.wire_time(kb(10), queue_delay=0.0)
    partial = config.wire_time(kb(10), queue_delay=0.1)
    assert full - partial == pytest.approx(0.1)


def test_transfers_are_serialized():
    sim, machine, link = make_link()
    done = []
    link.fetch(kb(50), done.append, label="a")
    link.fetch(kb(50), done.append, label="b")
    sim.run()
    first, second = done
    assert second.started_at == pytest.approx(first.completed_at)


def test_high_priority_jumps_ahead_of_images():
    sim, machine, link = make_link()
    order = []
    link.fetch(kb(20), lambda t: order.append(t.label), label="doc1")
    link.fetch(kb(20), lambda t: order.append(t.label), label="img",
               high_priority=False)
    link.fetch(kb(20), lambda t: order.append(t.label), label="doc2")
    sim.run()
    assert order == ["doc1", "doc2", "img"]


def test_ready_response_jumps_ahead_of_fresh_request():
    """A long-queued image whose RTT has elapsed streams before a
    just-issued document request that would stall the pipe for a fresh
    round trip (the serial model of parallel connections)."""
    config = NetworkConfig()
    sim, machine, link = make_link(config)
    order = []
    link.fetch(kb(40), lambda t: order.append(t.label), label="doc1")
    link.fetch(kb(5), lambda t: order.append(t.label), label="img",
               high_priority=False)

    def late_doc():
        link.fetch(kb(5), lambda t: order.append(t.label), label="doc2")

    # Issue doc2 moments before doc1's last byte: its RTT has not
    # elapsed, while img has been queued for the whole doc1 transfer.
    promo = machine.config.promo_idle_latency
    sim.schedule(promo + config.wire_time(kb(40)) - 0.01, late_doc)
    sim.run()
    assert order == ["doc1", "img", "doc2"]
    img, doc2 = link.transfers[1], link.transfers[2]
    # img streams with its RTT fully pipelined away...
    assert img.duration == pytest.approx(
        config.wire_time(kb(5), queue_delay=10.0))
    # ...and doc2's remaining RTT is partly hidden behind it.
    assert doc2.duration < config.wire_time(kb(5))


def test_fresh_requests_keep_priority_order_when_none_ready():
    """With no response ready to stream, the strict priority-FIFO order
    still applies (nothing to hide the RTT behind)."""
    sim, machine, link = make_link()
    order = []
    link.fetch(kb(20), lambda t: order.append(t.label), label="img",
               high_priority=False)
    link.fetch(kb(20), lambda t: order.append(t.label), label="doc")
    sim.run()
    assert order == ["doc", "img"]


def test_radio_transmits_exactly_during_wire_time():
    sim, machine, link = make_link()
    link.fetch(kb(70), lambda t: None)
    sim.run()
    machine.finalize()
    from repro.rrc.states import RadioMode
    tx_time = time_in_mode(machine, RadioMode.DCH_TX)
    transfer = link.transfers[0]
    assert tx_time == pytest.approx(transfer.duration)


def test_back_to_back_transfers_never_demote():
    """Continuous queued transfers must hold the radio at DCH (T1 is
    re-armed/cancelled at each boundary)."""
    sim, machine, link = make_link()
    for index in range(5):
        link.fetch(kb(30), lambda t: None, label=f"t{index}")
    sim.run()
    machine.finalize()
    from repro.rrc.states import RadioMode
    # Only one promotion; no FACH segment until after the last transfer.
    assert machine.promotions["IDLE"] == 1
    fach_segments = [s for s in machine.segments
                     if s.mode is RadioMode.FACH]
    last_tx_end = max(t.completed_at for t in link.transfers)
    assert all(s.start >= last_tx_end for s in fach_segments)


def test_radio_reaches_idle_after_all_transfers():
    sim, machine, link = make_link()
    link.fetch(kb(10), lambda t: None)
    sim.run()
    assert machine.state is RrcState.IDLE


def test_bytes_transferred_counts_completed_payloads():
    sim, machine, link = make_link()
    link.fetch(kb(10), lambda t: None)
    link.fetch(kb(20), lambda t: None)
    sim.run()
    assert bytes_transferred(link) == pytest.approx(kb(30))


def test_busy_flag():
    sim, machine, link = make_link()
    assert not link.busy
    link.fetch(kb(10), lambda t: None)
    assert link.busy
    sim.run()
    assert not link.busy


def test_zero_byte_fetch_completes():
    sim, machine, link = make_link()
    done = []
    link.fetch(0.0, done.append, label="empty")
    sim.run()
    assert done[0].complete


def test_zero_byte_fetch_pays_only_request_overheads():
    """An empty payload still costs the RTT, the request upload and the
    per-request overhead — just no downlink time."""
    config = NetworkConfig()
    sim, machine, link = make_link(config)
    done = []
    link.fetch(0.0, done.append, label="empty")
    sim.run()
    assert done[0].duration == pytest.approx(
        config.rtt + config.pipeline_overhead
        + config.request_bytes / config.uplink_bandwidth)
    assert done[0].attempts == 1
    assert not done[0].failed


def test_negative_size_rejected():
    sim, machine, link = make_link()
    with pytest.raises(ValueError):
        link.fetch(-1.0, lambda t: None)


def test_fetch_from_completion_callback_reuses_dch():
    """A fetch issued from a completion callback (discovery chain) must
    not bounce the radio through FACH."""
    sim, machine, link = make_link()
    done = []

    def chain(transfer):
        done.append(transfer)
        if len(done) == 1:
            link.fetch(kb(10), chain, label="second")

    link.fetch(kb(10), chain, label="first")
    sim.run()
    assert len(done) == 2
    assert machine.promotions["IDLE"] == 1
    assert machine.promotions["FACH"] == 0


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(downlink_bandwidth=0)
    with pytest.raises(ValueError):
        NetworkConfig(rtt=-0.1)


def _timeline(transfers):
    return [(t.label, t.high_priority, t.started_at, t.completed_at)
            for t in transfers]


def test_fetch_many_matches_sequential_fetches():
    """A mixed-priority batch produces the very same transfer timeline
    as back-to-back ``fetch`` calls (the dispatch the first sequential
    fetch would trigger happens at the same queue state)."""
    requests = [(kb(30), "doc", True), (kb(80), "img", False),
                (kb(10), "css", True), (kb(40), "media", False)]

    sim_a, _, link_a = make_link()
    done_a = []
    for size, label, high in requests:
        link_a.fetch(size, done_a.append, label=label, high_priority=high)
    sim_a.run()

    sim_b, _, link_b = make_link()
    done_b = []
    batch = link_b.fetch_many([(size, done_b.append, label, high)
                               for size, label, high in requests])
    assert [t.label for t in batch] == [label for _, label, _ in requests]
    sim_b.run()

    assert _timeline(link_b.transfers) == _timeline(link_a.transfers)
    assert [t.label for t in done_b] == [t.label for t in done_a]


def test_fetch_many_while_channel_held_matches_sequential():
    """Batches issued from a completion callback (channel already DCH,
    so dispatch is synchronous) must match the sequential path too."""
    follow_up = [(kb(20), "late-img", False), (kb(5), "late-css", True)]

    def drive(link, sink, use_batch):
        def first_done(transfer):
            sink.append(transfer)
            if use_batch:
                link.fetch_many([(size, sink.append, label, high)
                                 for size, label, high in follow_up])
            else:
                for size, label, high in follow_up:
                    link.fetch(size, sink.append, label=label,
                               high_priority=high)
        link.fetch(kb(50), first_done, label="root")

    sim_a, _, link_a = make_link()
    done_a = []
    drive(link_a, done_a, use_batch=False)
    sim_a.run()

    sim_b, _, link_b = make_link()
    done_b = []
    drive(link_b, done_b, use_batch=True)
    sim_b.run()

    assert _timeline(link_b.transfers) == _timeline(link_a.transfers)


def test_fetch_many_empty_batch_is_noop():
    sim, _, link = make_link()
    assert link.fetch_many([]) == []
    sim.run()
    assert link.transfers == []


def test_fetch_many_rejects_negative_size():
    _, _, link = make_link()
    with pytest.raises(ValueError):
        link.fetch_many([(kb(10), lambda t: None, "ok", True),
                         (-1.0, lambda t: None, "bad", True)])
