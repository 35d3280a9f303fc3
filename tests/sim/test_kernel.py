"""Simulator clock and event-loop behaviour."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import SimulationError, Simulator
from tests.oracles import kernel
from tests.oracles.readouts import heap_size


def test_clock_advances_to_event_time():
    sim = Simulator()
    fired = []
    sim.schedule(2.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]
    assert sim.now == 2.5


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 float("-inf")])
def test_non_finite_delay_rejected(bad):
    """NaN passes ``< 0`` checks (every NaN comparison is false) and
    would silently corrupt heap ordering; the kernel must refuse it."""
    sim = Simulator()
    with pytest.raises(SimulationError, match="finite"):
        sim.schedule(bad, lambda: None)
    assert sim.pending_events == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 float("-inf")])
def test_non_finite_schedule_at_rejected(bad):
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError, match="finite"):
        sim.schedule_at(bad, lambda: None)
    assert sim.pending_events == 0


def test_nan_never_corrupts_event_order():
    """Even after a rejected NaN, later events still fire in order."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    observed = []
    for delay in (3.0, 1.0, 2.0):
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == [1.0, 2.0, 3.0]


def test_schedule_at_in_the_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_run_until_leaves_future_events_queued():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    assert sim.pending_events == 1
    sim.run()
    assert fired == [1, 10]


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_before_now_is_noop():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    sim.run()
    assert sim.now == 3.0
    sim.run(until=1.0)
    assert sim.now == 3.0


def test_callbacks_can_schedule_more_events():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_cancel_prevents_callback():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_cancel_none_is_noop():
    sim = Simulator()
    sim.cancel(None)


def test_double_cancel_does_not_corrupt_count():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending_events == 0


def test_max_events_guard():
    sim = Simulator()

    def rescheduling():
        sim.schedule(0.1, rescheduling)

    sim.schedule(0.1, rescheduling)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=50)


def test_reentrant_run_rejected():
    sim = Simulator()

    def inner():
        sim.run()

    sim.schedule(1.0, inner)
    with pytest.raises(SimulationError, match="re-entered"):
        sim.run()


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert sim.events_processed == 3


def test_observability_counters():
    sim = Simulator()
    events = [sim.schedule(delay, lambda: None)
              for delay in (1.0, 2.0, 3.0, 4.0)]
    assert sim.peak_queue_depth == 4
    sim.cancel(events[1])
    sim.cancel(events[1])  # double-cancel counts once
    sim.run()
    stats = sim.stats()
    assert stats.events_processed == 3
    assert stats.cancellations == 1
    assert stats.peak_queue_depth == 4
    assert stats.sim_time == 4.0
    assert stats.wall_time > 0.0
    assert stats.sim_time_ratio > 0.0


def test_stats_sim_time_relative_to_start():
    sim = Simulator(start_time=100.0)
    sim.schedule(2.5, lambda: None)
    sim.run()
    assert sim.stats().sim_time == 2.5


@given(st.lists(st.floats(min_value=0.001, max_value=100), min_size=1,
                max_size=50))
def test_callbacks_fire_in_time_order(delays):
    """Property: the clock never goes backwards across callbacks."""
    sim = Simulator()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


def test_midrun_mass_cancellation_bounds_heap_and_keeps_order():
    """Cancelling >50% of the queued events from a callback triggers
    compaction *while the drain loop is running*; the loop must keep
    draining the (rebuilt, in-place) heap in time order and the physical
    heap must shrink to a small multiple of the live count."""
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(50.0 + step, lambda: fired.append("doomed"))
              for step in range(150)]
    for delay in range(1, 50):
        sim.schedule(float(delay), lambda: fired.append(sim.now))

    heap_sizes = []

    def cancel_most():
        fired.append(sim.now)
        for event in doomed:
            sim.cancel(event)
        heap_sizes.append(heap_size(sim._queue))

    sim.schedule(0.5, cancel_most)
    sim.run()

    assert fired == [0.5] + [float(d) for d in range(1, 50)]
    # Compaction ran inside the callback: 150 stale entries vanished from
    # the physical heap even though the run loop held a heap reference.
    assert heap_sizes[0] < 100
    assert sim.pending_events == 0


def test_run_stats_report_per_run_peak_depth():
    """Each run's record carries *that run's* peak queue depth, not the
    simulator-lifetime peak (which stays available as a property)."""
    from repro.runtime.observability import collecting

    sim = Simulator()
    for delay in range(1, 9):
        sim.schedule(float(delay), lambda: None)
    sim.run()

    with collecting() as stats:
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
    assert stats.snapshot().peak_queue_depth == 2
    assert sim.peak_queue_depth == 8  # lifetime high-water mark


def test_schedule_many_matches_sequential_schedules():
    requests = [(3.0, "a"), (1.0, "b"), (3.0, "c"), (0.0, "d"), (1.0, "e")]

    sequential = Simulator()
    seq_order = []
    for delay, tag in requests:
        sequential.schedule(delay, seq_order.append, tag)
    sequential.run()

    bulk = Simulator()
    bulk_order = []
    events = bulk.schedule_many(
        [(delay, bulk_order.append, (tag,)) for delay, tag in requests])
    assert len(events) == len(requests)
    bulk.run()

    assert bulk_order == seq_order == ["d", "b", "e", "a", "c"]
    assert bulk.now == sequential.now


def test_schedule_many_validates_before_enqueuing():
    sim = Simulator()
    with pytest.raises(SimulationError, match="finite"):
        sim.schedule_many([(1.0, lambda: None, ()),
                           (float("nan"), lambda: None, ())])
    assert sim.pending_events == 0

    with pytest.raises(ValueError):
        sim.schedule_many([(1.0, lambda: None, ()),
                           (-2.0, lambda: None, ())])
    assert sim.pending_events == 0


def test_schedule_many_events_are_cancellable():
    sim = Simulator()
    fired = []
    events = sim.schedule_many(
        [(float(d), fired.append, (d,)) for d in (1, 2, 3)])
    sim.cancel(events[1])
    sim.run()
    assert fired == [1, 3]


# ----------------------------------------------------------------------
# Differential: Simulator.run vs the peek/step oracle loop.
# ----------------------------------------------------------------------

#: Few distinct delays, so equal timestamps (FIFO ties) are common.
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])


def _replay(program, roots, untils, max_events, drain=None):
    """Run one drawn event program; returns everything observable.

    Event ``k`` is scheduled from ``program[k] = (delay, children,
    cancel)``.  When it fires it logs ``(now, k)``, cancels event
    ``cancel`` if that one exists, and schedules the next ``children``
    programs in order.  ``roots`` events are scheduled up front.
    """
    sim = Simulator()
    if drain is not None:
        sim._drain = functools.partial(drain, sim)
    log, events = [], []

    def schedule_next():
        if len(events) < len(program):
            k = len(events)
            events.append(sim.schedule(program[k][0], fire, k))

    def fire(k):
        log.append((sim.now, k))
        _, children, cancel = program[k]
        if cancel < len(events):
            sim.cancel(events[cancel])
        for _ in range(children):
            schedule_next()

    for _ in range(roots):
        schedule_next()
    outcome = []
    for until in sorted(untils):
        sim.run(until=until)
        outcome.append((sim.now, len(log)))
    try:
        sim.run(max_events=max_events)
        outcome.append("drained")
    except SimulationError:
        outcome.append("guard")
    return (log, outcome, sim.now, sim.events_processed,
            sim.cancellations, sim.pending_events)


@settings(max_examples=200, deadline=None)
@given(program=st.lists(st.tuples(_DELAYS, st.integers(0, 3),
                                  st.integers(0, 30)),
                        min_size=1, max_size=30),
       roots=st.integers(1, 4),
       untils=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.5]),
                       max_size=3),
       max_events=st.one_of(st.none(), st.integers(0, 20)))
def test_run_matches_peek_step_oracle(program, roots, untils, max_events):
    """Same callbacks in the same order at the same clock, same
    horizon handling, same runaway guard, same counters."""
    assert _replay(program, roots, untils, max_events) == \
        _replay(program, roots, untils, max_events, drain=kernel.drain)
