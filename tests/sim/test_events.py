"""Event queue ordering and cancellation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.events import EventQueue
from tests.oracles.readouts import heap_size


def test_pop_returns_earliest():
    queue = EventQueue()
    queue.push(5.0, lambda: None)
    queue.push(1.0, lambda: None)
    queue.push(3.0, lambda: None)
    assert queue.pop().time == 1.0
    assert queue.pop().time == 3.0
    assert queue.pop().time == 5.0
    assert queue.pop() is None


def test_fifo_among_equal_times():
    queue = EventQueue()
    first = queue.push(2.0, lambda: "a")
    second = queue.push(2.0, lambda: "b")
    assert queue.pop() is first
    assert queue.pop() is second


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    keep = queue.push(1.0, lambda: None)
    cancel = queue.push(0.5, lambda: None)
    cancel.cancel()
    queue.note_cancelled()
    assert queue.pop() is keep


def test_len_tracks_live_events():
    queue = EventQueue()
    assert len(queue) == 0
    event = queue.push(1.0, lambda: None)
    assert len(queue) == 1
    event.cancel()
    queue.note_cancelled()
    assert len(queue) == 0


def test_peek_time_skips_cancelled_head():
    queue = EventQueue()
    head = queue.push(0.1, lambda: None)
    queue.push(0.2, lambda: None)
    head.cancel()
    queue.note_cancelled()
    assert queue.peek_time() == 0.2


def test_bool_reflects_live_content():
    queue = EventQueue()
    assert not queue
    event = queue.push(1.0, lambda: None)
    assert queue
    event.cancel()
    queue.note_cancelled()
    assert not queue


def test_compaction_bounds_heap_growth():
    """Re-armed timers (cancel + reschedule, the RRC tail pattern) must
    not grow the heap without bound."""
    queue = EventQueue()
    sentinel = queue.push(1e9, lambda: None)  # one long-lived event
    for step in range(10_000):
        event = queue.push(float(step), lambda: None)
        event.cancel()
        queue.note_cancelled()
    assert len(queue) == 1
    # Physical heap stays a small multiple of the live count, not 10k.
    assert heap_size(queue) < 64
    assert queue.pop() is sentinel


def test_compaction_preserves_order_and_len():
    queue = EventQueue()
    live = [queue.push(float(t), lambda: None) for t in range(40)]
    doomed = [queue.push(t + 0.5, lambda: None) for t in range(60)]
    for event in doomed:
        event.cancel()
        queue.note_cancelled()
    assert len(queue) == 40
    assert heap_size(queue) < 100  # compaction ran
    popped = []
    while True:
        event = queue.pop()
        if event is None:
            break
        popped.append(event)
    assert popped == live  # same objects, ascending time order


def test_explicit_compact_noop_on_clean_heap():
    queue = EventQueue()
    events = [queue.push(float(t), lambda: None) for t in (3, 1, 2)]
    queue.compact()
    assert len(queue) == 3
    assert [queue.pop() for _ in range(3)] == [events[1], events[2],
                                               events[0]]


def test_fifo_ties_survive_compaction():
    queue = EventQueue()
    first = queue.push(5.0, lambda: "a")
    doomed = [queue.push(1.0, lambda: None) for _ in range(40)]
    second = queue.push(5.0, lambda: "b")
    for event in doomed:
        event.cancel()
        queue.note_cancelled()
    assert queue.pop() is first
    assert queue.pop() is second


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6),
                          st.booleans()), min_size=1, max_size=200))
def test_cancellation_pattern_matches_reference(entries):
    """Property: any push/cancel pattern pops exactly the live events in
    (time, sequence) order, and the heap never holds more than
    ``2 * live + compaction-floor`` entries."""
    queue = EventQueue()
    live = []
    for time, keep in entries:
        event = queue.push(time, lambda: None)
        if keep:
            live.append(event)
        else:
            event.cancel()
            queue.note_cancelled()
    assert len(queue) == len(live)
    assert heap_size(queue) <= 2 * len(live) + 17
    popped = []
    while True:
        event = queue.pop()
        if event is None:
            break
        popped.append(event)
    assert popped == sorted(live,
                            key=lambda e: (e.time, e.sequence))


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                max_size=200))
def test_pop_order_is_sorted_and_stable(times):
    """Property: popping yields times in sorted order, and events with
    equal times come out in insertion order."""
    queue = EventQueue()
    events = [queue.push(t, lambda: None) for t in times]
    popped = []
    while True:
        event = queue.pop()
        if event is None:
            break
        popped.append(event)
    assert [e.time for e in popped] == sorted(times)
    # stability: same-time events keep their relative sequence numbers
    for earlier, later in zip(popped, popped[1:]):
        if earlier.time == later.time:
            assert earlier.sequence < later.sequence
    assert len(popped) == len(events)


def test_push_many_matches_push_sequence():
    """A bulk insert is indistinguishable from the same pushes one by
    one: identical pop order, FIFO ties included."""
    times = [5.0, 1.0, 5.0, 0.0, 1.0, 5.0]

    one_by_one = EventQueue()
    singles = [one_by_one.push(t, lambda: None) for t in times]

    bulk = EventQueue()
    batch = bulk.push_many([(t, (lambda: None), ()) for t in times])
    assert len(batch) == len(times)
    assert len(bulk) == len(one_by_one)

    single_order = [singles.index(one_by_one.pop())
                    for _ in range(len(times))]
    bulk_order = [batch.index(bulk.pop()) for _ in range(len(times))]
    assert bulk_order == single_order == [3, 1, 4, 0, 2, 5]


def test_push_many_interleaves_with_push():
    """Sequence numbers keep advancing across bulk and single inserts,
    so ties between the two paths stay FIFO."""
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    middle = queue.push_many([(1.0, (lambda: None), ()),
                              (1.0, (lambda: None), ())])
    last = queue.push(1.0, lambda: None)
    assert [queue.pop() for _ in range(4)] == [first, *middle, last]
