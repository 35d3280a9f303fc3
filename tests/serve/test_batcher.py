"""MicroBatcher semantics: occupancy gating, coalescing, the max_batch
cap, errors and drain.

Every case but the one stress test holds slots busy on purpose with a
compute gated on a ``threading.Event``, so which requests share a round
is decided by the test, not by how fast threads happen to run.
"""

import math
import sys
import threading
import time

import pytest

from repro.serve.batcher import BatcherClosed, MicroBatcher


def _echo_batch(items):
    return [f"answer:{item}" for item in items]


class _Gated:
    """A compute that records each round, then blocks until released."""

    def __init__(self, fail=False):
        self.rounds = []
        self.gate = threading.Event()
        self.fail = fail
        self._lock = threading.Lock()

    def __call__(self, items):
        with self._lock:
            self.rounds.append(list(items))
        assert self.gate.wait(timeout=10.0)
        if self.fail:
            raise RuntimeError("fleet exploded")
        return _echo_batch(items)

    def computed(self):
        with self._lock:
            return sorted(item for round_ in self.rounds
                          for item in round_)


def _until(predicate, timeout=10.0):
    """Poll ``predicate`` (a state the test forces, never a race)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "state never reached"
        time.sleep(0.001)


def _submit(batcher, key, answers):
    """Submit ``key`` on its own thread; ``answers`` collects the
    result or the exception under a unique index."""
    index = len(answers)
    answers.append(None)

    def run():
        try:
            answers[index] = batcher.submit(key, key)
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            answers[index] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def _join(threads):
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads)


def _queued(batcher):
    with batcher._cond:
        return len(batcher._queue)


def test_unlimited_slots_compute_every_call_alone():
    """The unbatched mode: every request computes at once as a round of
    one, however many are already computing, and even a duplicate key
    computes again rather than wait for its twin."""
    compute = _Gated()
    rounds = []
    batcher = MicroBatcher(compute, slots=math.inf,
                           on_round=lambda n, c: rounds.append((n, c)))
    answers = []
    keys = ["k0", "k1", "k2", "k0"]
    threads = [_submit(batcher, key, answers) for key in keys]
    _until(lambda: len(compute.rounds) == 4)
    assert _queued(batcher) == 0
    compute.gate.set()
    _join(threads)
    batcher.close()
    assert answers == [f"answer:{key}" for key in keys]
    assert compute.computed() == sorted(keys)
    assert rounds == [(1, 0)] * 4


def test_free_slot_computes_at_once_as_a_round_of_one():
    compute = _Gated()
    batcher = MicroBatcher(compute, slots=2)
    answers = []
    threads = [_submit(batcher, "a", answers)]
    _until(lambda: len(compute.rounds) == 1)
    # One slot is held busy; the second is free, so "b" starts now.
    threads.append(_submit(batcher, "b", answers))
    _until(lambda: len(compute.rounds) == 2)
    assert compute.rounds == [["a"], ["b"]]
    assert _queued(batcher) == 0
    compute.gate.set()
    _join(threads)
    batcher.close()
    assert answers == ["answer:a", "answer:b"]


def test_concurrent_submissions_batch_together():
    """With every slot busy, queued requests form one round."""
    compute = _Gated()
    rounds = []
    batcher = MicroBatcher(compute, slots=1,
                           on_round=lambda n, c: rounds.append((n, c)))
    answers = []
    threads = [_submit(batcher, "first", answers)]
    _until(lambda: len(compute.rounds) == 1)
    threads += [_submit(batcher, f"k{i}", answers) for i in range(4)]
    _until(lambda: _queued(batcher) == 4)
    compute.gate.set()
    _join(threads)
    batcher.close()
    assert sorted(answers) == ["answer:first"] + [
        f"answer:k{i}" for i in range(4)]
    assert compute.rounds[0] == ["first"]
    assert sorted(compute.rounds[1]) == [f"k{i}" for i in range(4)]
    assert sorted(rounds) == [(1, 0), (4, 0)]


def test_no_round_exceeds_max_batch():
    """A leader takes at most ``max_batch`` queued items; the next
    queued item's thread leads what is left."""
    compute = _Gated()
    batcher = MicroBatcher(compute, slots=1, max_batch=2)
    answers = []
    threads = [_submit(batcher, "first", answers)]
    _until(lambda: len(compute.rounds) == 1)
    threads += [_submit(batcher, f"k{i}", answers) for i in range(5)]
    _until(lambda: _queued(batcher) == 5)
    compute.gate.set()
    _join(threads)
    batcher.close()
    assert sorted(answers) == ["answer:first"] + [
        f"answer:k{i}" for i in range(5)]
    assert [len(round_) for round_ in compute.rounds] == [1, 2, 2, 1]
    assert compute.computed() == sorted(["first"] + [
        f"k{i}" for i in range(5)])


def test_rounds_stay_capped_and_complete_under_racing_submits():
    """Stress: more threads than cores race on a short switch interval.
    Every caller gets its own answer, no round exceeds ``max_batch``,
    and each submit is either computed once or coalesced onto a peer."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            rounds = []
            batcher = MicroBatcher(
                _echo_batch, slots=2, max_batch=2,
                on_round=lambda n, c: rounds.append((n, c)))
            barrier = threading.Barrier(8, timeout=10.0)
            answers = [None] * 8

            def submit(index):
                key = f"k{index % 5}"  # three keys are submitted twice
                barrier.wait()
                answers[index] = batcher.submit(key, key)

            threads = [threading.Thread(target=submit, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            _join(threads)
            batcher.close()
            assert answers == [f"answer:k{i % 5}" for i in range(8)]
            assert max(n for n, _ in rounds) <= 2
            assert sum(n + c for n, c in rounds) == 8
    finally:
        sys.setswitchinterval(interval)


def test_duplicate_keys_coalesce_to_one_computation():
    """A duplicate of a computing key triggers no second compute."""
    compute = _Gated()
    rounds = []
    batcher = MicroBatcher(compute, slots=2,
                           on_round=lambda n, c: rounds.append((n, c)))
    answers = []
    threads = [_submit(batcher, "same", answers)]
    _until(lambda: len(compute.rounds) == 1)
    threads += [_submit(batcher, "same", answers) for _ in range(5)]
    _until(lambda: batcher._entries["same"].waiters == 5)
    compute.gate.set()
    _join(threads)
    batcher.close()
    assert answers == ["answer:same"] * 6
    assert compute.rounds == [["same"]]
    assert rounds == [(1, 5)]


def test_duplicate_of_a_pending_key_rides_its_round():
    compute = _Gated()
    batcher = MicroBatcher(compute, slots=1)
    answers = []
    threads = [_submit(batcher, "busy", answers)]
    _until(lambda: len(compute.rounds) == 1)
    threads += [_submit(batcher, "dup", answers) for _ in range(3)]
    _until(lambda: _queued(batcher) == 1
           and batcher._entries["dup"].waiters == 2)
    compute.gate.set()
    _join(threads)
    batcher.close()
    assert answers == ["answer:busy"] + ["answer:dup"] * 3
    assert compute.rounds == [["busy"], ["dup"]]


def test_compute_error_reaches_every_waiter():
    compute = _Gated(fail=True)
    batcher = MicroBatcher(compute, slots=1)
    answers = []
    threads = [_submit(batcher, "first", answers)]
    _until(lambda: len(compute.rounds) == 1)
    threads += [_submit(batcher, f"k{i}", answers) for i in range(3)]
    threads.append(_submit(batcher, "k0", answers))  # coalesced waiter
    _until(lambda: _queued(batcher) == 3
           and batcher._entries["k0"].waiters == 1)
    compute.gate.set()
    _join(threads)
    batcher.close()
    assert len(compute.rounds) == 2
    assert [str(exc) for exc in answers] == ["fleet exploded"] * 5
    assert all(isinstance(exc, RuntimeError) for exc in answers)


def test_wrong_result_length_is_an_error():
    batcher = MicroBatcher(lambda items: [])
    with pytest.raises(RuntimeError):
        batcher.submit("a", "a")
    batcher.close()


def test_closed_batcher_rejects_submissions():
    batcher = MicroBatcher(_echo_batch)
    batcher.close()
    with pytest.raises(BatcherClosed):
        batcher.submit("a", "a")


def test_bad_slots_and_max_batch_are_rejected():
    for bad in (0, -1, 0.5):
        with pytest.raises(ValueError, match="slots"):
            MicroBatcher(_echo_batch, slots=bad)
    with pytest.raises(ValueError, match="max_batch"):
        MicroBatcher(_echo_batch, max_batch=0)


def test_close_drains_in_flight_round():
    compute = _Gated()
    batcher = MicroBatcher(compute, slots=1)
    answers = []
    thread = _submit(batcher, "a", answers)
    _until(lambda: len(compute.rounds) == 1)
    closer = threading.Thread(target=batcher.close)
    closer.start()
    _until(lambda: batcher.closed)
    assert closer.is_alive()  # the computing round holds it open
    compute.gate.set()
    _join([thread, closer])
    assert answers == ["answer:a"]


def test_close_answers_a_round_queued_behind_busy_slots():
    compute = _Gated()
    batcher = MicroBatcher(compute, slots=1)
    answers = []
    threads = [_submit(batcher, "a", answers)]
    _until(lambda: len(compute.rounds) == 1)
    threads += [_submit(batcher, key, answers) for key in ("b", "c")]
    _until(lambda: _queued(batcher) == 2)
    closer = threading.Thread(target=batcher.close)
    closer.start()
    _until(lambda: batcher.closed)
    with pytest.raises(BatcherClosed):
        batcher.submit("d", "d")
    compute.gate.set()
    _join(threads + [closer])
    assert sorted(answers) == ["answer:a", "answer:b", "answer:c"]
    assert sorted(compute.rounds[1]) == ["b", "c"]
