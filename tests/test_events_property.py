"""Property tests: the calendar-queue scheduler against a reference heap.

The slab/calendar :class:`~repro.sim.events.EventQueue` must drain in
exactly the order a plain min-heap of ``(time_s, priority, seq)`` keys
would — under random schedules, cancellations, simultaneous events,
and pops interleaved with pushes (including pushes that land *earlier*
than events already consumed, which exercises the bucket-preemption
path).  Hypothesis drives the schedules; the reference model is a
``heapq`` with lazy cancellation.
"""

from __future__ import annotations

import heapq

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import SchedulingError  # noqa: E402
from repro.sim.events import (DEFAULT_BUCKET_WIDTH_S, EventQueue,  # noqa: E402
                              PRIORITY_CONTROL, PRIORITY_DATA)

# Times spanning many calendar buckets plus a grid that forces exact
# collisions (same bucket, same timestamp).
_GRID = [0.0, 1e-6, DEFAULT_BUCKET_WIDTH_S, DEFAULT_BUCKET_WIDTH_S * 2,
         1e-4, 9.7e-4]
_TIME = st.one_of(
    st.floats(min_value=0.0, max_value=1e-3,
              allow_nan=False, allow_infinity=False),
    st.sampled_from(_GRID))
_PRIORITY = st.sampled_from([PRIORITY_CONTROL, PRIORITY_DATA])

#: One scheduler interaction: handle push, handle-free schedule_id,
#: cancel of a random earlier handle, or an immediate pop.
_OP = st.one_of(
    st.tuples(st.just("push"), _TIME, _PRIORITY),
    st.tuples(st.just("sched"), _TIME, _PRIORITY),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(st.just("pop")),
)


def _drain(queue: EventQueue):
    """Every remaining live event as raw ``(time, priority, seq)`` keys."""
    keys = []
    while True:
        taken = queue.take()
        if taken is None:
            return keys
        keys.append(taken[:3])


class _ReferenceHeap:
    """The specification: a min-heap of full keys, lazily cancelled."""

    def __init__(self) -> None:
        self._heap = []
        self._cancelled = set()
        self.seq = 0

    def add(self, time_s: float, priority: int) -> int:
        seq = self.seq
        self.seq += 1
        heapq.heappush(self._heap, (time_s, priority, seq))
        return seq

    def cancel(self, seq: int) -> None:
        self._cancelled.add(seq)

    def __len__(self) -> int:
        """Queued keys, cancelled ones included until popped past."""
        return len(self._heap)

    def pop(self):
        while self._heap:
            key = heapq.heappop(self._heap)
            if key[2] not in self._cancelled:
                return key
        return None

    def drain(self):
        keys = []
        while True:
            key = self.pop()
            if key is None:
                return keys
            keys.append(key)


@pytest.mark.parametrize("bucket_width_s", [1e-7, 4e-6, 32e-6, 1e-3])
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_OP, max_size=120))
def test_drain_order_matches_reference_heap(bucket_width_s, ops):
    """Any op interleaving drains in exact ``(time, priority, seq)`` order,
    whatever the bucket width; the derived pending count tracks the
    reference heap's (live plus not-yet-skipped cancelled) after every
    op."""
    queue = EventQueue(bucket_width_s)
    reference = _ReferenceHeap()
    action_id = queue.register_action(lambda: None)
    handles = []
    for op in ops:
        if op[0] == "push":
            _, time_s, priority = op
            event = reference.add(time_s, priority)
            handle = queue.push(time_s, lambda: None, priority)
            assert handle.seq == event
            handles.append(handle)
        elif op[0] == "sched":
            _, time_s, priority = op
            reference.add(time_s, priority)
            queue.schedule_id(time_s, action_id, priority)
        elif op[0] == "cancel" and handles:
            handle = handles[op[1] % len(handles)]
            reference.cancel(handle.seq)
            # Double-cancel must be idempotent on both sides.
            handle.cancel()
            handle.cancel()
        elif op[0] == "pop":
            taken = queue.take()
            expected = reference.pop()
            assert (taken[:3] if taken else None) == expected
        assert len(queue) == len(reference)
    assert _drain(queue) == reference.drain()
    assert len(queue) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=64), _TIME)
def test_simultaneous_events_order_by_priority_then_seq(count, time_s):
    """Identical timestamps break ties by priority, then insertion seq."""
    queue = EventQueue()
    reference = _ReferenceHeap()
    for index in range(count):
        priority = PRIORITY_CONTROL if index % 3 == 0 else PRIORITY_DATA
        reference.add(time_s, priority)
        queue.push(time_s, lambda: None, priority)
    drained = _drain(queue)
    assert drained == reference.drain()
    # Control always precedes data at the shared timestamp.
    priorities = [key[1] for key in drained]
    assert priorities == sorted(priorities)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_TIME, _PRIORITY), min_size=1, max_size=40),
       st.lists(st.tuples(_TIME, _PRIORITY), max_size=40),
       st.integers(min_value=0, max_value=39))
def test_late_pushes_interleave_in_key_order(first, second, consume):
    """Pushes after partial drains (even at earlier times) stay ordered.

    A push whose timestamp precedes the current bucket forces the
    calendar's preemption/demotion path; the remaining drain must still
    be the reference heap's order exactly.
    """
    queue = EventQueue()
    reference = _ReferenceHeap()
    for time_s, priority in first:
        reference.add(time_s, priority)
        queue.push(time_s, lambda: None, priority)
    for _ in range(consume % (len(first) + 1)):
        assert (lambda t: t[:3] if t else None)(queue.take()) \
            == reference.pop()
    for time_s, priority in second:
        reference.add(time_s, priority)
        queue.push(time_s, lambda: None, priority)
    assert _drain(queue) == reference.drain()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 40),
       st.integers(min_value=0, max_value=2 ** 20),
       st.integers(min_value=1, max_value=2 ** 20))
def test_seq_counter_snapshot_restore_roundtrip(start, scheduled, rewind):
    """The counter restores exactly and refuses to run backwards."""
    queue = EventQueue()
    queue.set_seq_counter(start)
    assert queue.seq_counter == start
    for _ in range(scheduled % 5):
        queue.push(1e-6, lambda: None)
    state = queue.snapshot_state()
    assert state["seq_counter"] == queue.seq_counter
    assert state["pending"] == len(queue)

    fresh = EventQueue()
    fresh.restore_state(state)
    assert fresh.seq_counter == queue.seq_counter
    # New events continue the restored numbering.
    handle = fresh.push(1e-6, lambda: None)
    assert handle.seq == state["seq_counter"]

    with pytest.raises(SchedulingError):
        queue.set_seq_counter(queue.seq_counter - rewind)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(_TIME, _PRIORITY), min_size=1, max_size=30))
def test_cancelled_events_never_surface(entries):
    """Cancelling every handle leaves nothing observable to drain."""
    queue = EventQueue()
    handles = [queue.push(time_s, lambda: None, priority)
               for time_s, priority in entries]
    for handle in handles:
        handle.cancel()
        assert handle.cancelled
    assert _drain(queue) == []


def _drain_with_args(queue: EventQueue):
    """Every remaining live event as ``(time, priority, seq, arg)``."""
    entries = []
    while True:
        taken = queue.take()
        if taken is None:
            return entries
        entries.append(taken[:3] + (taken[4],))


#: Offsets added to the clock for bulk items: zero (an exact tie with
#: the clock), sub-bucket offsets (the current bucket), and offsets that
#: reach later buckets.
_OFFSET = st.one_of(
    st.sampled_from(_GRID),
    st.floats(min_value=0.0, max_value=DEFAULT_BUCKET_WIDTH_S,
              allow_nan=False, allow_infinity=False),
    _TIME)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_TIME, _PRIORITY), max_size=40),
       st.integers(min_value=0, max_value=40),
       st.lists(_OFFSET, max_size=60),
       _PRIORITY)
def test_bulk_schedule_matches_per_item(before, consume, offsets, priority):
    """``schedule_id_many`` is ``schedule_id`` per item, in item order.

    Both queues get the same prior events and the same partial drain,
    which leaves a current bucket open at the clock; the batch (unsorted
    times, exact ties, and times inside that current bucket) then goes
    in as one bulk call on one queue and item by item on the other.
    Drain order, seq numbers, arguments and counters must all agree.
    """
    bulk, single = EventQueue(), EventQueue()
    ids = [queue.register_action(lambda arg: None)
           for queue in (bulk, single)]
    for time_s, prio in before:
        bulk.schedule_id(time_s, ids[0], prio, "prior")
        single.schedule_id(time_s, ids[1], prio, "prior")
    clock = 0.0
    for _ in range(consume % (len(before) + 1)):
        taken = bulk.take()
        assert single.take()[:3] == taken[:3]
        clock = taken[0]
    items = [(clock + offset, index) for index, offset in enumerate(offsets)]
    assert bulk.schedule_id_many(ids[0], priority, iter(items),
                                 floor_s=clock) == len(items)
    for time_s, arg in items:
        single.schedule_id(time_s, ids[1], priority, arg)
    assert bulk.seq_counter == single.seq_counter
    assert len(bulk) == len(single)
    assert _drain_with_args(bulk) == _drain_with_args(single)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_TIME, _PRIORITY), max_size=30),
       st.integers(min_value=0, max_value=30),
       st.lists(_OFFSET, max_size=20),
       st.floats(min_value=1e-9, max_value=1.0))
def test_rejected_bulk_schedule_leaves_queue_untouched(before, consume,
                                                       offsets, undershoot):
    """A batch with any item below the floor schedules nothing at all."""
    queue, untouched = EventQueue(), EventQueue()
    for target in (queue, untouched):
        action_id = target.register_action(lambda arg: None)
        for time_s, prio in before:
            target.schedule_id(time_s, action_id, prio, "prior")
    floor = 0.0
    for _ in range(consume % (len(before) + 1)):
        floor = queue.take()[0]
        untouched.take()
    floor += 1e-3  # strictly above every drained time
    items = [(floor + offset, i) for i, offset in enumerate(offsets)]
    items.append((floor - undershoot, "late"))
    with pytest.raises(SchedulingError):
        queue.schedule_id_many(action_id, PRIORITY_DATA, items,
                               floor_s=floor)
    assert len(queue) == len(untouched)
    assert queue.seq_counter == untouched.seq_counter
    assert _drain_with_args(queue) == _drain_with_args(untouched)
