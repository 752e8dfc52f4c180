"""Event queue and discrete-event engine."""

import pytest

from repro.errors import SchedulingError
from repro.sim.engine import Engine
from repro.sim.events import (PRIORITY_CONTROL, PRIORITY_DATA, EventQueue)


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_priority_then_insertion(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("data1"), PRIORITY_DATA)
        queue.push(1.0, lambda: order.append("ctrl"), PRIORITY_CONTROL)
        queue.push(1.0, lambda: order.append("data2"), PRIORITY_DATA)
        while (event := queue.pop()) is not None:
            event.action()
        assert order == ["ctrl", "data1", "data2"]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append(1))
        event.cancel()
        assert queue.pop() is None
        assert fired == []

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0

    def test_negative_time_rejected(self):
        with pytest.raises(SchedulingError):
            EventQueue().push(-1.0, lambda: None)


class TestEngine:
    def test_clock_advances_with_events(self):
        engine = Engine()
        times = []
        engine.at(0.5, lambda: times.append(engine.now_s))
        engine.at(1.5, lambda: times.append(engine.now_s))
        engine.run()
        assert times == [0.5, 1.5]
        assert engine.now_s == 1.5

    def test_after_is_relative(self):
        engine = Engine()
        seen = []
        engine.at(1.0, lambda: engine.after(0.5, lambda: seen.append(
            engine.now_s)))
        engine.run()
        assert seen == [1.5]

    def test_run_until_leaves_later_events_queued(self):
        engine = Engine()
        fired = []
        engine.at(1.0, lambda: fired.append(1))
        engine.at(2.0, lambda: fired.append(2))
        engine.run(until_s=1.5)
        assert fired == [1]
        assert engine.now_s == 1.5
        engine.run()
        assert fired == [1, 2]

    def test_event_exactly_at_horizon_runs(self):
        engine = Engine()
        fired = []
        engine.at(1.0, lambda: fired.append(1))
        engine.run(until_s=1.0)
        assert fired == [1]

    def test_max_events_cap(self):
        engine = Engine()
        fired = []
        for i in range(5):
            engine.at(float(i), lambda i=i: fired.append(i))
        engine.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_scheduling_in_the_past_rejected(self):
        engine = Engine()
        engine.at(1.0, lambda: None)
        engine.run()
        with pytest.raises(SchedulingError):
            engine.at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Engine().after(-0.1, lambda: None)

    def test_control_events_run_before_data_at_same_time(self):
        engine = Engine()
        order = []
        engine.at(1.0, lambda: order.append("data"))
        engine.at(1.0, lambda: order.append("control"), control=True)
        engine.run()
        assert order == ["control", "data"]

    def test_events_processed_counter(self):
        engine = Engine()
        for i in range(4):
            engine.at(float(i), lambda: None)
        engine.run()
        assert engine.events_processed == 4

    def test_rejected_bulk_schedule_queues_nothing(self):
        engine = Engine()
        ran = []
        action_id = engine.register_action(ran.append)
        engine.call_at_id(1e-3, action_id, "kept")
        engine.run(until_s=5e-4)
        seq_before = engine._queue.seq_counter
        with pytest.raises(SchedulingError):
            engine.call_at_id_many(action_id, [(6e-4, "orphan"),
                                               (4e-4, "too-early")])
        assert engine.pending() == 1
        assert engine._queue.seq_counter == seq_before
        engine.call_at_id(7e-4, action_id, "next")
        engine.run()
        assert ran == ["next", "kept"]

    def test_reentrant_run_rejected(self):
        engine = Engine()
        failures = []

        def reenter():
            try:
                engine.run()
            except SchedulingError:
                failures.append(True)

        engine.at(1.0, reenter)
        engine.run()
        assert failures == [True]

    def test_push_before_current_bucket_after_horizon_stop(self):
        """A horizon stop can leave the clock before the current bucket;
        an ``at()`` made then lands in an earlier bucket, and the next
        run must still drain in ``(time, priority, seq)`` order."""
        engine = Engine()
        trace = []
        engine.trace_to(trace)
        engine.at(0.0, lambda: None)
        for _ in range(3):
            engine.at(1e-3, lambda: None)
        engine.run(until_s=5e-4)
        queue = engine._queue
        assert engine.now_s == 5e-4
        early = 6e-4
        assert int(early * queue._inv_width) < queue._current_id
        engine.at(1e-3, lambda: None, control=True)
        engine.at(early, lambda: None)
        engine.at(early, lambda: None, control=True)
        engine.run()
        assert len(trace) == 7
        assert trace == sorted(trace)
        assert [key[0] for key in trace[1:3]] == [early, early]
        assert engine.pending() == 0

    def test_max_events_stop_counts_cancelled_tail_as_pending(self):
        engine = Engine()
        handles = [engine.at(index * 1e-6, lambda: None)
                   for index in range(8)]
        handles[3].cancel()
        handles[4].cancel()
        engine.run(max_events=3)
        assert engine.events_processed == 3
        assert engine.pending() == 8 - 3
        engine.run()
        assert engine.events_processed == 6
        assert engine.pending() == 0


def _scheduling_engine():
    """An engine mid-simulation: a current bucket open, events queued."""
    engine = Engine()
    action_id = engine.register_action(lambda arg=None: None)
    engine.call_at_id(1e-6, action_id)
    engine.call_at_id(2e-6, action_id)
    engine.call_at_id(1e-3, action_id)
    engine.run(max_events=1)
    return engine, action_id


_NON_FINITE_CALLS = {
    "call_after_id": lambda e, a, t: e.call_after_id(t, a),
    "call_at_id": lambda e, a, t: e.call_at_id(t, a),
    "after": lambda e, a, t: e.after(t, lambda: None),
    "at": lambda e, a, t: e.at(t, lambda: None),
    "call_at_id_many": lambda e, a, t: e.call_at_id_many(
        a, [(1e-3, "ok"), (t, "bad")]),
    "pair_second": lambda e, a, t: e.call_after_id_pair(1e-6, a, t, a),
    "pair_first": lambda e, a, t: e.call_after_id_pair(t, a, 1e-6, a),
    "push": lambda e, a, t: e._queue.push(t, lambda: None),
    "schedule_id": lambda e, a, t: e._queue.schedule_id(t, a, 1),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("path", sorted(_NON_FINITE_CALLS))
def test_non_finite_time_rejected_without_side_effects(path, value):
    engine, action_id = _scheduling_engine()
    pending = engine.pending()
    seq = engine._queue.seq_counter
    with pytest.raises(SchedulingError):
        _NON_FINITE_CALLS[path](engine, action_id, value)
    assert engine.pending() == pending
    assert engine._queue.seq_counter == seq
    engine.run()
    assert engine.events_processed == 3
