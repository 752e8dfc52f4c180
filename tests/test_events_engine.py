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
