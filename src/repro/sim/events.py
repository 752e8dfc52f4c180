"""Event primitives for the discrete-event engine.

Events are ``(time, priority, seq, action)`` entries ordered by time,
then priority, then insertion order, so simultaneous events execute
deterministically.  ``action`` is a callable taking zero arguments or
one pre-bound argument; the engine knows nothing about packets or NFs,
which keeps it reusable for the migration and telemetry machinery.

Storage is a slab (struct-of-arrays: parallel lists for time, priority,
seq, cancelled-flag, action and argument, plus a free-list of reusable
rows) so the hot path never allocates a Python object per event.

Scheduling is a calendar queue: entries hash into fixed-width time
buckets keyed by ``int(time * inv_width)``.  Pending buckets sit
unsorted in a dict behind a small heap of bucket ids; only the
*current* bucket is sorted, and it is consumed through a position
cursor so a pop is an index increment, not a heap sift.  Same-bucket
pushes bisect-insert into the unconsumed tail; pushes into an earlier
bucket preempt the current one on the next pop (its tail is demoted
back to the calendar).  Bucket ids are monotone in time and the
in-bucket sort key is the exact legacy heap order — ``(time, priority,
seq)`` compared as a tuple — so the refactor is order-identical to the
old per-``Event``-object min-heap.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from itertools import groupby
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import SchedulingError

Action = Callable[..., None]

#: Sentinel for "no bound argument": distinguishes ``action()`` from
#: ``action(None)`` in the slab's argument column.
_NO_ARG = object()

#: Priority classes: control actions (migrations, monitor ticks) run
#: before data-plane completions at the same timestamp so a migration
#: decision made "now" affects packets processed "now".
PRIORITY_CONTROL = 0
PRIORITY_DATA = 1

#: Calendar bucket width.  Chosen against the packet-mode workloads:
#: service times are O(100 ns)..O(10 us), so 32 us buckets hold tens to
#: a few hundred events — wide enough that the bucket heap stays tiny,
#: narrow enough that in-bucket sorts stay short.  Correctness does not
#: depend on the value, only constant factors do.
DEFAULT_BUCKET_WIDTH_S = 32e-6

#: An entry as stored in calendar buckets: ``(time, priority, seq,
#: action_id, arg)``.  Tuple comparison on the first three fields gives
#: the deterministic total order at C speed (seq is unique, so the
#: trailing fields never participate).  ``action_id >= 0`` indexes the
#: action table directly (the handle-free hot path: nothing else is
#: stored anywhere); ``action_id < 0`` encodes a slab row as
#: ``-1 - index`` for cancellable events created via :meth:`push`.
_Entry = Tuple[float, int, int, int, object]


class Event:
    """Handle for one scheduled action.

    A lightweight view onto a slab row: carries the ordering key and
    enough identity (``seq`` match) to cancel the underlying entry even
    after slab rows are recycled.  Handles returned by ``pop()`` are
    detached (already executed-or-removed) and just carry the key plus
    a ready-to-call ``action``.
    """

    __slots__ = ("time_s", "priority", "seq", "action", "_queue", "_index",
                 "_cancelled")

    def __init__(self, time_s: float, priority: int, seq: int,
                 action: Optional[Action] = None,
                 _queue: Optional["EventQueue"] = None,
                 _index: int = -1) -> None:
        self.time_s = time_s
        self.priority = priority
        self.seq = seq
        self.action = action
        self._queue = _queue
        self._index = _index
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has marked this event."""
        return self._cancelled

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self._cancelled = True
        queue = self._queue
        if queue is not None and queue._seqs[self._index] == self.seq:
            queue._cancelled[self._index] = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event(time_s={self.time_s!r}, priority={self.priority}, "
                f"seq={self.seq}, cancelled={self._cancelled})")


class EventQueue:
    """Deterministic scheduler: slab storage + calendar-queue ordering.

    The engine's run loop reads the slab columns and the current bucket
    directly (both modules own the scheduler per the simulation-safety
    lint); every *mutation* of heap structure lives here.  Slotted for
    the same reason the engine is: scheduling touches half these
    attributes per event.
    """

    __slots__ = ("_seq", "_count", "_times", "_prios", "_seqs",
                 "_cancelled", "_actions", "_args", "_free",
                 "_action_table", "_action_ids", "_inv_width",
                 "_buckets", "_bucket_heap", "_current", "_pos",
                 "_current_id", "_epoch")

    def __init__(self, bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S) -> None:
        if bucket_width_s <= 0:
            raise SchedulingError(
                f"bucket width must be positive, got {bucket_width_s}")
        # Plain int rather than itertools.count(): the counter is part
        # of the deterministic simulation state a checkpoint captures,
        # so it must be readable and settable.
        self._seq = 0
        self._count = 0
        # Slab: parallel arrays, one row per scheduled event.
        self._times: List[float] = []
        self._prios: List[int] = []
        self._seqs: List[int] = []
        self._cancelled: List[bool] = []
        self._actions: List[Optional[Action]] = []
        self._args: List[object] = []
        self._free: List[int] = []
        # Action table: model code registers its recurring callbacks
        # once (at wiring time) and schedules by integer id, so the
        # handle-free hot path writes no slab columns at all — the
        # calendar entry carries everything.
        self._action_table: List[Action] = []
        self._action_ids: Dict[Action, int] = {}
        # Calendar: dict buckets of unsorted entries behind a heap of
        # their ids, plus the current bucket (sorted, cursor-consumed).
        self._inv_width = 1.0 / bucket_width_s
        self._buckets: Dict[int, List[_Entry]] = {}
        self._bucket_heap: List[int] = []
        self._current: List[_Entry] = []
        self._pos = 0
        self._current_id = -1
        #: Bumped whenever the current bucket is replaced; lets the
        #: engine's inlined drain loop detect that its local view of
        #: ``_current``/``_pos`` went stale mid-action.
        self._epoch = 0

    def __len__(self) -> int:
        return self._count

    @property
    def seq_counter(self) -> int:
        """The seq number the next pushed event will receive."""
        return self._seq

    def set_seq_counter(self, value: int) -> None:
        """Restore the insertion counter (checkpoint restore only).

        Rewinding below an already-issued seq would let two live events
        share an ordering key, so only forward moves are allowed.
        """
        if value < self._seq:
            raise SchedulingError(
                f"cannot rewind event seq counter from {self._seq} "
                f"to {value}")
        self._seq = value

    # -- scheduling --------------------------------------------------------

    def register_action(self, action: Action) -> int:
        """Intern ``action`` in the action table and return its id.

        Model code registers its recurring callbacks once at wiring
        time; :meth:`schedule_id` then carries only the integer, so the
        per-event hot path touches no slab storage.  Re-registering an
        equal callable returns the existing id.
        """
        ids = self._action_ids
        action_id = ids.get(action)
        if action_id is None:
            action_id = len(self._action_table)
            self._action_table.append(action)
            ids[action] = action_id
        return action_id

    def rebind_action(self, action_id: int, action: Action) -> None:
        """Repoint a registered action id at a new callable.

        Fault injection wraps data-plane methods *after* wiring;
        rebinding the id makes every already-scheduled and future entry
        carrying it dispatch to the wrapper — the id-based equivalent
        of patching the bound method.
        """
        table = self._action_table
        if not 0 <= action_id < len(table):
            raise SchedulingError(f"unknown action id {action_id}")
        previous = self._action_ids.pop(table[action_id], None)
        if previous is not None and previous != action_id:
            # The old callable also owned a different id; keep that one.
            self._action_ids[table[action_id]] = previous
        table[action_id] = action
        self._action_ids.setdefault(action, action_id)

    def schedule_id(self, time_s: float, action_id: int, priority: int,
                    arg: object = _NO_ARG) -> None:
        """Handle-free hot path: schedule a pre-registered action.

        The calendar entry carries the whole event — no slab row, no
        cancellation support, no :class:`Event` handle.
        """
        if time_s < 0:
            raise SchedulingError(f"cannot schedule at negative time {time_s}")
        seq = self._seq
        self._seq = seq + 1
        entry = (time_s, priority, seq, action_id, arg)
        bucket_id = int(time_s * self._inv_width)
        if bucket_id == self._current_id:
            # Into the unconsumed tail of the current sorted bucket.
            insort(self._current, entry, self._pos)
        else:
            bucket = self._buckets.get(bucket_id)
            if bucket is None:
                self._buckets[bucket_id] = [entry]
                heappush(self._bucket_heap, bucket_id)
            else:
                bucket.append(entry)
        self._count += 1

    def _new_bucket(self, bucket_id: int, entry: _Entry) -> None:
        """Open a fresh calendar bucket (heap mutation stays here)."""
        self._buckets[bucket_id] = [entry]
        heappush(self._bucket_heap, bucket_id)

    def schedule_id_many(self, action_id: int, priority: int,
                         items: Iterable[Tuple[float, object]],
                         floor_s: float = 0.0) -> int:
        """Bulk :meth:`schedule_id`: one ``(time_s, arg)`` per event.

        The batch path behind vectorized arrival injection — identical
        ordering semantics to one :meth:`schedule_id` call per item.
        The whole batch is validated and its entries built before
        anything is queued, so a timestamp below ``floor_s`` (callers
        pass the current clock) raises and leaves the queue untouched.
        Each calendar bucket is then extended once per run of
        consecutive items that land in it.  Returns the number of
        events scheduled.
        """
        # Validate and build in one pass, dropping each (time_s, arg)
        # pair as it is consumed: keeping the pairs alive to validate
        # first and zip afterwards doubles the live tuples, and the
        # cycle collector's extra work outweighs the C-level build.
        seq = self._seq
        entries: List[_Entry] = []
        append = entries.append
        for time_s, arg in items:
            if not time_s >= floor_s:  # also rejects NaN
                raise SchedulingError(
                    f"cannot schedule at {time_s:.9f}, floor is "
                    f"{floor_s:.9f}")
            append((time_s, priority, seq, action_id, arg))
            seq += 1
        # int(time_s * inv_width) per entry, as schedule_id computes it
        # (IEEE multiplication commutes exactly).
        bucket_ids = list(map(int, map(self._inv_width.__mul__,
                                       map(itemgetter(0), entries))))
        count = len(entries)
        buckets = self._buckets
        current_id = self._current_id
        start = 0
        for bucket_id, run in groupby(bucket_ids):
            stop = start + len(list(run))
            if bucket_id == current_id:
                # Into the unconsumed tail of the current sorted bucket.
                current = self._current
                for entry in entries[start:stop]:
                    insort(current, entry, self._pos)
            else:
                bucket = buckets.get(bucket_id)
                if bucket is None:
                    buckets[bucket_id] = entries[start:stop]
                    heappush(self._bucket_heap, bucket_id)
                else:
                    bucket.extend(entries[start:stop])
            start = stop
        self._seq = seq
        self._count += count
        return count

    def push(self, time_s: float, action: Action,
             priority: int = PRIORITY_DATA) -> Event:
        """Schedule ``action`` at ``time_s`` and return the Event handle.

        Handle events live in the slab (parallel time/priority/seq/
        cancelled columns plus the per-row action cell) so ``cancel()``
        can invalidate them in O(1); the calendar entry encodes the row
        as a negative action id.
        """
        if time_s < 0:
            raise SchedulingError(f"cannot schedule at negative time {time_s}")
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            index = free.pop()
            self._times[index] = time_s
            self._prios[index] = priority
            self._seqs[index] = seq
            self._cancelled[index] = False
            self._actions[index] = action
            self._args[index] = _NO_ARG
        else:
            index = len(self._seqs)
            self._times.append(time_s)
            self._prios.append(priority)
            self._seqs.append(seq)
            self._cancelled.append(False)
            self._actions.append(action)
            self._args.append(_NO_ARG)
        entry = (time_s, priority, seq, -1 - index, _NO_ARG)
        bucket_id = int(time_s * self._inv_width)
        if bucket_id == self._current_id:
            insort(self._current, entry, self._pos)
        else:
            bucket = self._buckets.get(bucket_id)
            if bucket is None:
                self._buckets[bucket_id] = [entry]
                heappush(self._bucket_heap, bucket_id)
            else:
                bucket.append(entry)
        self._count += 1
        event = Event.__new__(Event)
        event.time_s = time_s
        event.priority = priority
        event.seq = seq
        event.action = action
        event._queue = self
        event._index = index
        event._cancelled = False
        return event

    # -- draining ----------------------------------------------------------

    def _release(self, index: int) -> None:
        """Return a slab row to the free list, invalidating stale handles."""
        self._seqs[index] = -1
        self._actions[index] = None
        self._args[index] = None
        self._free.append(index)

    def _advance(self) -> bool:
        """Make the earliest pending bucket current; False when none.

        Demotes the unconsumed tail of the current bucket back to the
        calendar first when a push preempted it (landed in an earlier
        bucket).  All heap mutation for bucket ordering happens here.
        """
        current = self._current
        pos = self._pos
        bucket_heap = self._bucket_heap
        if pos < len(current):
            if not bucket_heap or bucket_heap[0] > self._current_id:
                return True  # current bucket is still the earliest
            tail = current[pos:]
            bucket = self._buckets.get(self._current_id)
            if bucket is None:
                self._buckets[self._current_id] = tail
                heappush(bucket_heap, self._current_id)
            else:
                bucket.extend(tail)
        if not bucket_heap:
            self._current = []
            self._pos = 0
            self._current_id = -1
            self._epoch += 1
            return False
        bucket_id = heappop(bucket_heap)
        loaded = self._buckets.pop(bucket_id)
        loaded.sort()
        self._current = loaded
        self._pos = 0
        self._current_id = bucket_id
        self._epoch += 1
        return True

    def take(self, until_s: Optional[float] = None,
             ) -> Optional[Tuple[float, int, int, Action, object]]:
        """Pop the next live entry as raw slab data.

        Returns ``(time_s, priority, seq, action, arg)`` — ``arg`` is
        :data:`_NO_ARG` for zero-argument actions — or ``None`` when
        the queue is empty or the head lies strictly beyond ``until_s``
        (the head then stays queued).
        """
        cancelled = self._cancelled
        while True:
            current = self._current
            pos = self._pos
            bucket_heap = self._bucket_heap
            if ((bucket_heap and bucket_heap[0] < self._current_id)
                    or pos >= len(current)):
                if pos >= len(current) and not bucket_heap:
                    return None
                self._advance()
                continue
            entry = current[pos]
            action_id = entry[3]
            if action_id >= 0:
                if until_s is not None and entry[0] > until_s:
                    return None
                self._pos = pos + 1
                self._count -= 1
                return (entry[0], entry[1], entry[2],
                        self._action_table[action_id], entry[4])
            index = -1 - action_id
            if cancelled[index]:
                self._pos = pos + 1
                self._count -= 1
                self._release(index)
                continue
            if until_s is not None and entry[0] > until_s:
                return None
            self._pos = pos + 1
            self._count -= 1
            action = self._actions[index]
            self._release(index)
            return (entry[0], entry[1], entry[2], action, _NO_ARG)

    def pop(self) -> Optional[Event]:
        """The next non-cancelled event, or None when empty.

        Returns a detached :class:`Event` handle (compatibility API);
        the engine's run loop drains the slab directly.
        """
        taken = self.take()
        if taken is None:
            return None
        time_s, priority, seq, action, arg = taken
        if arg is not _NO_ARG:
            bound_action, bound_arg = action, arg

            def action() -> None:
                bound_action(bound_arg)
        event = Event.__new__(Event)
        event.time_s = time_s
        event.priority = priority
        event.seq = seq
        event.action = action
        event._queue = None
        event._index = -1
        event._cancelled = False
        return event

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event without removing it."""
        cancelled = self._cancelled
        while True:
            current = self._current
            pos = self._pos
            bucket_heap = self._bucket_heap
            if ((bucket_heap and bucket_heap[0] < self._current_id)
                    or pos >= len(current)):
                if pos >= len(current) and not bucket_heap:
                    return None
                self._advance()
                continue
            entry = current[pos]
            action_id = entry[3]
            if action_id < 0 and cancelled[-1 - action_id]:
                self._pos = pos + 1
                self._count -= 1
                self._release(-1 - action_id)
                continue
            return entry[0]

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Deterministic queue state for :mod:`repro.checkpoint`.

        The slab and calendar contents are deliberately absent: actions
        are closures over live model objects, so checkpoints rebuild
        them by replaying the seeded scenario (docs/checkpointing.md).
        Only the counters that must survive verbatim are captured.
        """
        return {
            "seq_counter": self._seq,
            "pending": self._count,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Re-impose checkpointed queue counters after replay."""
        self.set_seq_counter(int(state["seq_counter"]))
