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
pushes bisect-insert into the unconsumed tail.  All structural work —
loading the next bucket, and demoting the current bucket's tail when a
push landed in an earlier bucket — happens in :meth:`EventQueue._advance`,
once per bucket: the engine drains a bucket without per-event structure
checks, because a push made while an event runs is never earlier than
the clock and so never lands before the current bucket.  Bucket ids are
monotone in time and the in-bucket sort key is the full ``(time,
priority, seq)`` tuple, so the drain order never depends on the bucket
width.  The pending count is derived from the buckets, not kept.
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
#: on figure2 a 4 us bucket holds ~170 entries when a same-bucket push
#: bisects into it, with ~70 of them still unconsumed (32 us: ~1,100 and
#: ~480), so the tuple-comparing bisect and the tail shift stay short
#: while the bucket heap stays small.  Correctness does not depend on
#: the value, only constant factors do.
DEFAULT_BUCKET_WIDTH_S = 4e-6

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

    __slots__ = ("_seq", "_times", "_prios", "_seqs",
                 "_cancelled", "_actions", "_args", "_free",
                 "_action_table", "_action_ids", "_inv_width",
                 "_buckets", "_bucket_heap", "_current", "_pos",
                 "_current_id")

    def __init__(self, bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S) -> None:
        if bucket_width_s <= 0:
            raise SchedulingError(
                f"bucket width must be positive, got {bucket_width_s}")
        # Plain int rather than itertools.count(): the counter is part
        # of the deterministic simulation state a checkpoint captures,
        # so it must be readable and settable.
        self._seq = 0
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

    def __len__(self) -> int:
        # Derived, not counted: only pending() and checkpoint snapshots
        # ask, so the drain loop keeps no per-event tally.
        return (len(self._current) - self._pos
                + sum(map(len, self._buckets.values())))

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

    def _bucket_of(self, time_s: float) -> int:
        """Calendar bucket of ``time_s``, which must be finite and >= 0."""
        if time_s >= 0:  # False for NaN
            try:
                return int(time_s * self._inv_width)
            except OverflowError:  # +inf
                pass
        raise SchedulingError(f"cannot schedule at time {time_s}: times "
                              "must be finite and non-negative")

    def _insert(self, bucket_id: int, entry: _Entry) -> None:
        """Queue ``entry`` in calendar bucket ``bucket_id``."""
        if bucket_id == self._current_id:
            # Into the unconsumed tail of the current sorted bucket.
            insort(self._current, entry, self._pos)
        else:
            bucket = self._buckets.get(bucket_id)
            if bucket is None:
                self._new_bucket(bucket_id, entry)
            else:
                bucket.append(entry)

    def _new_bucket(self, bucket_id: int, entry: _Entry) -> None:
        """Open a fresh calendar bucket (heap mutation stays here)."""
        self._buckets[bucket_id] = [entry]
        heappush(self._bucket_heap, bucket_id)

    def schedule_id(self, time_s: float, action_id: int, priority: int,
                    arg: object = _NO_ARG) -> None:
        """Handle-free hot path: schedule a pre-registered action.

        The calendar entry carries the whole event — no slab row, no
        cancellation support, no :class:`Event` handle.
        """
        bucket_id = self._bucket_of(time_s)
        seq = self._seq
        self._seq = seq + 1
        self._insert(bucket_id, (time_s, priority, seq, action_id, arg))

    def schedule_id_many(self, action_id: int, priority: int,
                         items: Iterable[Tuple[float, object]],
                         floor_s: float = 0.0) -> int:
        """Bulk :meth:`schedule_id`: one ``(time_s, arg)`` per event.

        The batch path behind vectorized arrival injection — identical
        ordering semantics to one :meth:`schedule_id` call per item.
        The whole batch is validated and its entries built before
        anything is queued, so a timestamp below ``floor_s`` (callers
        pass the current clock) or a non-finite one raises and leaves
        the queue untouched.  Each calendar bucket is then extended once
        per run of consecutive items that land in it.  Returns the
        number of events scheduled.
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
        try:
            bucket_ids = list(map(int, map(self._inv_width.__mul__,
                                           map(itemgetter(0), entries))))
        except OverflowError:
            raise SchedulingError(
                "cannot schedule at a non-finite time") from None
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
        return len(entries)

    def push(self, time_s: float, action: Action,
             priority: int = PRIORITY_DATA) -> Event:
        """Schedule ``action`` at ``time_s`` and return the Event handle.

        Handle events live in the slab (parallel time/priority/seq/
        cancelled columns plus the per-row action cell) so ``cancel()``
        can invalidate them in O(1); the calendar entry encodes the row
        as a negative action id.
        """
        bucket_id = self._bucket_of(time_s)
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
        self._insert(bucket_id, (time_s, priority, seq, -1 - index, _NO_ARG))
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

        True means ``_current[_pos]`` is the earliest queued entry.
        Demotes the unconsumed tail of the current bucket back to the
        calendar first when a push landed in an earlier bucket.  All
        heap mutation for bucket ordering happens here.
        """
        current = self._current
        bucket_heap = self._bucket_heap
        if self._pos < len(current):
            if not bucket_heap or bucket_heap[0] > self._current_id:
                return True  # current bucket is still the earliest
            tail = current[self._pos:]
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
            return False
        bucket_id = heappop(bucket_heap)
        loaded = self._buckets.pop(bucket_id)
        loaded.sort()
        self._current = loaded
        self._pos = 0
        self._current_id = bucket_id
        return True

    def take(self, until_s: Optional[float] = None,
             ) -> Optional[Tuple[float, int, int, Action, object]]:
        """Pop the next live entry as raw slab data.

        Returns ``(time_s, priority, seq, action, arg)`` — ``arg`` is
        :data:`_NO_ARG` for zero-argument actions — or ``None`` when
        the queue is empty or the head lies strictly beyond ``until_s``
        (the head then stays queued).
        """
        while self._advance():
            pos = self._pos
            time_s, priority, seq, action_id, arg = self._current[pos]
            if action_id >= 0:
                action = self._action_table[action_id]
            else:
                index = -1 - action_id
                if self._cancelled[index]:
                    self._pos = pos + 1
                    self._release(index)
                    continue
                action = self._actions[index]
            if until_s is not None and time_s > until_s:
                return None
            self._pos = pos + 1
            if action_id < 0:
                self._release(index)
            return (time_s, priority, seq, action, arg)
        return None

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
        while self._advance():
            pos = self._pos
            action_id = self._current[pos][3]
            if action_id < 0 and self._cancelled[-1 - action_id]:
                self._pos = pos + 1
                self._release(-1 - action_id)
                continue
            return self._current[pos][0]
        return None

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
            "pending": len(self),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Re-impose checkpointed queue counters after replay."""
        self.set_seq_counter(int(state["seq_counter"]))
