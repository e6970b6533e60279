"""Discrete-event simulation kernel.

This module provides the event loop that the whole repository runs on.  It is
a small, deterministic replacement for the NetSquid kernel the paper used:

* simulated time is a float in nanoseconds,
* events fire in (time, insertion-order) order, so two events scheduled for
  the same instant fire in the order they were scheduled (FIFO tie-break),
* events can be cancelled through the handle returned by ``schedule``.

Data layout.  Every queued event is a plain ``(time, seq, callback, args,
handle)`` tuple, so the heap orders entries with CPython's C tuple
comparison (``seq`` is unique, so the comparison never reaches the
callback).  ``handle`` is the caller's :class:`EventHandle`, or ``None``
for :meth:`Simulator.post_at` events, which nobody can cancel.  Events due
at the current instant skip the heap: they go to a FIFO *same-instant
lane* (a ``deque``), which is where zero-delay posts such as device-arbiter
grants land.  A cancelled entry stays queued until it is popped; a live
cancelled count keeps :meth:`Simulator.pending_events` O(1) and compacts
the queue once more than half of it is dead.

Example::

    sim = Simulator(seed=42)
    sim.schedule(5 * MS, lambda: print("hello at", sim.now))
    sim.run()
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Any, Callable, Optional

#: Queue length below which cancelled-entry compaction is not worth the
#: rebuild (tiny heaps pop their dead entries almost immediately anyway).
_COMPACT_MIN_QUEUE = 64


class SerialCounter:
    """Picklable drop-in for :func:`itertools.count`.

    Several protocol layers hand out monotonically increasing serial
    numbers (correlators, request and circuit identifiers).
    ``itertools.count`` cannot be serialised (pickling it is deprecated
    since Python 3.12), so durable checkpoints use this two-line counter
    instead; ``next(counter)`` keeps every call site unchanged.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 0):
        self.value = start

    def __next__(self) -> int:
        value = self.value
        self.value = value + 1
        return value

    def __iter__(self) -> "SerialCounter":
        return self

    def __getstate__(self) -> int:
        return self.value

    def __setstate__(self, state: int) -> None:
        self.value = state


class EventHandle:
    """Handle to a scheduled event, usable to cancel it before it fires."""

    __slots__ = ("time", "seq", "cancelled", "fired", "owner")

    def __init__(self, time: float, seq: int, owner: "Simulator"):
        self.time = time
        self.seq = seq
        self.cancelled = False
        self.fired = False
        #: Simulator that queued the event — notified on cancel so the
        #: live cancelled count (and hence compaction) stays exact.
        self.owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self.owner._note_cancel()

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not cancelled, not fired)."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled else
                 "fired" if self.fired else "pending")
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


def _live(entry: tuple) -> bool:
    handle = entry[4]
    return handle is None or not handle.cancelled


class Simulator:
    """The discrete-event scheduler.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator.  Every source
        of randomness in the repository draws from ``Simulator.rng`` so a run
        is fully reproducible from its seed.
    """

    def __init__(self, seed: int = 0):
        #: Heap of ``(time, seq, callback, args, handle)`` entries due later.
        self._queue: list[tuple] = []
        #: Entries due at ``now``, in seq order (the same-instant lane).
        self._lane: deque[tuple] = deque()
        #: Next event sequence number (the FIFO tie-break).
        self._seq = 0
        self._now = 0.0
        self._event_count = 0
        #: Live count of cancelled entries still queued (heap and lane).
        self._cancelled = 0
        self.rng = random.Random(seed)
        self.seed = seed

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired since construction (for diagnostics)."""
        return self._event_count

    @property
    def heap_size(self) -> int:
        """Queued entries, cancelled ones included (for diagnostics)."""
        return len(self._queue) + len(self._lane)

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        now = self._now
        if time < now:
            raise ValueError(f"cannot schedule at {time} before now={now}")
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, self)
        if time == now:
            self._lane.append((time, seq, callback, args, handle))
        else:
            heapq.heappush(self._queue, (time, seq, callback, args, handle))
        return handle

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule a **non-cancellable** event at absolute time ``time``.

        For call sites that never cancel (link generation rounds, classical
        message delivery, arbiter grants): no handle is made or returned.  A
        caller that might need :meth:`EventHandle.cancel` must use
        :meth:`schedule_at` instead.
        """
        now = self._now
        if time < now:
            raise ValueError(f"cannot schedule at {time} before now={now}")
        seq = self._seq
        self._seq = seq + 1
        if time == now:
            self._lane.append((time, seq, callback, args, None))
        else:
            heapq.heappush(self._queue, (time, seq, callback, args, None))

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Relative-delay variant of :meth:`post_at`."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self.post_at(self._now + delay, callback, *args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this value.  Events at
            exactly ``until`` still fire.  ``None`` runs until the queue
            drains.
        max_events:
            Safety valve: abort after this many events (raises
            ``RuntimeError``) — useful to catch accidental infinite loops in
            tests.
        """
        fired = 0
        queue = self._queue
        lane = self._lane
        pop = heapq.heappop
        popleft = lane.popleft
        now = self._now
        while True:
            # The lane fires only once no heap entry is due now.  Every heap
            # entry at time T was pushed while now < T, and every lane entry
            # at T while now == T; time never goes back, so the heap entries
            # due now all carry smaller seqs than any lane entry, and this
            # order is exactly (time, seq).
            if lane and not (queue and queue[0][0] <= now):
                time, _, callback, args, handle = popleft()
            elif queue:
                head = queue[0]
                if until is not None and head[0] > until and _live(head):
                    break
                time, _, callback, args, handle = pop(queue)
            else:
                break
            if handle is not None:
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                handle.fired = True
            if time != now:
                now = self._now = time
            self._event_count += 1
            fired += 1
            if max_events is not None and fired > max_events:
                raise RuntimeError(f"exceeded max_events={max_events}")
            callback(*args)
        if until is not None and until > now:
            self._now = until

    def run_until_idle(self) -> None:
        """Run until no events remain."""
        self.run(until=None)

    def pending_events(self) -> int:
        """Number of queued, non-cancelled events — O(1)."""
        return len(self._queue) + len(self._lane) - self._cancelled

    def next_event_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when none is queued.

        Drops cancelled entries from the front of the queue on the way,
        keeping the cancelled count exact.
        """
        lane = self._lane
        while lane and not _live(lane[0]):
            lane.popleft()
            self._cancelled -= 1
        if lane:
            return self._now
        queue = self._queue
        while queue and not _live(queue[0]):
            heapq.heappop(queue)
            self._cancelled -= 1
        return queue[0][0] if queue else None

    def _note_cancel(self) -> None:
        """Account one cancellation; compact once the queue is >50% dead."""
        self._cancelled += 1
        size = len(self._queue) + len(self._lane)
        if self._cancelled * 2 > size and size >= _COMPACT_MIN_QUEUE:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap and the lane.

        In place on purpose: :meth:`run` holds references to both containers
        across callbacks, and a callback cancelling events may trigger
        compaction mid-loop.
        """
        self._queue[:] = [entry for entry in self._queue if _live(entry)]
        heapq.heapify(self._queue)
        live = [entry for entry in self._lane if _live(entry)]
        self._lane.clear()
        self._lane.extend(live)
        self._cancelled = 0
