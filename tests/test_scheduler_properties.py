"""Property test: the event kernel fires in exact ``(time, seq)`` order.

Random programs drive the real :class:`Simulator` and a brute-force
reference side by side.  The reference keeps every pending event in a
plain list and fires the live entry with the smallest ``(time, seq)``, so
it has no heap, no same-instant lane and no compaction to get wrong.

A program mixes driver operations (``schedule_at``, ``post_at``, bulk
``cancel`` that crosses the compaction threshold, ``run(until=...)`` and a
pickle round trip between runs) with reactions that fired events perform
from inside their callback: zero-delay and delayed posts, cancellable
schedules, cancels and a snapshot pickled mid-run that is later resumed
on its own.
"""

import pickle

from hypothesis import example, given, settings, strategies as st

from repro.netsim import Simulator

DELAYS = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 7.0])

ACTIONS = st.one_of(
    st.tuples(st.just("post"), DELAYS),
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.just(("snapshot",)),
)

OPERATIONS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, st.integers(1, 40)),
    st.tuples(st.just("post"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 1000), st.integers(1, 3)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 1.0, 2.5, 5.0])),
    st.just(("pickle",)),
)


class _Program:
    """Shared bookkeeping: event ids, the firing log and the reactions.

    Event ``i`` performs ``reactions[i]`` when it fires (events past the
    end of the table perform nothing, which bounds every program).
    """

    def __init__(self, reactions):
        self.reactions = reactions
        self.next_id = 0
        self.log = []
        self.snapshot = None

    def new_id(self):
        event_id = self.next_id
        self.next_id += 1
        return event_id

    def fire(self, event_id):
        self.log.append((self.now, event_id))
        if event_id >= len(self.reactions):
            return
        for action in self.reactions[event_id]:
            if action[0] == "post":
                self.post(action[1])
            elif action[0] == "schedule":
                self.schedule(action[1])
            elif action[0] == "cancel":
                if self.handle_count():
                    self.cancel(action[1] % self.handle_count())
            elif self.snapshot is None:
                self.snapshot = pickle.dumps(self)


class _Kernel(_Program):
    """The program on the real simulator."""

    def __init__(self, reactions):
        super().__init__(reactions)
        self.sim = Simulator()
        self.handles = []

    @property
    def now(self):
        return self.sim.now

    def post(self, delay):
        self.sim.post_at(self.sim.now + delay, self.fire, self.new_id())

    def schedule(self, delay):
        self.handles.append(self.sim.schedule_at(self.sim.now + delay,
                                                 self.fire, self.new_id()))

    def handle_count(self):
        return len(self.handles)

    def cancel(self, index):
        self.handles[index].cancel()

    def run(self, until):
        self.sim.run(until=until)

    def pending(self):
        return self.sim.pending_events()

    def next_time(self):
        return self.sim.next_event_time()

    def active(self):
        return [handle.active for handle in self.handles]


class _Entry:
    def __init__(self, time, seq, event_id):
        self.time = time
        self.seq = seq
        self.event_id = event_id
        self.cancelled = False
        self.fired = False


class _Reference(_Program):
    """The program on a list scanned for the smallest ``(time, seq)``."""

    def __init__(self, reactions):
        super().__init__(reactions)
        self.now = 0.0
        self.seq = 0
        self.queued = []
        self.handles = []

    def _add(self, delay):
        entry = _Entry(self.now + delay, self.seq, self.new_id())
        self.seq += 1
        self.queued.append(entry)
        return entry

    def post(self, delay):
        self._add(delay)

    def schedule(self, delay):
        self.handles.append(self._add(delay))

    def handle_count(self):
        return len(self.handles)

    def cancel(self, index):
        entry = self.handles[index]
        if not entry.fired and not entry.cancelled:
            entry.cancelled = True
            self.queued.remove(entry)

    def run(self, until):
        while self.queued:
            entry = min(self.queued, key=lambda e: (e.time, e.seq))
            if until is not None and entry.time > until:
                break
            self.queued.remove(entry)
            entry.fired = True
            self.now = entry.time
            self.fire(entry.event_id)
        if until is not None and until > self.now:
            self.now = until

    def pending(self):
        return len(self.queued)

    def next_time(self):
        return min((entry.time for entry in self.queued), default=None)

    def active(self):
        return [not entry.fired and not entry.cancelled
                for entry in self.handles]


def _apply(program, operation):
    kind = operation[0]
    if kind == "schedule":
        for _ in range(operation[2]):
            program.schedule(operation[1])
    elif kind == "post":
        program.post(operation[1])
    elif kind == "cancel":
        for index in range(operation[1] % max(1, program.handle_count()),
                           program.handle_count(), operation[2]):
            program.cancel(index)
    elif kind == "run":
        program.run(program.now + operation[1])


def _assert_same_state(kernel, reference):
    assert kernel.log == reference.log
    assert kernel.now == reference.now
    assert kernel.pending() == reference.pending()
    assert kernel.next_time() == reference.next_time()
    assert kernel.active() == reference.active()


@given(st.lists(st.lists(ACTIONS, max_size=3), max_size=40),
       st.lists(OPERATIONS, max_size=25))
@settings(max_examples=200, deadline=None)
# Two events due at t=1 sit in the heap; the first posts a zero-delay
# event, which must wait for the second heap entry.
@example(reactions=[[("post", 0.0)]],
         operations=[("schedule", 1.0, 2), ("run", 5.0)])
# Seventy-three queued events, three of them in the lane; cancelling one
# lane entry and forty heap entries compacts both, then a pickle round
# trip before the drain.
@example(reactions=[[("post", 0.0), ("schedule", 0.0), ("snapshot",)]],
         operations=[("schedule", 0.0, 2), ("schedule", 1.0, 30),
                     ("schedule", 2.0, 40), ("post", 0.0),
                     ("cancel", 1, 100), ("cancel", 32, 1), ("run", 1.0),
                     ("pickle",), ("run", 5.0)])
def test_kernel_matches_time_seq_reference(reactions, operations):
    kernel, reference = _Kernel(reactions), _Reference(reactions)
    for operation in operations:
        if operation[0] == "pickle":
            kernel = pickle.loads(pickle.dumps(kernel))
        else:
            _apply(kernel, operation)
            _apply(reference, operation)
        _assert_same_state(kernel, reference)
    kernel.run(None)
    reference.run(None)
    _assert_same_state(kernel, reference)
    assert kernel.sim.heap_size == 0
    # A world pickled from inside a callback resumes on its own exactly
    # like the reference snapshot taken at the same point.
    assert (kernel.snapshot is None) == (reference.snapshot is None)
    if kernel.snapshot is not None:
        resumed = pickle.loads(kernel.snapshot)
        resumed_reference = pickle.loads(reference.snapshot)
        resumed.run(None)
        resumed_reference.run(None)
        _assert_same_state(resumed, resumed_reference)
