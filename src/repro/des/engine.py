"""The event-scheduling simulation kernel.

The kernel is a classic future-event-list design: callbacks are scheduled at
absolute simulation times and executed in non-decreasing time order.  Two
properties matter for reproducibility and are guaranteed here:

* **Stable ordering.**  Events at the same timestamp run in the order they
  were scheduled (FIFO), with an optional integer ``priority`` that runs
  lower values first.  Network protocols are full of simultaneous events
  (e.g. a TDMA slot boundary and a packet arrival), and unstable ordering
  would make runs irreproducible.
* **Cheap cancellation.**  Cancelled events stay in the heap but are marked
  dead and skipped on pop, so a timer can be cancelled in O(1).  No
  simulator code cancels: the MACs clear their pending-event handle when
  the event fires and schedule a new one only when the handle is empty,
  so a handle that is set is pending.

Performance notes (profile-guided, see DESIGN.md §8): the kernel keeps a
live-event counter so :attr:`Simulator.pending_count` is O(1) instead of a
heap walk; :attr:`Simulator.now` is a plain attribute the run loop writes;
the run loop binds the heap and ``heappop`` to locals and counts executed
events in a local, so :attr:`Simulator.events_executed` and
:attr:`Simulator.pending_count` are brought up to date once per
:meth:`Simulator.run` call: both are exact whenever no ``run()`` is in
progress (a callback reading them mid-run sees the values from before the
call).  When cancelled events come to dominate the heap the heap is
lazily compacted — a filter + ``heapify`` that preserves the (time,
priority, seq) total order exactly, so execution order is bit-identical
with or without compaction.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.runtime import get_active

_heappush = heapq.heappush
_new_object = object.__new__

#: Priority lane for environment interventions (fault injection).  An
#: intervention scheduled at time t must take effect before any protocol
#: event at the same timestamp — a node dying at exactly a slot boundary
#: must not transmit in that slot — and the engine's stable (priority,
#: seq) ordering makes that deterministic rather than insertion-order
#: dependent.  Protocol code uses the default priority 0; anything more
#: urgent than a fault would break the "faults preempt protocol" contract.
FAULT_PRIORITY = -100


class Event:
    """A scheduled callback.

    Users get instances back from :meth:`Simulator.schedule` and may call
    :meth:`cancel` while the event is pending.  Executed or cancelled events
    are inert.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "args", "cancelled", "done", "sim",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.done = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        if not self.cancelled and not self.done:
            self.cancelled = True
            if self.sim is not None:
                self.sim._note_cancel()

    @property
    def pending(self) -> bool:
        return not self.cancelled and not self.done

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else ("done" if self.done else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.6f}, {name}, {state})"


class Simulator:
    """Event-scheduling simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second"))
        sim.run(until=10.0)

    The simulator is deliberately free of domain knowledge; the WBAN stack
    in :mod:`repro.net` builds on it through callbacks and processes.
    """

    #: Compaction policy: rebuild the heap when cancelled entries both
    #: exceed this count and outnumber the live ones.  The threshold keeps
    #: tiny heaps (where a rebuild costs more than it saves) untouched.
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        #: Current simulation time in seconds.  A plain attribute, read
        #: by every protocol layer: only the kernel writes it.
        self.now = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        #: Sequence number of the next scheduled event (the FIFO
        #: tie-break); a plain int, so a paused simulator pickles.
        self._seq = 0
        self._running = False
        self._events_executed = 0
        # Live/dead bookkeeping: _live counts pending events in the heap
        # (O(1) pending_count); _dead counts cancelled entries not yet
        # popped, driving the lazy compaction.
        self._live = 0
        self._dead = 0

    # -- counters ----------------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (for instrumentation);
        exact whenever no :meth:`run` is in progress."""
        return self._events_executed

    @property
    def pending_count(self) -> int:
        """Number of live events still in the queue (O(1): maintained on
        schedule, cancel and run instead of walking the heap); exact
        whenever no :meth:`run` is in progress."""
        return self._live

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` for a previously pending event.
        Inside a :meth:`run` the live count still includes the events
        that run has executed, so the compaction test is conservative
        there; it only decides when the heap is rebuilt, never the order
        in which events run."""
        self._live -= 1
        self._dead += 1
        if self._dead >= self.COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.  Entries are totally
        ordered by their unique (time, priority, seq) key, so rebuilding
        the heap cannot change pop order — only the constant factor."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    # -- scheduling ---------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        # Inlined schedule_at: this is the hottest scheduling entry point
        # (timers, MAC backoffs, app traffic all come through here) and a
        # non-negative delay from a finite `now` already implies the
        # time-ordering checks.  The event is filled in here rather than
        # through Event.__init__, which would cost a Python frame per
        # event.
        time = self.now + delay
        if not math.isfinite(time):
            raise ValueError("event time must be finite")
        seq = self._seq
        self._seq = seq + 1
        event = _new_object(Event)
        event.time = time
        event.priority = priority
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.done = False
        event.sim = self
        _heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        if not math.isfinite(time):
            raise ValueError("event time must be finite")
        seq = self._seq
        self._seq = seq + 1
        event = _new_object(Event)  # as in schedule
        event.time = time
        event.priority = priority
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.done = False
        event.sim = self
        _heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    # -- execution ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next live event.  Returns False when none remain."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _priority, _seq, event = pop(heap)
            if event.cancelled:
                self._dead -= 1
                continue
            self.now = time
            event.done = True
            self._live -= 1
            self._events_executed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or the event
        budget is exhausted.

        Events at exactly ``until`` run.  When the run reaches ``until``
        (or drains the queue first), the clock is advanced to exactly
        ``until`` on return, even if the last event fired earlier,
        mirroring mainstream DES kernels so that time-averaged statistics
        cover the full horizon.  A run stopped by ``max_events`` leaves
        the clock at its last executed event, so the events still
        pending can be scheduled around and run later in order.  To pause
        strictly before the events at ``t``, run until
        ``math.nextafter(t, -math.inf)``.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        executed = 0
        # Hot loop: everything the per-event path touches is a local, an
        # absent horizon or budget is one that never stops the loop, and
        # the executed-event count is kept in `executed` and folded into
        # the counters once, on the way out.
        heap = self._heap
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        reached = True
        try:
            while heap:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    pop(heap)
                    self._dead -= 1
                    continue
                time = entry[0]
                if time > horizon:
                    break
                if executed >= budget:
                    # Stopped short of the horizon: the clock must not
                    # jump past the events still pending.
                    reached = False
                    break
                pop(heap)
                self.now = time
                event.done = True
                executed += 1
                event.callback(*event.args)
                if heap is not self._heap:
                    # A callback cancelled enough timers to trigger heap
                    # compaction (or scheduled into a rebuilt heap); pick
                    # up the replacement list.
                    heap = self._heap
            if reached and until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            self._events_executed += executed
            self._live -= executed
            # Milestone instrumentation: once per run() call, never per
            # event — the event loop above stays untouched.
            obs = get_active()
            obs.counter("des.runs").inc()
            obs.counter("des.events").inc(executed)
            if obs.tracing:
                obs.event(
                    "des.run",
                    events=executed,
                    now=round(self.now, 9),
                    until=until,
                )

    def _next_live_time(self) -> Optional[float]:
        """Peek the timestamp of the next non-cancelled event."""
        while self._heap:
            time, _priority, _seq, event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                self._dead -= 1
                continue
            return time
        return None

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={len(self._heap)}, "
            f"executed={self._events_executed})"
        )
