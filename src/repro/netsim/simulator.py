"""A small discrete-event simulator.

The simulator keeps a heap of timestamped events. Each event is a callable
plus arguments. Time is a float in seconds. Components schedule callbacks
relative to the current time; the simulator advances time to the next event.

Two styles of use are supported:

* callback style: ``sim.schedule(0.5, handler, arg)``
* process style: ``sim.spawn(generator)`` where the generator yields delays
  in seconds and is resumed after each delay elapses.

Determinism: ties in event time are broken by a monotonically increasing
sequence number, so two runs with the same inputs produce identical
schedules. All randomness in the wider system goes through explicitly
seeded ``random.Random`` generators, never through this module.

Performance notes (the kernel hot paths; ``packet_events`` in ``bench/``):

* ``pending_events`` is O(1): the simulator keeps a live-event counter
  maintained by ``schedule``/``cancel``/pop instead of scanning the heap.
* Cancelled timers stay in the heap (heap surgery is more expensive than
  skipping them on pop) but the heap is **lazily compacted** when cancelled
  entries outnumber live ones past a threshold, so timer-churn-heavy
  workloads (retry/backoff, supervisor health checks, monitor probes) do
  not grow the heap unboundedly.  Compaction filters and re-heapifies;
  because every entry carries a unique sequence number the total order —
  and therefore the event schedule — is unchanged.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import ReproError


class SimulationError(ReproError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class Timer:
    """Handle to a scheduled event; supports cancellation.

    A cancelled timer stays in the heap but is skipped when popped; the
    owning :class:`Simulator` keeps a live-event counter and compacts the
    heap when cancelled entries pile up.
    """

    __slots__ = ("when", "_fn", "_args", "_cancelled", "_sim")

    def __init__(self, when: float, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.when = when
        self._fn = fn
        self._args = args
        self._cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Cancel the timer; cancelling twice or after firing is a no-op."""
        if self._cancelled:
            return
        self._cancelled = True
        sim = self._sim
        if sim is not None:
            # Still in the heap: tell the simulator one fewer event is live.
            self._sim = None
            sim._on_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _fire(self) -> None:
        if not self._cancelled:
            self._fn(*self._args)


#: Compaction threshold: the heap is rebuilt without cancelled entries once
#: it holds more than this many cancelled timers *and* they outnumber the
#: live ones.  Small enough to bound memory under churn, large enough that
#: compaction cost amortizes to O(1) per cancellation.
COMPACT_MIN_CANCELLED = 256


class Simulator:
    """Event-heap discrete-event simulator with float seconds for time."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._live = 0  # scheduled, not yet fired, not cancelled
        #: Opt-in :class:`repro.obs.profile.Profiler`.  ``run`` binds it
        #: once per call, so attaching one takes effect at the next
        #: ``run``; with it None the hot loop is exactly the old loop.
        self.profiler = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled, not yet fired) events — O(1)."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Raw heap length including cancelled entries (for diagnostics)."""
        return len(self._heap)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` to run at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        timer = Timer(when, fn, args)
        timer._sim = self
        heapq.heappush(self._heap, (when, next(self._seq), timer))
        self._live += 1
        return timer

    def _on_cancel(self) -> None:
        """A live in-heap timer was cancelled: adjust the counter, maybe compact."""
        self._live -= 1
        cancelled = len(self._heap) - self._live
        if cancelled > COMPACT_MIN_CANCELLED and cancelled > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify — **in place**.

        Entries are totally ordered by their unique (when, seq) prefix, so
        rebuilding the heap cannot reorder the surviving events: pop order
        — and therefore every seeded digest — is unchanged.

        The list object must keep its identity: ``run`` and
        ``_runnable_before`` hold a local reference to ``self._heap`` while
        a callback may cancel enough timers to trigger compaction.
        Rebinding ``self._heap`` to a fresh list here would leave those
        loops popping a stale list (events firing twice, the live counter
        going negative), so the filtered result is written back through a
        slice assignment instead.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2]._cancelled]
        heapq.heapify(self._heap)

    def spawn(self, process: Generator[float, None, None]) -> None:
        """Drive a generator-based process.

        The generator yields non-negative delays in seconds; it is resumed
        once each delay has elapsed. The process ends when the generator
        returns.  Any other exception raised by the process propagates out
        of the ``run`` call that stepped it; the clock stays at the event
        time at which the process raised, and the simulator remains usable.
        """

        def step() -> None:
            try:
                delay = next(process)
            except StopIteration:
                return
            if delay < 0:
                raise SimulationError(f"process yielded negative delay {delay}")
            self.schedule(delay, step)

        self.schedule(0.0, step)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` events have been processed.  Returns the number of
        events processed by this call.

        Clock contract: the clock never moves backwards, and when ``until``
        is given the clock is advanced to exactly ``until`` whenever the
        window's work is complete — including when ``max_events`` stopped
        the loop but no runnable event remains at or before ``until``.  The
        one case where ``run`` returns with ``now < until`` is a genuine
        truncation: ``max_events`` was exhausted with events still pending
        inside the window.  Those events cannot be skipped over (firing
        them later would move the clock backwards), so the caller must call
        ``run`` again to finish the window; comparing the return value
        against ``max_events`` tells the two cases apart.
        """
        processed = 0
        heap = self._heap
        profiler = self.profiler
        while heap:
            when, _, timer = heap[0]
            if until is not None and when > until:
                break
            if max_events is not None and processed >= max_events:
                break
            heapq.heappop(heap)
            if timer._cancelled:
                continue
            timer._sim = None
            self._live -= 1
            self._now = when
            if profiler is None:
                timer._fire()
            else:
                profiler.fire_timer(timer, when)
            self._events_processed += 1
            processed += 1
        if until is not None and until > self._now and not self._runnable_before(until):
            self._now = until
        return processed

    def _runnable_before(self, until: float) -> bool:
        """True when a live event is scheduled at or before ``until``.

        Pops cancelled entries off the top while peeking — they are dead
        weight and removing them keeps the heap tight.
        """
        heap = self._heap
        while heap:
            when, _, timer = heap[0]
            if timer._cancelled:
                heapq.heappop(heap)
                continue
            return when <= until
        return False

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain (with a runaway backstop).

        Only *live* events count against the backstop check: a heap full of
        cancelled timers is idle, not runaway.
        """
        self.run(max_events=max_events)
        if self.pending_events:
            raise SimulationError(
                f"simulation did not become idle within {max_events} events"
            )
