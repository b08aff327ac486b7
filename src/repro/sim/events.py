"""Event queue and virtual clock.

A :class:`Simulator` owns the virtual clock and the pending-event
structure.  Events scheduled for the same instant fire in the order
they were scheduled (FIFO tie-break on arrival order), which makes
every run of a seeded scenario bit-for-bit deterministic.

CPU hot path (repro.speed)
--------------------------

The kernel is a *timer wheel over exact instants*: a heap of distinct
timestamps fronting per-instant FIFO buckets.  Two workload facts make
this the right shape for Rover traffic:

* **Same-instant batches dominate.**  A reconnection drain delivers
  bursts of frames at identical virtual instants (a serial line frees
  at one time, a bucketed flush completes at one time).  Scheduling
  into an existing bucket is a list append — no heap operation, no
  ``Event`` comparisons — so a k-frame batch costs one heap push for
  the instant plus k appends instead of k pushes.

* **Most timers never fire.**  Retransmit and RPC-timeout timers are
  cancelled when the reply lands, which is almost always.  Cancellation
  is O(1): the event is only *marked* dead and skipped when its bucket
  drains.  (The previous kernel removed the event eagerly with an O(n)
  ``list.remove`` plus a full ``heapify`` — 60%+ of a large drain's CPU
  time went there.)  When cancelled corpses exceed half the queue the
  kernel compacts, so cancel-heavy chaos runs stay O(live events) in
  memory — see :meth:`Simulator._maybe_compact`.

Both changes preserve the observable order exactly: buckets replay the
schedule order that the old per-event seq numbers encoded, and lazily
cancelled events were already invisible to callbacks.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Event:
    """Handle for a scheduled callback.

    Holding the handle allows cancellation via :meth:`Simulator.cancel`
    or :meth:`cancel`.  Cancellation is O(1): the event stays queued
    but marked dead, is skipped when its instant fires, and is swept
    out wholesale when dead events outnumber live ones (cancel-heavy
    workloads — e.g. retransmit timers in long chaos runs — would
    otherwise grow the queue without bound).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        # Release the payload now: a cancelled retransmit timer may be
        # the only reference keeping a large frame alive until sweep.
        self.fn = _noop
        self.args = ()
        sim = self._sim
        if sim is not None:
            sim._note_cancel(self)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state} {self.fn!r}>"


def _noop() -> None:  # pragma: no cover - never actually invoked
    return None


class _Bucket:
    """FIFO of events sharing one exact virtual instant.

    ``head`` indexes the next unfired event; consumed entries are left
    in place (no O(n) pops from the front) and the whole bucket is
    dropped once drained.
    """

    __slots__ = ("events", "head")

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.head = 0


class Simulator:
    """Discrete-event simulator with a virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, print, "fires at t=1.5")
        sim.run()
    """

    #: Compaction trigger: sweep when cancelled entries exceed this
    #: many *and* outnumber live ones (the >50% dead ratio).
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        #: Heap of distinct instants that have a bucket.
        self._times: list[float] = []
        #: instant -> FIFO bucket of events at that instant.
        self._buckets: dict[float, _Bucket] = {}
        self._seq = 0
        #: Current virtual time in seconds.  A plain attribute, read
        #: many times per event; only this kernel assigns it.
        self.now = 0.0
        self._running = False
        #: Queued events that are neither fired nor cancelled.
        self._live = 0
        #: Queued events that were cancelled but not yet swept/skipped.
        self._cancelled = 0
        #: Lifetime count of compaction sweeps (observability).
        self.compactions = 0
        #: Pluggable resolver for enumerable decision points (see
        #: :meth:`decide`).  ``None`` means every decision takes its
        #: first alternative — the plain deterministic run.
        self.decision_provider: Optional[Callable[[int, dict], int]] = None

    def decide(self, n_alternatives: int, meta: Optional[dict] = None) -> int:
        """Resolve an enumerable decision point.

        Components with several legal behaviours at one instant (deliver
        vs. drop a frame, crash vs. survive a log flush) call this
        instead of drawing from an RNG.  With no
        :attr:`decision_provider` installed the first alternative (index
        0, the fault-free default) is always taken, so ordinary runs
        stay bit-for-bit deterministic and fault-free.  A model checker
        (:mod:`repro.check`) installs a provider that enumerates the
        alternatives systematically.

        ``meta`` describes the decision point (for pruning and trace
        readability); it is advisory and must not affect semantics.
        """
        if n_alternatives <= 1 or self.decision_provider is None:
            return 0
        choice = self.decision_provider(n_alternatives, meta or {})
        if not 0 <= choice < n_alternatives:
            raise SimulationError(
                f"decision provider chose {choice} of {n_alternatives} alternatives"
            )
        return choice

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at t={time} before now={self.now}")
        event = Event(time, self._seq, fn, args, sim=self)
        self._seq += 1
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[time] = bucket
            heappush(self._times, time)
        bucket.events.append(event)
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event.cancel()

    def _note_cancel(self, event: Event) -> None:
        """Bookkeeping for a lazy cancellation (called by Event.cancel)."""
        self._live -= 1
        self._cancelled += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Sweep cancelled corpses once they exceed half the queue.

        Rebuilds every bucket's unfired tail without its cancelled
        entries, drops now-empty buckets, and re-heapifies the instant
        heap.  Amortized O(1) per cancellation: a sweep costs O(queue)
        but at least half of what it scans is freed.
        """
        if (
            self._cancelled <= self.COMPACT_MIN_CANCELLED
            or self._cancelled <= self._live
        ):
            return
        buckets = self._buckets
        survivors: dict[float, _Bucket] = {}
        for time, bucket in buckets.items():
            events = bucket.events
            head = bucket.head
            keep = (
                [e for e in events[head:] if not e.cancelled]
                if head or self._cancelled
                else events
            )
            if keep:
                fresh = _Bucket()
                fresh.events = keep
                survivors[time] = fresh
        self._buckets = survivors
        self._times = list(survivors.keys())
        heapify(self._times)
        self._cancelled = 0
        self.compactions += 1

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    def queued(self) -> int:
        """Physical queue size: live events plus unswept cancelled corpses.

        Test/diagnostic surface for the lazy-cancel kernel — a drained
        simulation must report 0, and cancel-heavy runs must stay close
        to :meth:`pending` (the compaction bound).
        """
        total = 0
        for bucket in self._buckets.values():
            total += len(bucket.events) - bucket.head
        return total

    def _pop_next(self, until: Optional[float]) -> Optional[Event]:
        """Consume and return the earliest live event.

        Returns ``None`` when the queue is drained or the next live
        event lies strictly beyond ``until`` (which is then left
        queued).  Cancelled corpses encountered on the way are swept.
        """
        times = self._times
        while times:
            time = times[0]
            bucket = self._buckets.get(time)
            if bucket is None:  # stale instant left behind by a sweep
                heappop(times)
                continue
            events = bucket.events
            head = bucket.head
            n = len(events)
            while head < n and events[head].cancelled:
                head += 1
                self._cancelled -= 1
            bucket.head = head
            if head == n:
                del self._buckets[time]
                heappop(times)
                continue
            if until is not None and time > until:
                return None
            event = events[head]
            bucket.head = head + 1
            self._live -= 1
            if bucket.head == n:
                # Drop the drained bucket *before* the callback runs so
                # a same-instant reschedule starts a fresh bucket.
                del self._buckets[time]
                heappop(times)
            return event
        return None

    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns ``False`` when the queue is empty (time does not
        advance), ``True`` otherwise.
        """
        event = self._pop_next(None)
        if event is None:
            return False
        self.now = event.time
        event.fn(*event.args)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Run events until the queue drains or ``until`` is reached.

        When ``until`` is given, events at times strictly greater than
        it are left queued and the clock is advanced exactly to
        ``until``.  Returns the number of events executed.  Raises
        :class:`SimulationError` after ``max_events`` as a runaway
        guard.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        try:
            while True:
                if executed >= max_events and self._peek_live(until):
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a runaway loop"
                    )
                event = self._pop_next(until)
                if event is None:
                    break
                self.now = event.time
                event.fn(*event.args)
                executed += 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return executed

    def _peek_live(self, until: Optional[float]) -> bool:
        """True when a live event at time <= ``until`` is queued."""
        times = self._times
        while times:
            time = times[0]
            bucket = self._buckets.get(time)
            if bucket is None:
                heappop(times)
                continue
            events = bucket.events
            head = bucket.head
            n = len(events)
            while head < n and events[head].cancelled:
                head += 1
                self._cancelled -= 1
            bucket.head = head
            if head == n:
                del self._buckets[time]
                heappop(times)
                continue
            return until is None or time <= until
        return False

    def spawn(self, gen: Any, name: str = "") -> Any:
        """Start a generator as a simulated process (see :mod:`repro.sim.process`)."""
        from repro.sim.process import Process

        return Process(self, gen, name=name)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 1e9,
        max_events: int = 10_000_000,
    ) -> bool:
        """Run until ``predicate()`` is true.

        Returns ``True`` if the predicate was satisfied, ``False`` if
        the event queue drained or the virtual ``timeout`` elapsed
        first.  The predicate is checked after every event.
        """
        deadline = self.now + timeout
        executed = 0
        if predicate():
            return True
        while True:
            if executed >= max_events and self._peek_live(deadline):
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a runaway loop"
                )
            event = self._pop_next(deadline)
            if event is None:
                return predicate()
            self.now = event.time
            event.fn(*event.args)
            executed += 1
            if predicate():
                return True
