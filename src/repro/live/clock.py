"""Real-time event-loop clock.

Drop-in for the simulator's clock interface (``now``, ``schedule``,
``run_until``) backed by wall-clock time and one loop thread.  The
crucial property carried over from the simulator: **every callback runs
on the single loop thread**, so toolkit state (cache, log, promises)
never sees concurrent mutation.  Network reader threads hand inbound
work to the loop with :meth:`post`.
"""

from __future__ import annotations

import heapq
import threading
import time
import traceback
from typing import Any, Callable, Optional


class RealTimeClock:
    """A wall-clock event loop with the simulator clock's interface."""

    def __init__(self, name: str = "rover-loop") -> None:
        self._origin = time.monotonic()
        self._heap: list[tuple[float, int, _Timer]] = []
        self._seq = 0
        self._lock = threading.Condition()
        self._running = True
        self.errors: list[str] = []
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self._thread.start()

    # -- clock interface ----------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds since this clock was created."""
        return time.monotonic() - self._origin

    def schedule(self, delay: float, fn: Callable, *args: Any) -> "_Timer":
        """Run ``fn(*args)`` on the loop thread after ``delay`` seconds."""
        timer = _Timer(fn, args)
        with self._lock:
            heapq.heappush(self._heap, (self.now + max(0.0, delay), self._seq, timer))
            self._seq += 1
            self._lock.notify()
        return timer

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> "_Timer":
        return self.schedule(when - self.now, fn, *args)

    def post(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` on the loop thread as soon as possible.

        The hand-off point for network reader threads.
        """
        self.schedule(0.0, fn, *args)

    def on_loop_thread(self) -> bool:
        """Whether the caller is the loop thread (may touch toolkit state)."""
        return threading.current_thread() is self._thread

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 60.0,
        poll_s: float = 0.005,
    ) -> bool:
        """Block the *calling* thread until the predicate holds.

        Unlike the simulator (which executes events while waiting),
        the loop thread is already running; this merely polls.  Do not
        call from the loop thread itself.
        """
        if self.on_loop_thread():
            raise RuntimeError("run_until would deadlock the loop thread")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(poll_s)
        return predicate()

    def close(self) -> None:
        """Stop the loop thread (idempotent)."""
        with self._lock:
            self._running = False
            self._lock.notify()
        self._thread.join(timeout=2.0)

    # -- internals ------------------------------------------------------------

    def _fire(self, timer: "_Timer") -> None:
        call = timer.call
        if call is None:
            return  # cancelled
        fn, args = call
        try:
            fn(*args)
        except Exception:
            # A callback crash must not kill the loop; surface it.
            self.errors.append(traceback.format_exc())

    def _loop(self) -> None:
        while True:
            with self._lock:
                if not self._running:
                    return
                if not self._heap:
                    self._lock.wait(timeout=0.1)
                    continue
                when, __, timer = self._heap[0]
                delay = when - self.now
                if delay > 0:
                    self._lock.wait(timeout=min(delay, 0.1))
                    continue
                heapq.heappop(self._heap)
            self._fire(timer)  # outside the lock


class _Timer:
    """Cancellable handle for a scheduled callback."""

    __slots__ = ("call",)

    def __init__(self, fn: Callable, args: tuple) -> None:
        self.call: Optional[tuple[Callable, tuple]] = (fn, args)

    def cancel(self) -> None:
        # Lets go of the callback now, not when it would have been due:
        # a pending call's timeout outlives its reply by seconds.
        self.call = None
