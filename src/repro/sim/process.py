"""Generator-based simulated processes.

Scripted actors (a user clicking through web pages, a mail reader
session) are most naturally written as sequential code that sleeps and
waits.  A :class:`Process` wraps a generator; the generator yields

* a ``float``/``int`` — sleep that many virtual seconds, or
* any :class:`Waitable` (e.g. a QRPC promise or a :class:`Signal`) —
  suspend until it fires.

The yielded waitable's result (if any) is sent back into the generator.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.events import SimulationError, Simulator


class ProcessKilled(Exception):
    """Injected into a process generator when it is killed."""


class Waitable:
    """Minimal interface a process may yield on.

    A waitable is *done* or not; when it becomes done it invokes every
    registered callback exactly once with itself as the argument.
    Callbacks registered after completion fire immediately.
    """

    __slots__ = ("_done", "_callbacks", "_value")

    def __init__(self) -> None:
        self._done = False
        self._callbacks: list[Callable[["Waitable"], None]] = []
        self._value: Any = None

    @property
    def is_done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        return self._value

    def add_callback(self, fn: Callable[["Waitable"], None]) -> None:
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def fire(self, value: Any = None) -> None:
        """Mark done and notify waiters (idempotent; later fires ignored)."""
        if self._done:
            return
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class Signal(Waitable):
    """A one-shot event processes can wait on and code can trigger."""

    __slots__ = ()


class Process:
    """A running simulated process.

    Create via :func:`spawn`.  The process itself is a
    :class:`Waitable` target: ``yield process`` waits for it to finish,
    and :attr:`result` holds the generator's return value.
    """

    def __init__(self, sim: Simulator, gen: Generator[Any, Any, Any], name: str = ""):
        self.sim = sim
        self.name = name
        self._gen = gen
        self._finished = Signal()
        self._alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        # Kick off on the next tick so spawn order does not skew
        # same-instant determinism relative to other scheduled work.
        sim.schedule(0.0, self._advance, None)

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def is_done(self) -> bool:
        return self._finished.is_done

    def add_callback(self, fn: Callable[[Waitable], None]) -> None:
        self._finished.add_callback(fn)

    def kill(self) -> None:
        """Terminate the process by throwing :class:`ProcessKilled` into it."""
        if not self._alive:
            return
        self._alive = False
        try:
            self._gen.throw(ProcessKilled())
        except (ProcessKilled, StopIteration):
            pass
        finally:
            self._gen.close()
            self._finished.fire(None)

    def _advance(self, send_value: Any) -> None:
        if not self._alive:
            return
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self._alive = False
            self.result = stop.value
            self._finished.fire(stop.value)
            return
        except ProcessKilled:
            self._alive = False
            self._finished.fire(None)
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(f"process {self.name!r} slept {yielded} < 0")
            self.sim.schedule(float(yielded), self._advance, None)
        elif hasattr(yielded, "add_callback"):
            yielded.add_callback(lambda w: self._advance(getattr(w, "value", None)))
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {yielded!r}; "
                "yield a delay (seconds) or a waitable"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "finished"
        return f"<Process {self.name!r} {state}>"


def spawn(sim: Simulator, gen: Generator[Any, Any, Any], name: str = "") -> Process:
    """Start a generator as a simulated process."""
    return Process(sim, gen, name=name)
