"""Promises for QRPC results.

"Import returns a promise [Liskov & Shrira].  Applications can wait on
this promise or continue computation.  The callback will be invoked
upon arrival of the imported object."  A :class:`Promise` is a
:class:`~repro.sim.Waitable`, so simulated processes can simply
``yield promise``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.sim import Simulator, Waitable


class PromiseError(Exception):
    """Raised by :meth:`Promise.result` when the promise failed."""


class Promise(Waitable):
    """A placeholder for a value that a QRPC will eventually produce."""

    __slots__ = ("label", "_error")

    def __init__(self, label: str = "") -> None:
        super().__init__()
        self.label = label
        self._error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.is_done and self._error is not None

    @property
    def ready(self) -> bool:
        return self.is_done and self._error is None

    @property
    def error(self) -> Optional[str]:
        return self._error

    def resolve(self, value: Any) -> None:
        """Fulfil the promise (idempotent; later calls ignored)."""
        self.fire(value)

    def reject(self, error: str) -> None:
        """Fail the promise (idempotent; later calls ignored)."""
        if self.is_done:
            return
        self._error = error
        self.fire(None)

    def result(self) -> Any:
        """The value; raises if not yet done or failed."""
        if not self.is_done:
            raise PromiseError(f"promise {self.label!r} not yet resolved")
        if self._error is not None:
            raise PromiseError(f"promise {self.label!r} failed: {self._error}")
        return self.value

    def wait(self, sim: Simulator, timeout: float = 1e9) -> Any:
        """Run the simulator until resolution; return the value.

        This is the "wait on the promise" path from the paper; the
        non-blocking path is :meth:`add_callback` / yielding from a
        process.
        """
        sim.run_until(lambda: self.is_done, timeout=timeout)
        return self.result()

    def then(self, fn: Callable[[Any], None]) -> "Promise":
        """Invoke ``fn(value)`` when fulfilled (not on failure)."""
        self.add_callback(partial(_fulfilled, fn))
        return self

    def on_failure(self, fn: Callable[[str], None]) -> "Promise":
        """Invoke ``fn(error)`` when the promise fails."""
        self.add_callback(partial(_failed, fn))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.is_done:
            state = "pending"
        elif self._error is not None:
            state = f"failed:{self._error}"
        else:
            state = "ready"
        return f"<Promise {self.label!r} {state}>"


# The relays :meth:`Promise.then` / :meth:`Promise.on_failure` bind with
# ``partial``: no closure per callback, and no property hop to the value.


def _fulfilled(fn: Callable[[Any], None], promise: Promise) -> None:
    if promise._error is None:
        fn(promise._value)


def _failed(fn: Callable[[str], None], promise: Promise) -> None:
    if promise._error is not None:
        fn(promise._error)
