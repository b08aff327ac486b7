"""The network scheduler over real sockets: :class:`LiveScheduler` *is*
:class:`~repro.net.scheduler.NetworkScheduler`, its default direct route
included.  Only live mode has application threads, so here queue
mutation is handed to the clock's loop thread."""

from __future__ import annotations

import threading

from repro.live.clock import RealTimeClock
from repro.live.transport import LiveTransport
from repro.net.scheduler import NetworkScheduler, Priority, QueuedMessage


class LiveScheduler(NetworkScheduler):
    """Priority QRPC drainer over real sockets."""

    #: Retry backoff, seconds: a real network answers in milliseconds.
    BASE_BACKOFF = 0.2
    MAX_BACKOFF = 10.0

    def __init__(
        self,
        clock: RealTimeClock,
        transport: LiveTransport,
        max_inflight: int = 4,
        max_attempts: int = 8,
        call_timeout: float = 10.0,
    ) -> None:
        super().__init__(
            clock, transport, max_inflight, max_attempts, self.BASE_BACKOFF, self.MAX_BACKOFF,
            obs=transport.obs, rpc_timeout=call_timeout,
        )
        self._submit_lock = threading.Lock()

    def submit(self, *args, **kwargs) -> QueuedMessage:
        with self._submit_lock:  # sequence numbers are handed out on any thread
            return super().submit(*args, **kwargs)

    def _push(self, message: QueuedMessage) -> None:
        # The pump peeks the heap's head and pops it later: a push from
        # another thread in between would drop a message.  On the loop
        # push now: a retry is pushed and pumped in one step.
        if self.sim.on_loop_thread():
            super()._push(message)
        else:
            self.sim.post(super()._push, message)

    def reprioritize(self, message: QueuedMessage, priority: Priority) -> bool:
        if self.sim.on_loop_thread():
            return super().reprioritize(message, priority)
        self.sim.post(super().reprioritize, message, priority)
        return message.state == "queued"
