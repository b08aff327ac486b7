"""Live mode: the same toolkit over real sockets and wall-clock time.

Everything under :mod:`repro.core`, and the network scheduler under it,
is written against two narrow interfaces — a clock (``now`` /
``schedule`` / ``run_until``) and a carrier (a host's ports and the
links that move a sealed frame to a peer's port).  The simulation
substrate implements them in virtual time; this package implements them
over **real localhost TCP sockets** and a real-time event loop, so the
*identical* access-manager, scheduler, transport and server code that
reproduces the paper's tables also runs as an actual networked system:

* :mod:`repro.live.clock` — a single-threaded event-loop clock: every
  callback (timer or inbound message) executes on one loop thread,
  preserving the no-data-races discipline the simulator guarantees;
* :mod:`repro.live.transport` — the one
  :class:`~repro.net.transport.Transport` on a host whose links are TCP
  connections carrying length-prefixed sealed frames (connectivity is
  socket success/failure);
* :mod:`repro.live.scheduler` — the one
  :class:`~repro.net.scheduler.NetworkScheduler` with live defaults and
  the hand-off that keeps queue mutation on the loop thread when
  application threads submit;
* :mod:`repro.live.node` — one-call construction of live servers and
  clients wired to the unmodified :class:`~repro.core.server.RoverServer`
  and :class:`~repro.core.access_manager.AccessManager`.

Scope: a deployment/demo vehicle, not the measurement substrate — the
experiments stay on the simulator where timing is exact.
"""

from repro.live.clock import RealTimeClock
from repro.live.node import LiveClient, LiveServer
from repro.live.scheduler import LiveScheduler
from repro.live.transport import LiveTransport

__all__ = [
    "LiveClient",
    "LiveServer",
    "LiveScheduler",
    "LiveTransport",
    "RealTimeClock",
]
