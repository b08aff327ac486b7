"""Live Rover nodes: unmodified toolkit over real sockets.

:class:`LiveServer` wraps the *same* :class:`~repro.core.server.RoverServer`
used in simulation; :class:`LiveClient` wires the same
:class:`~repro.core.access_manager.AccessManager` over the same network
scheduler and transport, through the same helper the simulated testbeds
use.  Only the substrate (the clock, and TCP connections for links)
differs, so deferred and coalesced replies, sealed frames and the
``transport_*`` metrics exist here as they do on the simulator.

Limitations of live mode (by design — it is a deployment vehicle, not
the measurement substrate): no SMTP relay route; no server push — a
connection carries one request and its reply, so nothing can listen on
a port of its own and ``subscribe_invalidations`` raises
``AccessManagerError`` (poll with ``max_age_s`` instead); frames are
never compressed or coalesced by the sender, which knows nothing of the
wire behind its socket (both are served when received); and timing
assertions belong on the simulator.
"""

from __future__ import annotations

from typing import Optional

from repro.core.conflict import ResolverRegistry
from repro.core.server import RoverServer
from repro.live.clock import RealTimeClock
from repro.live.scheduler import LiveScheduler
from repro.live.transport import LiveAddress, LiveTransport
from repro.storage.stable_log import FlushModel
from repro.testbed import wire_access_manager


class LiveServer:
    """A real listening Rover home server."""

    def __init__(
        self,
        authority: str,
        bind_host: str = "127.0.0.1",
        port: int = 0,
        resolvers: Optional[ResolverRegistry] = None,
        clock: Optional[RealTimeClock] = None,
    ) -> None:
        self.clock = clock or RealTimeClock(name=f"{authority}-loop")
        self._owns_clock = clock is None
        self.transport = LiveTransport(self.clock, authority, bind_host, port)
        self.server = RoverServer(
            self.clock, self.transport, authority, resolvers=resolvers
        )

    @property
    def address(self) -> LiveAddress:
        return self.transport.address

    def put_object(self, rdo) -> int:
        return self.server.put_object(rdo)

    def get_object(self, urn: str):
        return self.server.get_object(urn)

    def close(self) -> None:
        self.transport.close()
        if self._owns_clock:
            self.clock.close()


class LiveClient:
    """A real Rover mobile client."""

    def __init__(
        self,
        name: str,
        servers: dict[str, LiveAddress],
        clock: Optional[RealTimeClock] = None,
        auth_token: str = "",
        call_timeout: float = 10.0,
        max_attempts: int = 8,
    ) -> None:
        self.clock = clock or RealTimeClock(name=f"{name}-loop")
        self._owns_clock = clock is None
        self.transport = LiveTransport(self.clock, name)
        self.scheduler = LiveScheduler(
            self.clock,
            self.transport,
            call_timeout=call_timeout,
            max_attempts=max_attempts,
        )
        self.access = wire_access_manager(
            self.scheduler,
            dict(servers),
            self.scheduler.obs,
            # Real wall-clock flushes would slow the demo; the log is
            # still real (recoverable) — only the *cost model* is free.
            flush_model=FlushModel.free(),
            auth_token=auth_token,
        )

    def close(self) -> None:
        self.transport.close()
        if self._owns_clock:
            self.clock.close()
