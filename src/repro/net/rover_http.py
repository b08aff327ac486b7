"""HTTP front-end for Rover servers — the paper's CGI-style gateway.

The paper provides two Rover server implementations: one rides the
Common Gateway Interface of a stock httpd, the other is a standalone
server speaking a restricted HTTP subset.  "Both servers offer
identical functionality and communication interfaces to Rover client
applications."  This module is that equivalence in code:

* :class:`RoverHttpGateway` exposes the *same* service table the native
  RPC port uses (``rover.import`` etc.) at ``POST /rover/<op>`` with a
  marshalled body, sharing all server state (cache of applied request
  ids, object store, resolvers);
* :class:`HttpRoute` plugs HTTP delivery into the network scheduler as
  an alternative connection-based carrier, so a client can run its
  whole QRPC stream over HTTP instead of the native protocol.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.net.http import HttpClient, HttpRequest, HttpResponse, HttpServer
from repro.net.message import MarshalError, marshal, unmarshal
from repro.net.scheduler import Route, RouteKind
from repro.net.simnet import Address, Host
from repro.net.transport import Transport, remote_error, settle_reply
from repro.sim import Simulator

GATEWAY_PREFIX = "/rover/"


class RoverHttpGateway:
    """Serve the Rover services over HTTP on the server's host."""

    def __init__(
        self,
        sim: Simulator,
        transport: Transport,
        http_server: HttpServer | None = None,
    ) -> None:
        self.sim = sim
        self.transport = transport
        self.http = http_server or HttpServer(sim, transport.host)
        self.requests_served = 0
        self.http.route(GATEWAY_PREFIX, self._handle)

    def _handle(self, request: HttpRequest, source: Address):
        if request.method != "POST":
            return HttpResponse(400, body=b"POST required")
        service = "rover." + request.path[len(GATEWAY_PREFIX):]
        try:
            body = unmarshal(request.body)
        except MarshalError as exc:
            return HttpResponse(400, body=str(exc).encode())
        ok, reply_body = self.transport.handle_request(service, body, source)
        self.requests_served += 1
        seq = request.headers.get("X-Seq")

        def respond(delay_s: float, final: Any) -> None:
            response = HttpResponse(
                200 if ok else 500,
                headers={"Content-Type": "application/x-rover"},
                body=marshal(final),
            )
            if delay_s > 0:
                self.sim.schedule(delay_s, self.http._reply, source, response, seq)
            else:
                self.http._reply(source, response, seq)

        settle_reply(reply_body, respond)
        return None  # respond() answers, now or when the handler's reply settles


class HttpRoute(Route):
    """Scheduler route that carries QRPCs as HTTP POSTs to a gateway."""

    name = "http"
    kind = RouteKind.DIRECT

    def __init__(self, sim: Simulator, client: HttpClient, gateway_host: Host) -> None:
        self.sim = sim
        self.client = client
        self.gateway_host = gateway_host

    def available(self, dst: Host) -> bool:
        # The gateway host *is* the Rover server's host in the standard
        # topology; the route works whenever a link to it is up.
        return dst is self.gateway_host and self.client.host.best_link_to(dst) is not None

    @property
    def quality(self) -> float:  # type: ignore[override]
        # Slightly below the native RPC carrier on the same links: the
        # textual framing costs more bytes, so prefer native when both
        # are available.
        link = self.client.host.best_link_to(self.gateway_host)
        return link.spec.bandwidth_bps * 0.9 if link is not None else 0.0

    def send(
        self,
        dst: Host,
        service: str,
        body: Any,
        on_reply: Callable[[Any], None],
        on_error: Callable[[str], None],
        on_accepted: Callable[[], None],
    ) -> None:
        if not service.startswith("rover."):
            on_error(f"http route only carries rover services, not {service!r}")
            return
        path = GATEWAY_PREFIX + service[len("rover."):]

        def got(response: HttpResponse) -> None:
            try:
                payload = unmarshal(response.body)
            except MarshalError as exc:
                on_error(f"bad gateway reply: {exc}")
                return
            if response.status == 200:
                on_reply(payload)
            else:
                on_error(remote_error(payload))

        self.client.request(
            dst,
            HttpRequest("POST", path, body=marshal(body)),
            on_response=got,
            on_error=on_error,
        )
