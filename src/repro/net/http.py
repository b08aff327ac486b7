"""Minimal HTTP/1.0-style protocol over the simulated network.

The paper's Rover servers speak HTTP (one implementation rides CGI
behind a stock httpd, the other is a standalone server exposing a
restricted HTTP subset).  We reproduce the standalone flavour: textual
request/response framing (honest byte counts on the wire), a tiny
routing server, and a callback-based client.

Requests and responses are datagram-framed: one message per request,
one per response, addressed back to the client's ephemeral port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.simnet import Address, Host
from repro.net.transport import HTTP_PORT
from repro.sim import Simulator

_EPHEMERAL_BASE = 40_000


class HttpError(Exception):
    """Malformed HTTP framing."""


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        lines = [f"{self.method} {self.path} HTTP/1.0"]
        headers = dict(self.headers)
        if self.body:
            headers.setdefault("Content-Length", str(len(self.body)))
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


@dataclass
class HttpResponse:
    status: int
    reason: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        reason = self.reason or _REASONS.get(self.status, "")
        lines = [f"HTTP/1.0 {self.status} {reason}"]
        headers = dict(self.headers)
        headers.setdefault("Content-Length", str(len(self.body)))
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


_REASONS = {
    200: "OK",
    302: "Moved Temporarily",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _split_head(data: bytes) -> tuple[list[str], bytes]:
    try:
        head, body = data.split(b"\r\n\r\n", 1)
    except ValueError as exc:
        raise HttpError("missing header terminator") from exc
    return head.decode("latin-1").split("\r\n"), body


def _parse_headers(lines: list[str]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in lines:
        if ":" not in line:
            raise HttpError(f"bad header line {line!r}")
        name, value = line.split(":", 1)
        headers[name.strip()] = value.strip()
    return headers


def decode_request(data: bytes) -> HttpRequest:
    lines, body = _split_head(data)
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HttpError(f"bad request line {lines[0]!r}")
    method, path, __ = parts
    return HttpRequest(method, path, _parse_headers(lines[1:]), body)


def decode_response(data: bytes) -> HttpResponse:
    lines, body = _split_head(data)
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise HttpError(f"bad status line {lines[0]!r}")
    status = int(parts[1])
    reason = parts[2] if len(parts) == 3 else ""
    return HttpResponse(status, reason, _parse_headers(lines[1:]), body)


#: A handler answers now, or returns None and answers later through
#: :meth:`HttpServer._reply` (long-poll style).
RouteHandler = Callable[[HttpRequest, Address], Optional[HttpResponse]]


class HttpServer:
    """Routing HTTP server bound to port 80 of a host.

    Handlers are registered by path prefix; the longest matching prefix
    wins.  Handler exceptions become 500 responses.
    """

    def __init__(self, sim: Simulator, host: Host) -> None:
        self.sim = sim
        self.host = host
        self._routes: dict[str, RouteHandler] = {}
        self.requests_served = 0
        host.bind(HTTP_PORT, self._on_datagram)

    def route(self, prefix: str, handler: RouteHandler) -> None:
        self._routes[prefix] = handler

    def _resolve(self, path: str) -> Optional[RouteHandler]:
        best: Optional[str] = None
        for prefix in self._routes:
            if path.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        return self._routes[best] if best is not None else None

    def _on_datagram(self, payload: bytes, source: Address) -> None:
        seq: Optional[str] = None
        try:
            request = decode_request(payload)
        except HttpError as exc:
            response = HttpResponse(400, body=str(exc).encode())
        else:
            seq = request.headers.get("X-Seq")
            handler = self._resolve(request.path)
            if handler is None:
                response = HttpResponse(404, body=b"no route")
            else:
                try:
                    response = handler(request, source)
                except Exception as exc:  # handler fault -> 500
                    response = HttpResponse(
                        500, body=f"{type(exc).__name__}: {exc}".encode()
                    )
        self.requests_served += 1
        if response is not None:
            self._reply(source, response, seq)

    def _reply(self, source: Address, response: HttpResponse, seq: Optional[str]) -> None:
        """Transmit ``response`` to ``source``, echoing its request's ``X-Seq``."""
        if seq is not None:
            response.headers["X-Seq"] = seq
        src_host = self.host.network.hosts.get(source[0])
        link = self.host.best_link_to(src_host) if src_host is not None else None
        if link is not None:  # else the client will time out
            link.send(self.host, source[1], response.encode(), src_port=HTTP_PORT)


class HttpClient:
    """Callback-based HTTP client with per-client ephemeral port."""

    _next_port = _EPHEMERAL_BASE

    def __init__(self, sim: Simulator, host: Host) -> None:
        self.sim = sim
        self.host = host
        self.port = HttpClient._next_port
        HttpClient._next_port += 1
        self._next_seq = 0
        self._pending: dict[int, dict] = {}
        host.bind(self.port, self._on_datagram)

    def request(
        self,
        dst: Host,
        request: HttpRequest,
        on_response: Callable[[HttpResponse], None],
        on_error: Callable[[str], None],
        timeout: float = 60.0,
    ) -> None:
        link = self.host.best_link_to(dst)
        if link is None:
            self.sim.schedule(0.0, on_error, "no usable link")
            return
        seq = self._next_seq
        self._next_seq += 1
        request.headers.setdefault("X-Seq", str(seq))

        def expire() -> None:
            pending = self._pending.pop(seq, None)
            if pending is not None:
                on_error("timeout")

        timer = self.sim.schedule(timeout, expire)
        self._pending[seq] = {"on_response": on_response, "timer": timer}
        link.send(
            self.host,
            HTTP_PORT,
            request.encode(),
            src_port=self.port,
            on_failed=lambda reason: self._fail(seq, reason, on_error),
        )

    def get(
        self,
        dst: Host,
        path: str,
        on_response: Callable[[HttpResponse], None],
        on_error: Callable[[str], None],
        timeout: float = 60.0,
    ) -> None:
        self.request(dst, HttpRequest("GET", path), on_response, on_error, timeout)

    def _fail(self, seq: int, reason: str, on_error: Callable[[str], None]) -> None:
        pending = self._pending.pop(seq, None)
        if pending is not None:
            pending["timer"].cancel()
            on_error(reason)

    def _on_datagram(self, payload: bytes, source: Address) -> None:
        try:
            response = decode_response(payload)
        except HttpError:
            return
        if not self._pending:
            return
        echoed = response.headers.get("X-Seq")
        if echoed is not None and echoed.isdigit() and int(echoed) in self._pending:
            seq = int(echoed)
        else:
            # Fall back to oldest-pending for responses without an echo.
            seq = min(self._pending)
        pending = self._pending.pop(seq)
        pending["timer"].cancel()
        pending["on_response"](response)
