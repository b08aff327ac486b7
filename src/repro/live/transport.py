"""TCP transport with the simulated transport's interface.

Frames are 4-byte big-endian length prefixes followed by a marshalled
envelope — the same ``{"kind": "request"|"reply", ...}`` shape the
simulated transport uses, so the unmodified
:class:`~repro.core.server.RoverServer` service table serves both.

Connections are per-request (open, send, read reply, close): simple,
robust against half-dead peers, and faithful to the paper's modest
HTTP-era transport assumptions.  All callbacks are posted to the
:class:`~repro.live.clock.RealTimeClock` loop thread.
"""

from __future__ import annotations

import socket
import struct
import threading
from types import SimpleNamespace
from typing import Any, Callable

from repro.live.clock import RealTimeClock
from repro.net.message import MarshalError, marshal, unmarshal
from repro.net.transport import DelayedReply, RpcError, RpcTimeout

_LENGTH = struct.Struct(">I")
MAX_FRAME = 16 * 1024 * 1024


class LiveAddress:
    """Where a live Rover node listens (stands in for a simnet Host)."""

    __slots__ = ("name", "host", "port")

    def __init__(self, name: str, host: str, port: int) -> None:
        self.name = name
        self.host = host
        self.port = port

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveAddress {self.name} {self.host}:{self.port}>"


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_FRAME:
        raise ConnectionError(f"frame of {length} bytes exceeds limit")
    return _recv_exact(sock, length)


class LiveTransport:
    """Serve and issue Rover requests over real TCP."""

    def __init__(
        self,
        clock: RealTimeClock,
        name: str,
        bind_host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.clock = clock
        self.name = name
        #: Just enough Host for the scheduler and the access manager:
        #: a name, no simulated links to watch, no simulated network.
        self.host = SimpleNamespace(name=name, links=[], network=None)
        self._request_handlers: dict[str, Callable] = {}
        self._next_call_id = 0
        self._id_lock = threading.Lock()
        self.bytes_sent = 0
        self.messages_sent = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((bind_host, port))
        self._listener.listen(16)
        self.address = LiveAddress(name, bind_host, self._listener.getsockname()[1])
        self._closing = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )
        self._accept_thread.start()

    # -- the shared interface -------------------------------------------------

    def register(self, service: str, handler: Callable) -> None:
        """Expose ``handler(body, source)`` under ``service``."""
        self._request_handlers[service] = handler

    def handle_request(self, service: str, body: Any, source: tuple) -> tuple[bool, Any]:
        """Dispatch into the service table (same contract as simulated)."""
        handler = self._request_handlers.get(service)
        if handler is None:
            return False, {"error": f"unknown service {service!r}"}
        try:
            return True, handler(body, source)
        except Exception as exc:
            return False, {"error": f"{type(exc).__name__}: {exc}"}

    def call(
        self,
        dst: LiveAddress,
        service: str,
        body: Any,
        on_reply: Callable[[Any], None],
        on_error: Callable[[RpcError], None],
        timeout: float = 30.0,
    ) -> str:
        """Issue a request; exactly one callback fires, on the loop thread."""
        with self._id_lock:
            call_id = f"{self.name}:{self._next_call_id}"
            self._next_call_id += 1
        envelope = {"kind": "request", "id": call_id, "service": service, "body": body}
        payload = marshal(envelope)

        def worker() -> None:
            try:
                with socket.create_connection(
                    (dst.host, dst.port), timeout=timeout
                ) as sock:
                    sock.settimeout(timeout)
                    _send_frame(sock, payload)
                    raw = _recv_frame(sock)
            except socket.timeout:
                self.clock.post(on_error, RpcTimeout(f"call {call_id} timed out"))
                return
            except OSError as exc:
                self.clock.post(on_error, RpcError(f"call {call_id} failed: {exc}"))
                return
            try:
                reply = unmarshal(raw)
            except MarshalError as exc:
                self.clock.post(on_error, RpcError(f"bad reply: {exc}"))
                return
            if reply.get("ok"):
                self.clock.post(on_reply, reply.get("body"))
            else:
                detail = reply.get("body")
                message = (
                    detail.get("error", "remote error")
                    if isinstance(detail, dict)
                    else str(detail)
                )
                self.clock.post(on_error, RpcError(message))

        self.bytes_sent += len(payload)
        self.messages_sent += 1
        threading.Thread(
            target=worker, name=f"{self.name}-call-{call_id}", daemon=True
        ).start()
        return call_id

    def close(self) -> None:
        """Stop accepting (idempotent; in-flight handlers finish)."""
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass

    # -- server side ------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection,
                args=(conn, peer),
                name=f"{self.name}-serve",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket, peer: tuple) -> None:
        try:
            with conn:
                conn.settimeout(30.0)
                raw = _recv_frame(conn)
                envelope = unmarshal(raw)
                if envelope.get("kind") != "request":
                    return
                done = threading.Event()
                outcome: dict[str, Any] = {}

                def execute() -> None:
                    # Handlers run on the loop thread (single-threaded
                    # toolkit state), then we ship the reply from here.
                    ok, reply_body = self.handle_request(
                        envelope.get("service", ""), envelope.get("body"), peer
                    )
                    delay = 0.0
                    if isinstance(reply_body, DelayedReply):
                        delay = reply_body.delay_s
                        reply_body = reply_body.body
                    outcome["reply"] = {
                        "kind": "reply",
                        "id": envelope.get("id"),
                        "ok": ok,
                        "body": reply_body,
                    }
                    outcome["delay"] = delay
                    done.set()

                self.clock.post(execute)
                if not done.wait(timeout=30.0):
                    return
                if outcome.get("delay", 0.0) > 0:
                    import time as _time

                    _time.sleep(outcome["delay"])  # charge compute for real
                _send_frame(conn, marshal(outcome["reply"]))
        except (OSError, ConnectionError, MarshalError):
            return  # broken request: drop the connection
