"""TCP as a carrier under the one transport.

:class:`LiveTransport` *is* :class:`~repro.net.transport.Transport`:
the service table, envelopes and call ids, the pending-call table and
its timeouts, deferred and coalesced replies, the CRC seal and the
``transport_*`` counters are inherited.  This module adds only the
carrier — a host whose links are TCP connections.  A frame is a 4-byte
big-endian length, a 2-byte destination port, then the sealed payload
the transport built.

Connections are per-request (open, send, read reply, close): simple,
robust against half-dead peers, and faithful to the paper's modest
HTTP-era transport assumptions.  Sockets block on threads of their own;
everything else runs on the :class:`~repro.live.clock.RealTimeClock`
loop thread.
"""

from __future__ import annotations

import itertools
import math
import queue
import socket
import struct
import threading
from typing import Any, Callable, Optional

from repro.live.clock import RealTimeClock
from repro.net.link import LinkSpec
from repro.net.simnet import LinkDown
from repro.net.transport import RPC_PORT, RpcError, Transport

_LENGTH = struct.Struct(">I")
_PORT = struct.Struct(">H")
MAX_FRAME = 16 * 1024 * 1024
#: How long an accepted connection is held for the reply to its request.
REPLY_WAIT_S = 30.0
#: Nothing is known of the wire behind a socket, so nothing is guessed:
#: on this spec bytes never dominate (``Transport.bytes_dominate``), and
#: a sender neither compresses nor coalesces.  Receivers inflate ``Z``
#: frames and serve ``rover.batch`` whatever the sender's link.
TCP = LinkSpec("tcp", math.inf, 0.0)


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


class _Connection:
    """One TCP connection, as much of a simnet ``Link`` as
    ``Transport.send`` uses, and the name of the peer at its far end.

    ``carry(frame, on_failed)`` moves one frame; without it this is a
    connection nobody has dialled yet, which :meth:`LiveTransport.call`
    does per request.  Duck-typed rather than a ``Link`` subclass:
    ``repro.lint``'s effect analysis resolves ``link.send`` over ``Link``'s
    subclasses, and their sim-pure contract is about those.
    """

    spec = TCP

    def __init__(self, name: str, carry: Optional[Callable] = None) -> None:
        self.name = name
        self.carry = carry

    def send(
        self, sender: "_LiveHost", port: int, payload: bytes,
        on_failed: Optional[Callable[[str], None]] = None, src_port: int = 0,
    ) -> float:
        if self.carry is None:
            raise LinkDown(f"no connection to {self.name}: only a call dials one")
        self.carry(_PORT.pack(port) + payload, on_failed)
        return sender.clock.now


class _LiveHost:
    """What the transport and the scheduler use of a simnet ``Host``,
    for a process whose peers are at the far end of sockets."""

    def __init__(self, clock: RealTimeClock, name: str) -> None:
        self.clock = clock
        self.name = name
        #: A connection lives for one exchange: there is no standing
        #: link whose transitions a scheduler could watch.
        self.links = ()
        #: The hosts a socket process can name: accepted connections
        #: still owed a reply (``Transport._serve_request`` finds the
        #: requester here).  It is its own network.
        self.network = self
        self.hosts: dict[str, _Connection] = {}
        self._ports: dict[int, Callable] = {}

    def bind(self, port: int, handler: Callable) -> None:
        self._ports[port] = handler

    def best_link_to(self, peer: Any) -> Optional[_Connection]:
        if isinstance(peer, _Connection):
            return peer if self.hosts.get(peer.name) is peer else None
        # Anywhere else is one dial away; whether anyone answers there
        # is found out by calling, and a refusal backs off like a loss.
        return _Connection(peer.name)

    def deliver(self, frame: bytes, source: tuple) -> None:
        """Hand a received frame to the port it names (loop thread)."""
        if len(frame) < _PORT.size:
            return
        handler = self._ports.get(_PORT.unpack_from(frame)[0])
        if handler is not None:  # traffic to an unbound port vanishes
            handler(memoryview(frame)[_PORT.size:], source)


class LiveTransport(Transport):
    """The transport of a process that talks over real TCP."""

    def __init__(
        self,
        clock: RealTimeClock,
        name: str,
        bind_host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(clock, _LiveHost(clock, name))
        self.clock = clock
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((bind_host, port))
        # A burst dials once per request in flight: a dial with no room in
        # the backlog loses its handshake to the kernel's 1, 3, 7 ... s retries.
        self._listener.listen(socket.SOMAXCONN)
        self.address = LiveAddress(name, bind_host, self._listener.getsockname()[1])
        self._closing = False
        self._requests_served = 0
        threading.Thread(target=self._accept_loop, name=f"{name}-accept", daemon=True).start()

    # -- client side ----------------------------------------------------------

    def call(
        self,
        dst: LiveAddress,
        service: str,
        body: Any,
        on_reply: Callable[[Any], None],
        on_error: Callable[[RpcError], None],
        timeout: float = 30.0,
    ) -> str:
        """Issue a request over a connection of its own; exactly one
        callback fires, on the loop thread.  Safe from any thread: off
        the loop the call is handed to it (the exchange's tables and
        counters are the loop's) and the id, not yet assigned, is ""."""
        if not self.clock.on_loop_thread():
            self.clock.post(self.call, dst, service, body, on_reply, on_error, timeout)
            return ""

        def worker(frame: bytes, on_failed: Callable[[str], None]) -> None:
            try:
                with socket.create_connection((dst.host, dst.port), timeout=timeout) as sock:
                    sock.settimeout(timeout)
                    _send_frame(sock, frame)
                    reply = _recv_frame(sock)
            except socket.timeout:
                return  # the pending call's own timer reports it
            except OSError as exc:
                self.clock.post(on_failed, str(exc))
                return
            self.clock.post(self.host.deliver, reply, (dst.name, RPC_PORT))

        def dial(frame: bytes, on_failed: Callable[[str], None]) -> None:
            threading.Thread(
                target=worker, args=(frame, on_failed), name=f"{self.host.name}-call", daemon=True
            ).start()

        link = _Connection(dst.name, dial)
        return super().call(dst, service, body, on_reply, on_error, timeout, link=link)

    def listen(self, port: int, handler: Callable) -> None:
        """Not over sockets: a connection carries one request and its
        reply, so nothing a peer sent one-way could reach ``port``."""
        raise NotImplementedError("no push carrier over per-request connections")

    def close(self) -> None:
        """Stop accepting (idempotent; in-flight handlers finish)."""
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass

    # -- server side ------------------------------------------------------------

    def _accept_loop(self) -> None:
        for serial in itertools.count():
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            if self._closing:
                conn.close()
                return
            threading.Thread(
                target=self._serve_connection,
                args=(conn, f"{peer[0]}:{peer[1]}#{serial}"),
                name=f"{self.host.name}-serve",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket, name: str) -> None:
        """One exchange on an accepted connection: read a frame, hand it
        to the loop as sent by a peer reachable over this connection,
        and write back the frame the loop sends that peer — the reply,
        whenever its handler settles it.  A frame that asked nothing
        (corrupt, one-way, for a port nobody bound) is hung up on at
        once, a request whose reply is never completed after
        ``REPLY_WAIT_S``."""
        outbox: queue.SimpleQueue = queue.SimpleQueue()

        def answer(frame: Optional[bytes], on_failed: Any) -> None:
            self.host.hosts.pop(name, None)  # loop thread: the one frame this peer is sent
            outbox.put(frame)

        link = _Connection(name, answer)
        try:
            with conn:
                conn.settimeout(REPLY_WAIT_S)
                frame = _recv_frame(conn)
                self.clock.post(self._admit, link, frame)
                reply = outbox.get(timeout=REPLY_WAIT_S)
                if reply is not None:
                    _send_frame(conn, reply)
        except OSError:
            pass  # a broken request, or a requester that went away
        except queue.Empty:
            self.clock.post(self.host.hosts.pop, name, None)  # never answered

    def _admit(self, link: _Connection, frame: bytes) -> None:
        self.host.hosts[link.name] = link
        served = self._requests_served
        self.host.deliver(frame, (link.name, RPC_PORT))
        if self._requests_served == served:
            link.carry(None, None)  # the exchange took no request: no reply is owed

    def _serve_request(self, envelope: dict, source: tuple) -> None:
        self._requests_served += 1  # what _admit holds a connection open for
        super()._serve_request(envelope, source)
