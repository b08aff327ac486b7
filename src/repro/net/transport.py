"""Object-level messaging and request/reply RPC.

The transport sits between raw links and the Rover layers above:

* :class:`Transport` marshals Python values, picks a link to the
  destination host, and delivers to a bound port on the far side.
* :meth:`Transport.call` adds request/reply correlation with timeouts —
  a conventional *blocking* RPC in the Birrell/Nelson sense.  Rover's
  QRPC is built on top of this in :mod:`repro.core.qrpc`; the blocking
  form also serves as the paper's baseline ("non-queued RPC") in the
  benchmarks.

Replies travel back over the same link that carried the request, so a
reply can fail independently if the link drops in between — exactly
the window that makes at-most-once duplicate suppression necessary at
the QRPC layer.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Optional

from repro.net.link import LinkSpec
from repro.net.message import (
    MarshalError,
    Premarshalled,
    marshal,
    seal,
    unmarshal,
    unseal,
)
from repro.net.simnet import Address, Host, Link, LinkDown
from repro.obs import Observatory
from repro.obs.trace import TRACE_KEY, parse_context
from repro.sim import Simulator

# One-byte framing marker ahead of every transport payload.
_RAW = b"R"
_COMPRESSED = b"Z"

# Well-known ports.
RPC_PORT = 530
HTTP_PORT = 80
SMTP_PORT = 25

MessageHandler = Callable[[Any, Address], None]
RequestHandler = Callable[[Any, Address], Any]


class RpcError(Exception):
    """A call failed (link down, lost, or remote error)."""


class RpcTimeout(RpcError):
    """No reply arrived within the timeout."""


class DelayedReply:
    """A service handler's way to charge virtual compute time.

    Returning ``DelayedReply(0.030, body)`` makes the carrier transmit
    ``body`` 30 virtual milliseconds after the request was dispatched —
    modelling server-side execution (e.g. running a shipped RDO).
    """

    __slots__ = ("delay_s", "body")

    def __init__(self, delay_s: float, body: Any) -> None:
        self.delay_s = delay_s
        self.body = body


class AsyncReply:
    """A service handler's way to defer its reply past its own return.

    A handler that cannot answer until some later simulator event (the
    replication layer waiting for backup acknowledgements) returns an
    ``AsyncReply``; whoever holds it calls :meth:`complete` when the
    reply body is finally known.  The carrier that dispatched the
    request binds a sink to transmit the body; completion and binding
    may happen in either order.  A reply that is *never* completed is a
    reply that was never sent — the caller's timeout handles it, which
    is exactly the semantics a deposed primary needs.
    """

    __slots__ = ("_sink", "_done", "_body")

    def __init__(self) -> None:
        self._sink: Optional[Callable[[Any], None]] = None
        self._done = False
        self._body: Any = None

    @property
    def completed(self) -> bool:
        return self._done

    def complete(self, body: Any) -> None:
        """Supply the reply body; idempotent (first completion wins)."""
        if self._done:
            return
        self._done = True
        self._body = body
        if self._sink is not None:
            sink, self._sink = self._sink, None
            sink(body)

    def bind(self, sink: Callable[[Any], None]) -> None:
        """Attach the transmit path; fires immediately if already done."""
        if self._done:
            sink(self._body)
        else:
            self._sink = sink


class Transport:
    """Per-host object transport.

    One :class:`Transport` is created per host; it owns the host's RPC
    port and hands inbound datagrams to registered handlers.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        compress_threshold: Optional[int] = None,
        obs: Optional[Observatory] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self._handlers: dict[int, MessageHandler] = {}
        self._request_handlers: dict[str, RequestHandler] = {}
        self._next_call_id = 0
        self._pending_calls: dict[str, dict[str, Any]] = {}
        self.obs = obs if obs is not None else Observatory()
        self.tracer = self.obs.tracer
        registry = self.obs.registry
        self._m_bytes = registry.counter(
            "transport_bytes_sent_total",
            "Marshalled payload bytes handed to links",
            labelnames=("host",),
        ).labels(host=host.name)
        self._m_messages = registry.counter(
            "transport_messages_sent_total",
            "Payloads handed to links",
            labelnames=("host",),
        ).labels(host=host.name)
        #: Compress payloads larger than this many marshalled bytes
        #: (None disables — the paper's prototype choice).  Receivers
        #: always understand compressed frames regardless of their own
        #: setting, so the option can be enabled per host.
        self.compress_threshold = compress_threshold
        self.bytes_saved_by_compression = 0
        self._m_corrupt = registry.counter(
            "transport_corrupt_frames_total",
            "Inbound frames dropped for failing their CRC seal",
            labelnames=("host",),
        ).labels(host=host.name)
        self._m_marshal_hits = registry.counter(
            "marshal_cache_hits_total",
            "Request bodies transmitted from pre-marshalled bytes",
            labelnames=("host",),
        ).labels(host=host.name)
        #: Incremented by :meth:`crash`; replies computed by a dead
        #: incarnation are suppressed when their epoch is stale.
        self._epoch = 0
        host.bind(RPC_PORT, self._on_rpc_datagram)

    @property
    def corrupt_frames_detected(self) -> int:
        return int(self._m_corrupt.value)

    @property
    def bytes_sent(self) -> int:
        return int(self._m_bytes.value)

    @property
    def messages_sent(self) -> int:
        return int(self._m_messages.value)

    # -- payload framing ---------------------------------------------------

    def _encode_payload(self, value: Any) -> bytes:
        raw = marshal(value)
        if (
            self.compress_threshold is not None
            and len(raw) > self.compress_threshold
        ):
            squeezed = zlib.compress(raw, level=6)
            if len(squeezed) + 1 < len(raw):
                self.bytes_saved_by_compression += len(raw) - len(squeezed) - 1
                return seal(_COMPRESSED + squeezed)
        return seal(_RAW + raw)

    @staticmethod
    def _decode_payload(payload: bytes) -> Any:
        # unseal() hands back a zero-copy view; slicing the marker off
        # is another view, so the frame is only copied where the
        # decoder materializes payload bytes into the result.
        payload = unseal(payload)
        marker, body = payload[:1], payload[1:]
        if marker == _COMPRESSED:
            try:
                raw = zlib.decompress(body)
            except zlib.error as exc:
                raise MarshalError(f"corrupt compressed frame: {exc}") from exc
            return unmarshal(raw)
        return unmarshal(body)

    # -- link selection --------------------------------------------------

    def usable_links(self, dst: Host) -> list[Link]:
        """Links to ``dst`` that are currently up, best bandwidth first."""
        links = [link for link in self.host.links_to(dst) if link.is_up]
        links.sort(key=lambda link: -link.spec.bandwidth_bps)
        return links

    def best_link(self, dst: Host) -> Optional[Link]:
        links = self.usable_links(dst)
        return links[0] if links else None

    # -- datagram layer ---------------------------------------------------

    def listen(self, port: int, handler: MessageHandler) -> None:
        """Receive unmarshalled objects sent to ``port`` on this host."""
        if port == RPC_PORT:
            raise ValueError(f"port {RPC_PORT} is reserved for RPC")
        self._handlers[port] = handler
        self.host.bind(port, self._make_port_dispatcher(port))

    def _make_port_dispatcher(self, port: int) -> Callable[[bytes, Address], None]:
        def dispatch(payload: bytes, source: Address) -> None:
            handler = self._handlers.get(port)
            if handler is None:
                return
            try:
                value = self._decode_payload(payload)
            except MarshalError:
                self._m_corrupt.inc()
                return  # corrupt frame: detected and dropped
            handler(value, source)

        return dispatch

    def send(
        self,
        dst: Host,
        port: int,
        value: Any,
        link: Optional[Link] = None,
        on_failed: Optional[Callable[[str], None]] = None,
        src_port: int = RPC_PORT,
        trace: Optional[tuple[str, str]] = None,
    ) -> int:
        """Marshal and transmit ``value``; returns payload size in bytes.

        Raises :class:`LinkDown` when no usable link exists right now.
        With a ``trace`` context, the wire crossing is recorded as a
        ``link.transmit`` span from now (including any wait for the
        serial line) until delivery at the peer.
        """
        chosen = link or self.best_link(dst)
        if chosen is None or not chosen.is_up:
            raise LinkDown(f"no usable link {self.host.name} -> {dst.name}")
        payload = self._encode_payload(value)
        arrival = chosen.send(
            self.host, port, payload, on_failed=on_failed, src_port=src_port
        )
        if trace is not None and self.tracer.enabled:
            self.tracer.record(
                "link.transmit",
                trace,
                start=self.sim.now,
                end=arrival,
                # "wire", not "link": the scope-level "link" attr names
                # the network *config* (summary grouping key); this one
                # names the physical hop the bytes took.
                wire=chosen.name,
                bytes=len(payload),
                src=self.host.name,
                dst=dst.name,
            )
        self._m_bytes.inc(len(payload))
        self._m_messages.inc()
        return len(payload)

    # -- request/reply (blocking RPC baseline) ----------------------------

    def register(self, service: str, handler: RequestHandler) -> None:
        """Expose ``handler`` as a callable remote service on this host."""
        self._request_handlers[service] = handler

    def call(
        self,
        dst: Host,
        service: str,
        request: Any,
        on_reply: Callable[[Any], None],
        on_error: Callable[[RpcError], None],
        timeout: float = 60.0,
        link: Optional[Link] = None,
    ) -> str:
        """Issue an RPC; exactly one of the callbacks will run.

        Returns the call id (useful for correlating in logs).
        """
        call_id = f"{self.host.name}:{self._next_call_id}"
        self._next_call_id += 1

        def expire() -> None:
            pending = self._pending_calls.pop(call_id, None)
            if pending is not None:
                on_error(RpcTimeout(f"call {call_id} to {service} timed out"))

        timer = self.sim.schedule(timeout, expire)
        self._pending_calls[call_id] = {
            "on_reply": on_reply,
            "on_error": on_error,
            "timer": timer,
        }

        envelope = {
            "kind": "request",
            "id": call_id,
            "service": service,
            "body": request,
        }

        def failed(reason: str) -> None:
            pending = self._pending_calls.pop(call_id, None)
            if pending is not None:
                pending["timer"].cancel()
                on_error(RpcError(f"call {call_id} failed: {reason}"))

        trace = (
            parse_context(request[TRACE_KEY])
            if isinstance(request, dict) and TRACE_KEY in request
            else None
        )
        if isinstance(request, Premarshalled):
            self._m_marshal_hits.inc()
        try:
            self.send(dst, RPC_PORT, envelope, link=link, on_failed=failed, trace=trace)
        except LinkDown as exc:
            pending = self._pending_calls.pop(call_id, None)
            if pending is not None:
                pending["timer"].cancel()
            raise RpcError(str(exc)) from exc
        return call_id

    def call_blocking(
        self,
        dst: Host,
        service: str,
        request: Any,
        timeout: float = 60.0,
        link: Optional[Link] = None,
    ) -> Any:
        """Run the simulator until the reply arrives; return the result.

        This is the conventional-RPC baseline: the "application" makes
        no progress while the call is outstanding.  Raises
        :class:`RpcError` on failure or timeout.
        """
        outcome: dict[str, Any] = {}

        def on_reply(value: Any) -> None:
            outcome["value"] = value

        def on_error(error: RpcError) -> None:
            outcome["error"] = error

        self.call(dst, service, request, on_reply, on_error, timeout=timeout, link=link)
        self.sim.run_until(lambda: bool(outcome))
        if "error" in outcome:
            raise outcome["error"]
        if "value" not in outcome:
            raise RpcTimeout(f"simulation drained before reply from {service}")
        return outcome["value"]

    def _on_rpc_datagram(self, payload: bytes, source: Address) -> None:
        try:
            envelope = self._decode_payload(payload)
        except MarshalError:
            self._m_corrupt.inc()
            return  # corrupt frame: detected and dropped, retransmit recovers
        if not isinstance(envelope, dict):
            self._m_corrupt.inc()
            return
        kind = envelope.get("kind")
        if kind == "request":
            self._serve_request(envelope, source)
        elif kind == "reply":
            self._accept_reply(envelope)

    def crash(self) -> None:
        """Drop per-process transport state for a simulated crash.

        Cancels every pending call's timeout timer (their callbacks
        belong to the dead incarnation), forgets the calls, and bumps
        the epoch so replies already computed by handlers of the old
        incarnation are never transmitted.  Port bindings live on the
        :class:`Host` and are the crashing process's concern (see
        ``Host.take_ports``).
        """
        for pending in self._pending_calls.values():
            pending["timer"].cancel()
        self._pending_calls.clear()
        self._epoch += 1

    def handle_request(self, service: str, body: Any, source: Address) -> tuple[bool, Any]:
        """Dispatch a request to the local service table.

        Shared by every carrier that can deliver requests to this host
        (direct RPC port, SMTP relay).  Returns ``(ok, reply_body)``;
        handler exceptions are captured as error replies rather than
        crashing the host.
        """
        handler = self._request_handlers.get(service)
        if handler is None:
            return False, {"error": f"unknown service {service!r}"}
        try:
            return True, handler(body, source)
        except Exception as exc:  # surface remote faults to caller
            return False, {"error": f"{type(exc).__name__}: {exc}"}

    def _serve_request(self, envelope: dict, source: Address) -> None:
        src_host = self.host.network.hosts.get(source[0])
        if src_host is None:
            return
        body = envelope.get("body")
        trace = (
            parse_context(body[TRACE_KEY])
            if isinstance(body, dict) and TRACE_KEY in body
            else None
        )
        started = self.sim.now
        ok, reply_body = self.handle_request(
            envelope.get("service", ""), body, source
        )
        if isinstance(reply_body, AsyncReply):
            # The handler will answer later (e.g. once replication
            # reaches quorum); bind the transmit path and return.  The
            # epoch fence still applies at completion time, so a reply
            # completed by a dead incarnation is never sent.
            epoch = self._epoch
            call_id = envelope.get("id")
            service = envelope.get("service", "")

            def finish(completed_body: Any) -> None:
                if epoch != self._epoch:
                    return  # the incarnation that served this crashed
                delay_s = 0.0
                final = completed_body
                if isinstance(final, DelayedReply):
                    delay_s = final.delay_s
                    final = final.body
                if trace is not None and self.tracer.enabled:
                    self.tracer.record(
                        "server.execute",
                        trace,
                        start=started,
                        end=self.sim.now + delay_s,
                        service=service,
                        host=self.host.name,
                        status="ok",
                    )
                reply_envelope = {
                    "kind": "reply",
                    "id": call_id,
                    "ok": True,
                    "body": final,
                }

                def transmit_async() -> None:
                    if epoch != self._epoch:
                        return
                    try:
                        self.send(src_host, RPC_PORT, reply_envelope, trace=trace)
                    except LinkDown:
                        pass  # lost reply; the caller's timeout recovers

                if delay_s > 0:
                    self.sim.schedule(delay_s, transmit_async)
                else:
                    transmit_async()

            reply_body.bind(finish)
            return
        delay = 0.0
        if isinstance(reply_body, DelayedReply):
            delay = reply_body.delay_s
            reply_body = reply_body.body
        if trace is not None and self.tracer.enabled:
            # Handler ran synchronously at `started`; DelayedReply's
            # delay is the modelled server compute time.
            self.tracer.record(
                "server.execute",
                trace,
                start=started,
                end=started + delay,
                service=envelope.get("service", ""),
                host=self.host.name,
                status="ok" if ok else "error",
            )
        reply = {
            "kind": "reply",
            "id": envelope.get("id"),
            "ok": ok,
            "body": reply_body,
        }
        epoch = self._epoch

        def transmit() -> None:
            if epoch != self._epoch:
                return  # the incarnation that computed this reply crashed
            try:
                self.send(src_host, RPC_PORT, reply, trace=trace)
            except LinkDown:
                # The reply is lost; the caller's timeout handles it.
                pass

        if delay > 0:
            self.sim.schedule(delay, transmit)
        else:
            transmit()

    def _accept_reply(self, envelope: dict) -> None:
        call_id = envelope.get("id")
        pending = self._pending_calls.pop(call_id, None)
        if pending is None:
            return  # duplicate or expired reply
        pending["timer"].cancel()
        if envelope.get("ok"):
            pending["on_reply"](envelope.get("body"))
        else:
            body = envelope.get("body") or {}
            message = body.get("error", "remote error") if isinstance(body, dict) else str(body)
            pending["on_error"](RpcError(message))


def null_rpc_time(spec: LinkSpec, request_bytes: int, reply_bytes: int) -> float:
    """Analytic round-trip time for a request/reply on an idle link.

    Used by benchmarks to sanity-check simulated latencies.
    """
    return spec.transfer_time(request_bytes) + spec.transfer_time(reply_bytes)
