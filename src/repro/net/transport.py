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

#: Largest payload a ``Z`` frame may inflate to.  Well above the
#: biggest object the experiments move (1 MiB), and the bound on what a
#: CRC-valid frame of a few KB can make a receiver allocate.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The coalesced exchange: several requests for one host in one frame,
#: ``{"requests": [{"service", "body"}, ...]}`` answered by
#: ``{"replies": [{"ok", "body"}, ...]}`` in the same order.  Every
#: transport serves it (:meth:`Transport.handle_request`), as every
#: transport reads ``Z`` frames.
BATCH_SERVICE = "rover.batch"
#: Raw request-body bytes one coalesced frame may carry: a backlog of
#: small operations rides together (~14 mail flag updates), a large
#: object rides alone, and a link drop mid-frame wastes a bounded
#: amount of line time.
BATCH_BUDGET_BYTES = 4096
#: Members one frame may hold: what the budget admits of the smallest
#: request bodies the QRPC layer builds (16 B).  Senders stop here and
#: receivers drop a frame that claims more.
MAX_BATCH_MEMBERS = BATCH_BUDGET_BYTES // 16

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


def settle_reply(reply_body: Any, then: Callable[[float, Any], None]) -> None:
    """Run ``then(delay_s, body)`` once a handler's reply is known.

    The one place a carrier interprets what a service handler returned:
    a plain body is known now, a :class:`DelayedReply` is known now and
    owes ``delay_s`` of compute time, an :class:`AsyncReply` is known
    when it completes (with either of the other two).
    """
    if isinstance(reply_body, AsyncReply):
        reply_body.bind(lambda completed: settle_reply(completed, then))
    elif isinstance(reply_body, DelayedReply):
        then(reply_body.delay_s, reply_body.body)
    else:
        then(0.0, reply_body)


def remote_error(body: Any) -> str:
    """The reason carried by the body of a reply that is not ``ok``."""
    body = body or {}
    return body.get("error", "remote error") if isinstance(body, dict) else str(body)


def batch_request(members: list[tuple[str, Any]]) -> dict:
    """The :data:`BATCH_SERVICE` body for ``(service, body)`` members."""
    return {
        "requests": [{"service": service, "body": body} for service, body in members]
    }


def batch_replies(body: Any, count: int) -> Optional[list[tuple[bool, Any]]]:
    """``(ok, body)`` per member of a :data:`BATCH_SERVICE` reply.

    None when the reply does not answer exactly ``count`` members, each
    as a dict: the caller cannot tell which member an entry belongs to,
    so the exchange as a whole is treated as lost.
    """
    replies = body.get("replies") if isinstance(body, dict) else None
    if not isinstance(replies, list) or len(replies) != count:
        return None
    if not all(isinstance(reply, dict) for reply in replies):
        return None
    return [(bool(reply.get("ok")), reply.get("body")) for reply in replies]


class Transport:
    """Per-host object transport.

    One :class:`Transport` is created per host; it owns the host's RPC
    port and hands inbound datagrams to registered handlers.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        obs: Optional[Observatory] = None,
        adapt_to_link: bool = True,
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
        #: False reproduces the paper's prototype, which "does not
        #: perform any compression" and drains one QRPC per exchange:
        #: :meth:`bytes_dominate` then holds on no link, so every frame
        #: takes the path latency-dominated traffic takes anyway.
        #: Receivers understand compressed and coalesced frames
        #: regardless of their own setting.
        self.adapt_to_link = adapt_to_link
        self._m_saved = registry.counter(
            "transport_bytes_saved_by_compression_total",
            "Payload bytes kept off the wire by compressing frames",
            labelnames=("host",),
        ).labels(host=host.name)
        self._m_corrupt = registry.counter(
            "transport_corrupt_frames_total",
            "Inbound frames dropped: bad CRC seal, undecodable, or malformed",
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

    def note_corrupt_frame(self) -> None:
        """Count a frame a layer above found malformed after decoding."""
        self._m_corrupt.inc()

    @property
    def bytes_saved_by_compression(self) -> int:
        return int(self._m_saved.value)

    @property
    def bytes_sent(self) -> int:
        return int(self._m_bytes.value)

    @property
    def messages_sent(self) -> int:
        return int(self._m_messages.value)

    # -- payload framing ---------------------------------------------------

    def bytes_dominate(self, link: Link, nbytes: int) -> bool:
        """True when ``nbytes`` take longer to serialize on ``link``
        than to propagate: bytes are what the sender waits for, so
        spending CPU (compression) or sharing a frame (coalescing) to
        send fewer of them pays.  The one rule both decisions use."""
        spec = link.spec  # one spec call: ``transmit_time``'s arithmetic on it
        return (
            self.adapt_to_link
            and spec.wire_bytes(nbytes) * 8.0 / spec.bandwidth_bps > spec.latency_s
        )

    def _encode_payload(self, value: Any, link: Link) -> bytes:
        raw = marshal(value)
        if self.bytes_dominate(link, len(raw)):
            squeezed = zlib.compress(raw, 6)
            if len(squeezed) < len(raw):
                self._m_saved.inc(len(raw) - len(squeezed))
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
            inflater = zlib.decompressobj()
            try:
                raw = inflater.decompress(body, MAX_FRAME_BYTES)
            except zlib.error as exc:
                raise MarshalError(f"corrupt compressed frame: {exc}") from exc
            if not inflater.eof or inflater.unused_data:
                # Truncated, trailed by garbage, or more than the cap:
                # stop inflating rather than find out how much more.
                raise MarshalError("compressed frame truncated or over the frame cap")
            return unmarshal(raw)
        return unmarshal(body)

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

        Raises :class:`LinkDown` when no usable link exists right now
        (the host has none up, or the ``link`` named refuses the frame).
        With a ``trace`` context, the wire crossing is recorded as a
        ``link.transmit`` span from now (including any wait for the
        serial line) until delivery at the peer.
        """
        chosen = link or self.host.best_link_to(dst)
        if chosen is None:
            raise LinkDown(f"no usable link {self.host.name} -> {dst.name}")
        payload = self._encode_payload(value, chosen)
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
        crashing the host.  ``reply_body`` goes through
        :func:`settle_reply`.  A :data:`BATCH_SERVICE` request is
        unpacked here, so every registered service can be coalesced.
        """
        if service == BATCH_SERVICE:
            return self._handle_batch(body, source)
        handler = self._request_handlers.get(service)
        if handler is None:
            return False, {"error": f"unknown service {service!r}"}
        try:
            return True, handler(body, source)
        except Exception as exc:  # surface remote faults to caller
            return False, {"error": f"{type(exc).__name__}: {exc}"}

    def _handle_batch(self, body: Any, source: Address) -> tuple[bool, Any]:
        """Serve each member of a coalesced frame as if it came alone.

        Every member goes through :meth:`handle_request` (so through
        its service's own at-most-once and conflict handling) and is
        answered in its own slot; the frame's reply leaves when the
        last member's is known, after the members' compute time.  A
        frame that is not a batch at all is dropped whole; a malformed
        member fails alone.
        """
        requests = body.get("requests") if isinstance(body, dict) else None
        if not isinstance(requests, list) or not 0 < len(requests) <= MAX_BATCH_MEMBERS:
            self._m_corrupt.inc()
            return False, {"error": "malformed batch"}
        tracer = self.tracer
        envelope_trace = parse_context(body.get(TRACE_KEY)) if tracer.enabled else None
        replies: list[Any] = [None] * len(requests)
        frame_reply = AsyncReply()
        unsettled = len(requests)
        compute_s = 0.0

        def serve(index: int, member: Any) -> None:
            service = member.get("service") if isinstance(member, dict) else None
            if not isinstance(service, str) or service == BATCH_SERVICE or "body" not in member:
                self._m_corrupt.inc()
                member_body = None
                ok, reply_body = False, {"error": "malformed batch member"}
            else:
                member_body = member["body"]
                ok, reply_body = self.handle_request(service, member_body, source)
            started = self.sim.now + compute_s

            def settled(delay_s: float, final: Any) -> None:
                nonlocal unsettled, compute_s
                # Encoded now: an import reply holds the store's live
                # data by reference, and a later member of this frame
                # may mutate that object before the frame leaves.
                replies[index] = Premarshalled({"ok": ok, "body": final})
                compute_s += delay_s
                unsettled -= 1
                if tracer.enabled and isinstance(member_body, dict):
                    member_trace = parse_context(member_body.get(TRACE_KEY))
                    # The head member's trace already carries the
                    # frame-level server.execute span of
                    # _serve_request; per-member spans go to the
                    # *other* traces riding in this frame.
                    if member_trace is not None and member_trace != envelope_trace:
                        tracer.record(
                            "server.execute",
                            member_trace,
                            start=started,
                            end=max(started, self.sim.now) + delay_s,
                            service=service,
                            host=self.host.name,
                            batched=True,
                        )
                if unsettled == 0:
                    frame_reply.complete(DelayedReply(compute_s, {"replies": replies}))

            settle_reply(reply_body, settled)

        for index, member in enumerate(requests):
            serve(index, member)
        return True, frame_reply

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
        service = envelope.get("service", "")
        ok, reply_body = self.handle_request(service, body, source)
        # A reply is never sent by an incarnation other than the one
        # that served the request: checked when the reply is known (a
        # deferred reply may complete after a crash) and again when the
        # modelled compute time has passed.
        epoch = self._epoch

        def respond(delay_s: float, final: Any) -> None:
            if epoch != self._epoch:
                return
            if trace is not None and self.tracer.enabled:
                # `delay_s` is the modelled server compute time, owed
                # from the moment the reply body is known.
                self.tracer.record(
                    "server.execute",
                    trace,
                    start=started,
                    end=self.sim.now + delay_s,
                    service=service,
                    host=self.host.name,
                    status="ok" if ok else "error",
                )
            reply = {"kind": "reply", "id": envelope.get("id"), "ok": ok, "body": final}
            if delay_s > 0:
                self.sim.schedule(delay_s, self._transmit_reply, epoch, src_host, reply, trace)
            else:
                self._transmit_reply(epoch, src_host, reply, trace)

        settle_reply(reply_body, respond)

    def _transmit_reply(
        self, epoch: int, dst: Host, reply: dict, trace: Optional[tuple[str, str]]
    ) -> None:
        if epoch != self._epoch:
            return  # the incarnation that computed this reply crashed
        try:
            self.send(dst, RPC_PORT, reply, trace=trace)
        except LinkDown:
            pass  # lost reply; the caller's timeout recovers

    def _accept_reply(self, envelope: dict) -> None:
        call_id = envelope.get("id")
        pending = self._pending_calls.pop(call_id, None)
        if pending is None:
            return  # duplicate or expired reply
        pending["timer"].cancel()
        if envelope.get("ok"):
            pending["on_reply"](envelope.get("body"))
        else:
            pending["on_error"](RpcError(remote_error(envelope.get("body"))))


def null_rpc_time(spec: LinkSpec, request_bytes: int, reply_bytes: int) -> float:
    """Analytic round-trip time for a request/reply on an idle link.

    Used by benchmarks to sanity-check simulated latencies.
    """
    return spec.transfer_time(request_bytes) + spec.transfer_time(reply_bytes)
