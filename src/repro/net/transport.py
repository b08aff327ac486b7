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
    marshalled_size,
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
#: What a payload adds to its marshalled (or deflated) value: the CRC32
#: seal and the marker.
FRAMING_BYTES = len(seal(_RAW))

#: Largest payload a ``Z`` frame may inflate to.  Well above the
#: biggest object the experiments move (1 MiB), and the bound on what a
#: CRC-valid frame of a few KB can make a receiver allocate.  No
#: coalesced frame marshals to more.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The coalesced exchange: several requests for one host in one frame,
#: ``{"requests": [{"service", "body"}, ...]}`` answered by
#: ``{"replies": [{"ok", "body"}, ...]}`` in the same order (``ok`` is
#: always true, as in a reply envelope: a fault is the body).  Every
#: transport serves it (:meth:`Transport.handle_request`), as every
#: transport reads ``Z`` frames.
BATCH_SERVICE = "rover.batch"
#: Bytes a coalesced frame of two or more members may put on the line:
#: its sealed payload, after the deflate :meth:`Transport.send` applies.
#: A session's whole reconnect backlog of mail flag updates (31 to 39
#: exports on ``mail_slowlink``, 8-10 KB marshalled) leaves in one frame
#: of ~0.6 KB, an object that deflates past the budget rides alone, and
#: a link drop mid-frame wastes at most 4 KiB of line time (2.3 s on
#: CSLIP-14.4).
BATCH_BUDGET_BYTES = 4096
#: Members one frame may hold.  Senders stop here and receivers drop a
#: frame that claims more.
MAX_BATCH_MEMBERS = 256
#: The zlib level of every deflated frame.
DEFLATE_LEVEL = 6

# The well-known port the request/reply exchange listens on.
RPC_PORT = 530

MessageHandler = Callable[[Any, Address], None]
RequestHandler = Callable[[Any, Address], Any]


class RpcError(Exception):
    """A call got no answer: no route, a lost frame, or a timeout.  A
    fault the far side knows of is an answer (:func:`error_answer`)."""


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


def error_answer(exc: Exception) -> dict:
    """The answer to a request whose fault the far side knows of: a
    handler that raised, no such service, a malformed batch member, a
    reply the codec refused.  Only silence is a failure; this is a
    reply like any other."""
    return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def batch_request(
    members: list[tuple[str, Any]], trace: Optional[tuple[str, str]] = None
) -> dict:
    """The :data:`BATCH_SERVICE` body for ``(service, body)`` members,
    carrying ``trace``'s context."""
    body: dict = {
        "requests": [{"service": service, "body": body} for service, body in members]
    }
    if trace is not None:
        body[TRACE_KEY] = list(trace)
    return body


def _request_envelope(call_id: str, service: str, request: Any) -> dict:
    """What :meth:`Transport.call` sends (built inline there)."""
    return {"kind": "request", "id": call_id, "service": service, "body": request}


#: A :data:`BATCH_SERVICE` request's payload with no members, marshalled
#: and sealed, less its texts' lengths and text (its call id, and its
#: trace context if it has one: the second entry).
_EMPTY_BATCH_BYTES = tuple(
    FRAMING_BYTES + marshalled_size(_request_envelope("", BATCH_SERVICE, body)) - texts
    for texts, body in ((1, batch_request([])), (3, batch_request([], ("", ""))))
)
#: A member's entry, marshalled, less its service name's length and
#: text and its body.
_ENTRY_BYTES = (
    marshalled_size(batch_request([("", None)])) - marshalled_size(batch_request([]))
    - 1 - marshalled_size(None)
)


def batch_replies(body: Any, count: int) -> Optional[list[Any]]:
    """The answer to each member of a :data:`BATCH_SERVICE` reply.

    None when the reply does not answer exactly ``count`` members, each
    as a dict: the caller cannot tell which member an entry belongs to,
    so the exchange as a whole is treated as lost.
    """
    replies = body.get("replies") if isinstance(body, dict) else None
    if not isinstance(replies, list) or len(replies) != count:
        return None
    if not all(isinstance(reply, dict) for reply in replies):
        return None
    return [reply.get("body") for reply in replies]


class Transport:
    """Per-host object transport.

    One :class:`Transport` is created per host; it owns the host's RPC
    port and hands inbound datagrams to registered handlers.
    """

    METRICS = (
        ("transport_bytes_sent_total", "counter",
         "Marshalled payload bytes handed to links", "bytes_sent"),
        ("transport_messages_sent_total", "counter", "Payloads handed to links", "messages_sent"),
        ("transport_bytes_saved_by_compression_total", "counter",
         "Payload bytes kept off the wire by compressing frames", "bytes_saved_by_compression"),
        ("transport_corrupt_frames_total", "counter",
         "Inbound frames dropped: bad CRC seal, undecodable, or malformed",
         "corrupt_frames_detected"),
        ("marshal_cache_hits_total", "counter",
         "Request bodies transmitted from pre-marshalled bytes", "marshal_cache_hits"),
    )

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
        #: Payload bytes and payloads handed to links, bumped by
        #: :meth:`send`; the other counts of :attr:`METRICS` likewise.
        self.bytes_sent = 0
        self.messages_sent = 0
        self.bytes_saved_by_compression = 0
        self.corrupt_frames_detected = 0
        self.marshal_cache_hits = 0
        #: False reproduces the paper's prototype, which "does not
        #: perform any compression" and drains one QRPC per exchange:
        #: :meth:`bytes_dominate` then holds on no link, so every frame
        #: takes the path latency-dominated traffic takes anyway.
        #: Receivers understand compressed and coalesced frames
        #: regardless of their own setting.
        self.adapt_to_link = adapt_to_link
        self.obs.registry.expose(self, {"host": host.name})
        #: Incremented by :meth:`crash`; replies computed by a dead
        #: incarnation are suppressed when their epoch is stale.
        self._epoch = 0
        host.bind(RPC_PORT, self._on_rpc_datagram)

    def note_corrupt_frame(self) -> None:
        """Count a frame a layer above found malformed after decoding."""
        self.corrupt_frames_detected += 1

    # -- payload framing ---------------------------------------------------

    def bytes_dominate(self, link: Link, nbytes: int) -> bool:
        """True when ``nbytes`` take longer to serialize on ``link``
        than to propagate: bytes are what the sender waits for, so
        spending CPU (compression) or sharing a frame (coalescing) to
        send fewer of them pays.  The one rule both decisions use."""
        return self.adapt_to_link and nbytes >= link.spec.bytes_dominate_from

    def _encode_payload(self, value: Any, link: Link) -> bytes:
        raw = marshal(value)
        # :meth:`bytes_dominate`, inline: a comparison per frame, no call.
        if self.adapt_to_link and len(raw) >= link.spec.bytes_dominate_from:
            squeezed = zlib.compress(raw, DEFLATE_LEVEL)
            if len(squeezed) < len(raw):
                self.bytes_saved_by_compression += len(raw) - len(squeezed)
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
                self.corrupt_frames_detected += 1
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
        self.bytes_sent += len(payload)
        self.messages_sent += 1
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

        ``on_reply`` gets whatever the far side answered, an
        :func:`error_answer` included; ``on_error`` runs only when no
        answer came (the frame was lost, or the timeout ran out).
        Raises :class:`RpcError` when there is no route right now.
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

        # ``_request_envelope``'s dict, built inline: a call less per request.
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
            self.marshal_cache_hits += 1
        try:
            self.send(dst, RPC_PORT, envelope, link=link, on_failed=failed, trace=trace)
        except LinkDown as exc:
            pending = self._pending_calls.pop(call_id, None)
            if pending is not None:
                pending["timer"].cancel()
            raise RpcError(str(exc)) from exc
        return call_id

    def call_bytes(self, service: str, request: Any, link: Link) -> int:
        """The bytes the next :meth:`call` of ``service`` with ``request``
        puts on ``link``: its payload, encoded as :meth:`send` will."""
        call_id = f"{self.host.name}:{self._next_call_id}"
        raw = marshal(_request_envelope(call_id, service, request))
        if self.bytes_dominate(link, len(raw)):
            return FRAMING_BYTES + min(len(raw), len(zlib.compress(raw, DEFLATE_LEVEL)))
        return FRAMING_BYTES + len(raw)

    def batch_sizes(
        self, trace: Optional[tuple[str, str]], members: list[tuple[str, int]]
    ) -> list[int]:
        """The sizes, marshalled and sealed, of the payloads the next
        :meth:`call` of a :data:`BATCH_SERVICE` request with ``trace``'s
        context would send with each prefix of ``members`` (a service
        and its body's marshalled size each), one member first.
        Counted as the codec counts, without encoding: a text is its
        UTF-8 bytes after their count, a varint, and the member list's
        count takes a second byte at 128."""
        size = _EMPTY_BATCH_BYTES[trace is not None]
        for text in (f"{self.host.name}:{self._next_call_id}", *(trace or ())):
            n = len(text.encode())
            size += n + ((n.bit_length() + 6) // 7 or 1)
        sizes = []
        for count, (service, body_bytes) in enumerate(members, 1):
            n = len(service.encode())
            size += _ENTRY_BYTES + n + ((n.bit_length() + 6) // 7 or 1) + body_bytes
            size += count == 128
            sizes.append(size)
        return sizes

    def call_blocking(
        self,
        dst: Host,
        service: str,
        request: Any,
        timeout: float = 60.0,
    ) -> Any:
        """Run the simulator until the reply arrives; return the result.

        This is the conventional-RPC baseline: the "application" makes
        no progress while the call is outstanding.  Raises
        :class:`RpcError` when no answer came.
        """
        outcome: dict[str, Any] = {}

        def on_reply(value: Any) -> None:
            outcome["value"] = value

        def on_error(error: RpcError) -> None:
            outcome["error"] = error

        self.call(dst, service, request, on_reply, on_error, timeout=timeout)
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
            self.corrupt_frames_detected += 1
            return  # corrupt frame: detected and dropped, retransmit recovers
        if not isinstance(envelope, dict):
            self.corrupt_frames_detected += 1
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

    def handle_request(self, service: str, body: Any, source: Address) -> Any:
        """Dispatch a request to the local service table and return the
        answer, which goes through :func:`settle_reply`.

        Shared by every carrier that can deliver requests to this host
        (direct RPC port, SMTP relay).  No such service, or a handler
        that raises, is answered with :func:`error_answer` rather than
        crashing the host.  A :data:`BATCH_SERVICE` request is unpacked
        here, so every registered service can be coalesced.
        """
        if service == BATCH_SERVICE:
            return self._handle_batch(body, source)
        handler = self._request_handlers.get(service)
        if handler is None:
            return error_answer(LookupError(f"unknown service {service!r}"))
        try:
            return handler(body, source)
        except Exception as exc:
            return error_answer(exc)

    def _handle_batch(self, body: Any, source: Address) -> Any:
        """Serve each member of a coalesced frame as if it came alone.

        Every member goes through :meth:`handle_request` (so through
        its service's own at-most-once and conflict handling) and is
        answered in its own slot; the frame's reply leaves when the
        last member's is known, after the members' compute time.  A
        frame that is not a batch at all is answered as a whole; a
        malformed member, or one whose reply the codec refuses, in its
        own slot.
        """
        requests = body.get("requests") if isinstance(body, dict) else None
        if not isinstance(requests, list) or not 0 < len(requests) <= MAX_BATCH_MEMBERS:
            self.corrupt_frames_detected += 1
            return error_answer(ValueError("malformed batch"))
        tracer = self.tracer
        envelope_trace = parse_context(body.get(TRACE_KEY)) if tracer.enabled else None
        replies: list[Any] = [None] * len(requests)
        frame_reply = AsyncReply()
        unsettled = len(requests)
        compute_s = 0.0

        def serve(index: int, member: Any) -> None:
            service = member.get("service") if isinstance(member, dict) else None
            if not isinstance(service, str) or service == BATCH_SERVICE or "body" not in member:
                self.corrupt_frames_detected += 1
                member_body = None
                reply_body = error_answer(ValueError("malformed batch member"))
            else:
                member_body = member["body"]
                reply_body = self.handle_request(service, member_body, source)
            started = self.sim.now + compute_s

            def settled(delay_s: float, final: Any) -> None:
                nonlocal unsettled, compute_s
                # Encoded now: an import reply holds the store's live
                # data by reference, and a later member of this frame
                # may mutate that object before the frame leaves.
                try:
                    replies[index] = Premarshalled({"ok": True, "body": final})
                except MarshalError as exc:
                    replies[index] = Premarshalled({"ok": True, "body": error_answer(exc)})
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
        return frame_reply

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
        reply_body = self.handle_request(service, body, source)
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
                )
            # ``ok`` is a constant of the wire format: what went wrong,
            # if anything, is the body's ``status``.
            reply = {"kind": "reply", "id": envelope.get("id"), "ok": True, "body": final}
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
        except MarshalError as exc:  # nothing was sent: answer the fault
            self._transmit_reply(epoch, dst, {**reply, "body": error_answer(exc)}, trace)
        except LinkDown:
            pass  # lost reply; the caller's timeout recovers

    def _accept_reply(self, envelope: dict) -> None:
        call_id = envelope.get("id")
        pending = self._pending_calls.pop(call_id, None)
        if pending is None:
            return  # duplicate or expired reply
        pending["timer"].cancel()
        pending["on_reply"](envelope.get("body"))


def null_rpc_time(spec: LinkSpec, request_bytes: int, reply_bytes: int) -> float:
    """Analytic round-trip time for a request/reply on an idle link.

    Used by benchmarks to sanity-check simulated latencies.
    """
    return spec.transfer_time(request_bytes) + spec.transfer_time(reply_bytes)
