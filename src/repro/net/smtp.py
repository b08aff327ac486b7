"""SMTP-style queued transport.

The paper: *"SMTP allows Rover to exploit E-mail for queued
communication"* — requests and replies ride through the mail
infrastructure, so the two endpoints never need to be connected at the
same time.  We model the minimum that preserves those semantics:

* a :class:`MailRelay` host that accepts, spools (persistently counts),
  and forwards messages whenever a link to the recipient is up;
* a :class:`Mailbox` per endpoint for sending and receiving mail;
* a :class:`MailRoute` plugging mail delivery into the
  :class:`~repro.net.scheduler.NetworkScheduler` as a connectionless
  route: requests go out as mail, the server answers with mail, and
  the pending-reply table correlates them by id.  The relay taking
  custody frees the scheduler's in-flight window (``on_accepted``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.net.scheduler import Route, RouteKind
from repro.net.simnet import Address, Host, Link
from repro.net.transport import RpcError, Transport, remote_error, settle_reply
from repro.sim import Simulator

SUBMIT_SERVICE = "smtp.submit"
DELIVER_SERVICE = "smtp.deliver"


class MailRelay:
    """Store-and-forward spool on its own host.

    The relay keeps one FIFO spool per destination host and drains it
    whenever a link to that host comes up.
    """

    def __init__(self, sim: Simulator, transport: Transport) -> None:
        self.sim = sim
        self.transport = transport
        self.host = transport.host
        self._spool: dict[str, list[dict]] = {}
        self._forwarding: set[str] = set()
        self.accepted = 0
        self.forwarded = 0
        transport.register(SUBMIT_SERVICE, self._on_submit)
        for link in self.host.links:
            link.on_transition(self._on_link_transition)

    def watch_new_links(self) -> None:
        """Re-subscribe after links were added post-construction."""
        for link in self.host.links:
            link.on_transition(self._on_link_transition)

    def spooled(self, dst_name: Optional[str] = None) -> int:
        if dst_name is not None:
            return len(self._spool.get(dst_name, []))
        return sum(len(queue) for queue in self._spool.values())

    def _on_submit(self, body: Any, source: Address) -> Any:
        dst_name = body["to"]
        self._spool.setdefault(dst_name, []).append(body)
        self.accepted += 1
        self.sim.schedule(0.0, self._try_forward, dst_name)
        return {"spooled": True}

    def _on_link_transition(self, link: Link, is_up: bool) -> None:
        if not is_up:
            return
        peer = link.host_b if link.host_a is self.host else link.host_a
        self._try_forward(peer.name)

    def _try_forward(self, dst_name: str) -> None:
        if dst_name in self._forwarding:
            return
        queue = self._spool.get(dst_name)
        if not queue:
            return
        dst = self.host.network.hosts.get(dst_name)
        if dst is None or self.host.best_link_to(dst) is None:
            return
        self._forwarding.add(dst_name)
        mail = queue[0]

        def done(reply: Any) -> None:
            self._forwarding.discard(dst_name)
            if queue and queue[0] is mail:
                queue.pop(0)
                self.forwarded += 1
            self._try_forward(dst_name)

        def failed(error: RpcError) -> None:
            # Leave the mail spooled; a later link-up retries it.
            self._forwarding.discard(dst_name)

        try:
            self.transport.call(dst, DELIVER_SERVICE, mail, done, failed)
        except RpcError:
            self._forwarding.discard(dst_name)


class Mailbox:
    """An endpoint's interface to the mail system."""

    def __init__(self, sim: Simulator, transport: Transport, relay: Host) -> None:
        self.sim = sim
        self.transport = transport
        self.relay = relay
        self._handlers: list[Callable[[Any, str], None]] = []
        self.sent = 0
        self.received = 0
        transport.register(DELIVER_SERVICE, self._on_deliver)

    def on_mail(self, handler: Callable[[Any, str], None]) -> None:
        """Register ``handler(body, from_host_name)`` for inbound mail."""
        self._handlers.append(handler)

    def send(
        self,
        dst_name: str,
        body: Any,
        on_spooled: Optional[Callable[[], None]] = None,
        on_error: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Hand a message to the relay (requires a live link to it)."""
        mail = {"to": dst_name, "from": self.transport.host.name, "body": body}

        def spooled(reply: Any) -> None:
            self.sent += 1
            if on_spooled is not None:
                on_spooled()

        def failed(error: RpcError) -> None:
            if on_error is not None:
                on_error(str(error))

        try:
            self.transport.call(self.relay, SUBMIT_SERVICE, mail, spooled, failed)
        except RpcError as exc:
            if on_error is not None:
                on_error(str(exc))

    def _on_deliver(self, mail: Any, source: Address) -> Any:
        self.received += 1
        body = mail.get("body")
        sender = mail.get("from", "")
        for handler in list(self._handlers):
            handler(body, sender)
        return {"delivered": True}


class MailRoute(Route):
    """Scheduler route that carries request/reply over the mail system.

    Low quality (used only when nothing better is up, or on explicit
    QoS request) but available whenever the *relay* is reachable, even
    if the destination itself is not.
    """

    name = "smtp"
    quality = 1.0  # always worse than any live direct link
    kind = RouteKind.QUEUED

    def __init__(self, sim: Simulator, mailbox: Mailbox) -> None:
        self.sim = sim
        self.mailbox = mailbox
        self._next_id = 0
        self._pending: dict[str, tuple[Callable[[Any], None], Callable[[str], None]]] = {}
        mailbox.on_mail(self._on_mail)

    def available(self, dst: Host) -> bool:
        return self.first_hop(dst) is not None

    def first_hop(self, dst: Host) -> Optional[Link]:
        return self.mailbox.transport.host.best_link_to(self.mailbox.relay)

    def send(
        self,
        dst: Host,
        service: str,
        body: Any,
        on_reply: Callable[[Any], None],
        on_error: Callable[[str], None],
        on_accepted: Callable[[], None],
    ) -> None:
        mail_id = f"{self.mailbox.transport.host.name}:mail:{self._next_id}"
        self._next_id += 1
        self._pending[mail_id] = (on_reply, on_error)
        request = {
            "kind": "qrpc-request",
            "id": mail_id,
            "service": service,
            "body": body,
            "reply_to": self.mailbox.transport.host.name,
        }

        def spooled() -> None:
            on_accepted()

        def failed(reason: str) -> None:
            self._pending.pop(mail_id, None)
            on_error(reason)

        self.mailbox.send(dst.name, request, on_spooled=spooled, on_error=failed)

    def _on_mail(self, body: Any, sender: str) -> None:
        if not isinstance(body, dict) or body.get("kind") != "qrpc-reply":
            return
        pending = self._pending.pop(body.get("id"), None)
        if pending is None:
            return
        on_reply, on_error = pending
        if body.get("ok", True):
            on_reply(body.get("body"))
        else:
            on_error(remote_error(body.get("body")))


class MailRpcEndpoint:
    """Server-side adapter: executes mailed requests, mails back replies.

    Install on any host that should serve QRPCs arriving by mail; it
    dispatches into the same service table the direct RPC port uses.
    """

    def __init__(self, sim: Simulator, transport: Transport, mailbox: Mailbox) -> None:
        self.sim = sim
        self.transport = transport
        self.mailbox = mailbox
        self.served = 0
        mailbox.on_mail(self._on_mail)

    def _on_mail(self, body: Any, sender: str) -> None:
        if not isinstance(body, dict) or body.get("kind") != "qrpc-request":
            return
        source: Address = (sender, 0)
        ok, reply_body = self.transport.handle_request(
            body.get("service", ""), body.get("body"), source
        )
        self.served += 1

        # Reply goes back through the relay; if the relay is unreachable
        # right now the reply is simply retried by the application's
        # QRPC retransmission, so best-effort is fine here.
        def respond(delay_s: float, final: Any) -> None:
            reply = {"kind": "qrpc-reply", "id": body.get("id"), "ok": ok, "body": final}
            reply_to = body.get("reply_to", sender)
            if delay_s > 0:
                self.sim.schedule(delay_s, self.mailbox.send, reply_to, reply)
            else:
                self.mailbox.send(reply_to, reply)

        settle_reply(reply_body, respond)
