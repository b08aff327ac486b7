"""SMTP-style queued transport.

The paper: *"SMTP allows Rover to exploit E-mail for queued
communication"* — requests and replies ride through the mail
infrastructure, so the two endpoints never need to be connected at the
same time.  Mail is a carrier under the one
:class:`~repro.net.transport.Transport`, like a live TCP connection: it
moves sealed frames and names its far end.

* a :class:`MailRelay` host that accepts, spools (persistently counts),
  and forwards messages whenever a link to the recipient is up;
* a :class:`Mailbox` per endpoint for sending and receiving mail;
* a :class:`MailLink` mails a frame to one peer through the relay;
* a :class:`MailRoute` plugs mail into the
  :class:`~repro.net.scheduler.NetworkScheduler` as a connectionless
  route: a send is one ``Transport.call`` over a mail link with no reply
  timer, and the relay taking custody frees the in-flight window.

``transport_bytes_sent_total`` counts a mailed frame twice: as handed
to the mail link, and again inside its submission to the relay.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.net.scheduler import Route, RouteKind
from repro.net.simnet import Address, Host, Link
from repro.net.transport import RPC_PORT, RpcError, Transport
from repro.sim import Simulator

SUBMIT_SERVICE = "smtp.submit"
DELIVER_SERVICE = "smtp.deliver"

#: How long a hop after custody waits before it retries a hand-over
#: that failed while its link stayed up (a lost frame); a hop whose
#: link went down retries when it comes back up.
RETRY_S = 5.0


class MailRelay:
    """Store-and-forward spool on its own host.

    The relay keeps one FIFO spool per destination host and drains it
    whenever a link to that host comes up.  A mail it has taken stays
    spooled until the recipient has it: a failed forward is retried.
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
            if not (isinstance(reply, dict) and reply.get("delivered")):
                failed(reply)  # answered, but not taken: still ours
                return
            self._forwarding.discard(dst_name)
            if queue and queue[0] is mail:
                queue.pop(0)
                self.forwarded += 1
            self._try_forward(dst_name)

        def failed(error: Any) -> None:  # still spooled: retry
            self._forwarding.discard(dst_name)
            self.sim.schedule(RETRY_S, self._try_forward, dst_name)

        try:
            self.transport.call(dst, DELIVER_SERVICE, mail, done, failed)
        except RpcError:
            self._forwarding.discard(dst_name)


class Mailbox:
    """An endpoint's interface to the mail system.

    A delivered mail whose body is bytes is a sealed frame a
    :class:`MailLink` sent: it goes to the transport's RPC port with a
    mail link back to its sender, by which any reply leaves.  Any other
    body goes to the :meth:`on_mail` handlers.
    """

    def __init__(self, sim: Simulator, transport: Transport, relay: Host) -> None:
        self.sim = sim
        self.transport = transport
        self.relay = relay
        to_relay = [link for link in transport.host.links if relay in (link.host_a, link.host_b)]
        #: The link to the relay's: the hop a mailed frame takes first.
        self.spec = to_relay[0].spec
        self._handlers: list[Callable[[Any, str], None]] = []
        self._unsent: list[tuple[str, bytes]] = []
        self.sent = 0
        self.received = 0
        transport.register(DELIVER_SERVICE, self._on_deliver)
        for link in to_relay:
            link.on_transition(self._on_link_transition)

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
            if not (isinstance(reply, dict) and reply.get("spooled")):
                failed(f"relay did not take the mail: {reply!r:.80}")
                return
            self.sent += 1
            if on_spooled is not None:
                on_spooled()

        def failed(error: Any) -> None:
            if on_error is not None:
                on_error(str(error))

        try:
            self.transport.call(self.relay, SUBMIT_SERVICE, mail, spooled, failed)
        except RpcError as exc:
            failed(exc)

    def _on_deliver(self, mail: Any, source: Address) -> Any:
        self.received += 1
        body = mail.get("body")
        sender = mail.get("from", "")
        if isinstance(body, bytes):
            self.transport._on_rpc_datagram(body, (sender, RPC_PORT), MailLink(self, sender, None))
        else:
            for handler in list(self._handlers):
                handler(body, sender)
        return {"delivered": True}

    def _mail_reply(self, dst_name: str, frame: bytes) -> None:
        """Hand a reply frame to the relay until it takes it: after
        :data:`RETRY_S` again if the link to the relay stays up, else
        when it comes back up."""

        def failed(reason: str) -> None:
            self._unsent.append((dst_name, frame))
            self.sim.schedule(RETRY_S, self._send_unsent)

        self.send(dst_name, frame, on_error=failed)

    def _on_link_transition(self, link: Link, is_up: bool) -> None:
        if is_up:
            self._send_unsent()

    def _send_unsent(self) -> None:
        if not self._unsent or self.transport.host.best_link_to(self.relay) is None:
            return
        unsent, self._unsent = self._unsent, []
        for dst_name, frame in unsent:
            self._mail_reply(dst_name, frame)


class MailLink:
    """The relay, as much of a simnet ``Link`` to host ``name`` as
    ``Transport.send`` uses (duck-typed like live's ``_Connection``):
    ``send`` mails the sealed frame, for the peer's RPC port.  A request
    (sent with ``on_failed``) the relay does not take fails, for the
    caller to retry, and its custody is ``on_accepted``.  A reply (sent
    without: its request is in the relay's custody and is never sent
    again) is kept until the relay takes it.
    """

    __slots__ = ("mailbox", "name", "spec", "on_accepted")

    def __init__(self, mailbox: Mailbox, name: str, on_accepted: Optional[Callable]) -> None:
        self.mailbox = mailbox
        self.name = name
        self.spec = mailbox.spec
        self.on_accepted = on_accepted

    def send(
        self, sender: Host, port: int, payload: bytes,
        on_failed: Optional[Callable[[str], None]] = None, src_port: int = 0,
    ) -> float:
        if on_failed is None:
            self.mailbox._mail_reply(self.name, payload)
        else:
            self.mailbox.send(self.name, payload, self.on_accepted, on_failed)
        return self.mailbox.sim.now


class MailRoute(Route):
    """Scheduler route that carries request/reply over the mail system.

    Low quality (used only when nothing better is up) but available
    whenever the *relay* is reachable, even if the destination itself
    is not.  No reply timer: the far hops may be up days later.
    """

    name = "smtp"
    quality = 1.0  # always worse than any live direct link
    kind = RouteKind.QUEUED

    def __init__(self, mailbox: Mailbox) -> None:
        self.mailbox = mailbox

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
        self.mailbox.transport.call(
            dst, service, body, on_reply, lambda error: on_error(str(error)),
            timeout=None, link=MailLink(self.mailbox, dst.name, on_accepted),
        )
