"""Hosts, point-to-point links, and the transmission model.

The model is store-and-forward over point-to-point links, matching the
paper's client/server topology (a mobile host talking to its home
server over whichever line is currently plugged in):

* Each direction of a link is a serial line: a transfer occupies the
  line for ``wire_bytes * 8 / bandwidth`` seconds starting when the
  line is free (FIFO queueing), then propagates for ``latency``.
* If the link's connectivity policy says the link drops while the
  transfer is on the wire, the transfer fails and the sender's failure
  callback runs at the drop time.  Bytes already spent are lost, which
  is what makes retransmission policy interesting for the scheduler.
* Random loss (``LinkSpec.loss_rate``) fails a transfer at its would-be
  delivery time, modelling a timeout-detected loss.

Hosts expose numbered ports; binding a port installs a handler that
receives ``(payload_bytes, source_address)``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Optional

from repro.sim import Simulator, make_rng
from repro.net.link import AlwaysUp, ConnectivityPolicy, LinkSpec

Address = tuple[str, int]
PortHandler = Callable[[bytes, Address], None]


class LinkDown(Exception):
    """Raised when sending on a link that is currently down."""


class NetworkError(Exception):
    """Topology or addressing misuse."""


class Host:
    """A named endpoint with ports and attached links."""

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name
        self.links: list["Link"] = []
        self._links_by_peer: dict[str, list["Link"]] = {}
        self._ports: dict[int, PortHandler] = {}

    def bind(self, port: int, handler: PortHandler) -> None:
        """Install ``handler`` for inbound payloads on ``port``."""
        if port in self._ports:
            raise NetworkError(f"{self.name}: port {port} already bound")
        self._ports[port] = handler

    def unbind(self, port: int) -> None:
        self._ports.pop(port, None)

    def take_ports(self) -> dict[int, PortHandler]:
        """Unbind every port at once and return the old bindings.

        Models a process crash: the sockets close, traffic to the host
        now counts as ``dropped_to_unbound``.  Pair with
        :meth:`restore_ports` when the process restarts.
        """
        taken, self._ports = self._ports, {}
        return taken

    def restore_ports(self, ports: dict[int, PortHandler]) -> None:
        """Re-install bindings saved by :meth:`take_ports`."""
        for port, handler in ports.items():
            self.bind(port, handler)

    def links_to(self, peer: "Host") -> list["Link"]:
        """All links attached to both this host and ``peer``.

        Served from a per-peer index kept by ``Network.connect`` — the
        home server has one link per client, so the old full scan made
        every server-side send O(clients).
        """
        return list(self._links_by_peer.get(peer.name, ()))

    def usable_links_to(self, peer: "Host") -> list["Link"]:
        """Links to ``peer`` that are up right now, best bandwidth first."""
        links = [link for link in self.links_to(peer) if link.is_up]
        links.sort(key=lambda link: -link.spec.bandwidth_bps)
        return links

    def deliver(self, port: int, payload: bytes, source: Address) -> None:
        handler = self._ports.get(port)
        if handler is None:
            # Mirror real networks: traffic to an unbound port vanishes.
            self.network.dropped_to_unbound += 1
            return
        handler(payload, source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name}>"


class Medium:
    """A shared broadcast channel (e.g. one WaveLAN cell).

    Point-to-point links model dedicated wires; a 2 Mbit/s wireless
    cell is *shared* — every attached host's transmission serializes on
    the same air time.  Links created with ``medium=`` contend on this
    object's single busy-until clock instead of per-direction clocks.
    """

    __slots__ = ("name", "busy_until", "bytes_carried")

    def __init__(self, name: str = "medium") -> None:
        self.name = name
        self.busy_until = 0.0
        self.bytes_carried = 0


class Delivery:
    """One planned arrival of a payload at the receiving host.

    A normal send produces exactly one; a fault injector installed on
    the link (see ``Link.fault_injector``) may rewrite it into zero or
    more — dropping it (``fail_reason`` set), duplicating it, delaying
    it, or corrupting its bytes.
    """

    __slots__ = ("time", "payload", "fail_reason")

    def __init__(
        self, time: float, payload: bytes, fail_reason: Optional[str] = None
    ) -> None:
        self.time = time
        self.payload = payload
        self.fail_reason = fail_reason


class _Transfer:
    """An in-flight transfer on one direction of a link.

    Carries everything its completion needs so the transmit path
    allocates no per-delivery closure: :meth:`complete` is a bound
    method handed straight to the simulator (repro.speed — closures
    captured six cells each and dominated allocation on 10k-client
    drains).
    """

    __slots__ = (
        "link",
        "receiver",
        "port",
        "source",
        "delivery",
        "fail",
        "charge",
        "deliver_event",
    )

    def __init__(
        self,
        link: "Link",
        receiver: "Host",
        port: int,
        source: Address,
        delivery: Delivery,
        fail: Callable[[str], None],
        charge: bool,
    ) -> None:
        self.link = link
        self.receiver = receiver
        self.port = port
        self.source = source
        self.delivery = delivery
        self.fail = fail
        self.charge = charge
        self.deliver_event: Any = None

    def complete(self) -> None:
        link = self.link
        # Its life ends here: off the link's books and out of the loop
        # transfer -> event -> bound ``complete`` -> transfer, so it and
        # what ``fail`` reaches (the sender's callbacks, its request) go
        # with the last reference instead of waiting for the collector.
        del link._inflight[self]
        self.deliver_event = None
        delivery = self.delivery
        if delivery.fail_reason is not None:
            link.transfers_failed += 1
            self.fail(delivery.fail_reason)
            return
        if self.charge:
            link.bytes_carried += link.spec.wire_bytes(len(delivery.payload))
        self.receiver.deliver(self.port, delivery.payload, self.source)


class _FailOnce:
    """Collapse a send's possibly-duplicated deliveries to one failure report.

    A ``send()`` has one caller-visible outcome; injected duplicates
    must not fire the failure callback more than once.  (Plain object
    instead of a closure over a dict — transmit path is allocation
    sensitive.)
    """

    __slots__ = ("fail", "reported")

    def __init__(self, fail: Callable[[str], None]) -> None:
        self.fail = fail
        self.reported = False

    def __call__(self, reason: str) -> None:
        if self.reported:
            return
        self.reported = True
        self.fail(reason)


def _ignore_failure(reason: str) -> None:
    return None


class Link:
    """A duplex point-to-point link between two hosts."""

    def __init__(
        self,
        network: "Network",
        name: str,
        host_a: Host,
        host_b: Host,
        spec: LinkSpec,
        policy: ConnectivityPolicy,
        medium: Optional[Medium] = None,
    ) -> None:
        self.network = network
        self.name = name
        self.host_a = host_a
        self.host_b = host_b
        self.spec = spec
        self.policy = policy
        self.medium = medium
        self.sim = network.sim
        self.bytes_carried = 0
        self.transfers_failed = 0
        self._busy_until = {host_a.name: 0.0, host_b.name: 0.0}
        #: Unfinished transfers in send order (an insertion-ordered dict
        #: used as a set: a finished transfer removes itself in O(1)).
        self._inflight: dict[_Transfer, None] = {}
        self._listeners: list[Callable[["Link", bool], None]] = []
        #: Optional chaos hook: an object with
        #: ``plan(link, delivery) -> list[Delivery]`` consulted on every
        #: send (see :class:`repro.chaos.FaultyLink`).
        self.fault_injector: Optional[Any] = None
        self._watch_transitions()

    @cached_property
    def _loss_rng(self) -> Any:
        """Seeded loss stream, built on first draw (a Mersenne Twister
        state is 2.5 KB and most links are lossless)."""
        return make_rng(self.network.seed, f"loss:{self.name}")

    # -- connectivity ---------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self.policy.is_up(self.sim.now)

    def on_transition(self, listener: Callable[["Link", bool], None]) -> None:
        """Register for up/down notifications: ``listener(link, is_up)``."""
        self._listeners.append(listener)

    def _watch_transitions(self) -> None:
        when = self.policy.next_transition(self.sim.now)
        if when is None:
            return
        self.sim.schedule_at(when, self._handle_transition)

    def _handle_transition(self) -> None:
        up = self.is_up
        if not up:
            self.fail_inflight("link dropped")
        for listener in list(self._listeners):
            listener(self, up)
        self._watch_transitions()

    def fail_inflight(self, reason: str) -> int:
        """Fail every in-flight transfer (the link dropped, the peer
        process crashed).  Each sender's failure callback runs at once
        with ``reason``; returns the number of transfers failed."""
        # Swap the table first and walk it in send order: a failure
        # callback may issue new sends, which must not be failed too.
        transfers, self._inflight = self._inflight, {}
        for transfer in transfers:
            transfer.deliver_event.cancel()
            transfer.deliver_event = None
            self.transfers_failed += 1
            fail, transfer.fail, transfer.delivery = transfer.fail, None, None
            fail(reason)
        return len(transfers)

    # -- transmission ---------------------------------------------------

    def peer_of(self, host: Host) -> Host:
        if host is self.host_a:
            return self.host_b
        if host is self.host_b:
            return self.host_a
        raise NetworkError(f"{host.name} is not attached to link {self.name}")

    def queue_delay(self, sender: Host) -> float:
        """Seconds until the sender-side line (or shared medium) is free."""
        if self.medium is not None:
            return max(0.0, self.medium.busy_until - self.sim.now)
        return max(0.0, self._busy_until[sender.name] - self.sim.now)

    def send(
        self,
        sender: Host,
        port: int,
        payload: bytes,
        on_failed: Optional[Callable[[str], None]] = None,
        src_port: int = 0,
    ) -> float:
        """Transmit ``payload`` to the peer host's ``port``.

        Returns the scheduled delivery time.  Raises :class:`LinkDown`
        if the link is down *now*; later failures (drop mid-transfer,
        random loss) are reported through ``on_failed``.  ``src_port``
        is what the receiver sees as the reply port.
        """
        receiver = self.peer_of(sender)
        now = self.sim.now
        if not self.policy.is_up(now):
            raise LinkDown(f"link {self.name} is down at t={now:.3f}")

        tx_time = self.spec.transmit_time(len(payload))
        if self.medium is not None:
            # Shared channel: every attached host contends for air time.
            start = max(now, self.medium.busy_until)
            end_of_tx = start + tx_time
            self.medium.busy_until = end_of_tx
            self.medium.bytes_carried += self.spec.wire_bytes(len(payload))
        else:
            start = max(now, self._busy_until[sender.name])
            end_of_tx = start + tx_time
            self._busy_until[sender.name] = end_of_tx
        arrival = end_of_tx + self.spec.latency_s

        fail = on_failed if on_failed is not None else _ignore_failure
        lost = self.spec.loss_rate > 0 and self._loss_rng.random() < self.spec.loss_rate

        source: Address = (sender.name, src_port)

        planned = Delivery(arrival, payload, "packet loss" if lost else None)
        if self.fault_injector is None:
            # Common case: one delivery, no duplicate-collapse shim.
            self._schedule_delivery(receiver, port, source, planned, fail, charge=True)
            return arrival

        # The injector sees the link's own loss outcome and may
        # rewrite the plan: drop, duplicate, delay, corrupt.
        deliveries = self.fault_injector.plan(self, planned) or [planned]
        fail_once = _FailOnce(fail)
        for index, delivery in enumerate(deliveries):
            # Only the first copy is charged for wire bytes: injected
            # duplicates model network-level replays, not extra sends.
            self._schedule_delivery(
                receiver, port, source, delivery, fail_once, charge=(index == 0)
            )
        return arrival

    def _schedule_delivery(
        self,
        receiver: Host,
        port: int,
        source: Address,
        delivery: Delivery,
        fail: Callable[[str], None],
        charge: bool,
    ) -> None:
        transfer = _Transfer(self, receiver, port, source, delivery, fail, charge)
        transfer.deliver_event = self.sim.schedule_at(delivery.time, transfer.complete)
        self._inflight[transfer] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.is_up else "down"
        return f"<Link {self.name} {self.host_a.name}<->{self.host_b.name} {state}>"


class Network:
    """The topology: hosts plus the links between them."""

    def __init__(self, sim: Simulator, seed: int = 0) -> None:
        self.sim = sim
        self.seed = seed
        self.hosts: dict[str, Host] = {}
        self._links: dict[str, Link] = {}
        self.dropped_to_unbound = 0

    def host(self, name: str) -> Host:
        """Create (or fetch) the host with ``name``."""
        if name not in self.hosts:
            self.hosts[name] = Host(self, name)
        return self.hosts[name]

    def medium(self, name: str = "cell") -> Medium:
        """Create a shared broadcast channel for `connect(..., medium=)`."""
        return Medium(name)

    def connect(
        self,
        host_a: Host,
        host_b: Host,
        spec: LinkSpec,
        policy: Optional[ConnectivityPolicy] = None,
        name: Optional[str] = None,
        medium: Optional[Medium] = None,
    ) -> Link:
        """Attach a duplex link between two hosts.

        Links sharing a ``medium`` contend for the same air time —
        model a wireless cell by giving every client-to-base link the
        same medium.
        """
        if host_a is host_b:
            raise NetworkError("cannot link a host to itself")
        link_name = name or f"{host_a.name}--{host_b.name}:{spec.name}"
        if link_name in self._links:
            raise NetworkError(f"duplicate link name {link_name}")
        link = Link(
            self, link_name, host_a, host_b, spec, policy or AlwaysUp(), medium=medium
        )
        self._links[link_name] = link
        host_a.links.append(link)
        host_b.links.append(link)
        host_a._links_by_peer.setdefault(host_b.name, []).append(link)
        host_b._links_by_peer.setdefault(host_a.name, []).append(link)
        return link

    @property
    def links(self) -> list[Link]:
        return list(self._links.values())
