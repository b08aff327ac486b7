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

from bisect import insort
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

    def best_link_to(self, peer: "Host") -> Optional["Link"]:
        """The best-bandwidth link to ``peer`` that is up right now: the
        first such in the per-peer index ``Network.connect`` keeps in
        that order (the home server has one link per client, so a scan
        of ``links`` made every server-side send O(clients))."""
        now = self.network.sim.now
        for link in self._links_by_peer.get(peer.name, ()):
            if link.policy.is_up(now):
                return link
        return None

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

    What a fault injector installed on the link (see
    ``Link.fault_injector``) is handed and may rewrite into zero or
    more — dropping it (``fail_reason`` set), duplicating it, delaying
    it, or corrupting its bytes.  A link without one builds none: the
    transfer carries the same three facts itself.
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

    In flight from the moment it exists (constructing one books its
    arrival and lists it on the link), and carries everything its
    completion needs, the wire bytes to charge included, so the
    transmit path allocates no per-delivery closure: :meth:`complete`
    is a bound method handed straight to the simulator (repro.speed —
    closures captured six cells each and dominated allocation on
    10k-client drains).
    """

    __slots__ = (
        "link",
        "receiver",
        "port",
        "source",
        "payload",
        "fail_reason",
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
        time: float,
        payload: bytes,
        fail_reason: Optional[str],
        fail: Callable[[str], None],
        charge: int,
    ) -> None:
        self.link = link
        self.receiver = receiver
        self.port = port
        self.source = source
        self.payload = payload
        self.fail_reason = fail_reason
        self.fail = fail
        self.charge = charge
        self.deliver_event: Any = link.sim.schedule_at(time, self.complete)
        link._inflight[self] = None

    def complete(self) -> None:
        link = self.link
        # Its life ends here: off the link's books and out of the loop
        # transfer -> event -> bound ``complete`` -> transfer, so it and
        # what ``fail`` reaches (the sender's callbacks, its request) go
        # with the last reference instead of waiting for the collector.
        del link._inflight[self]
        self.deliver_event = None
        if self.fail_reason is not None:
            link.transfers_failed += 1
            self.fail(self.fail_reason)
            return
        link.bytes_carried += self.charge
        self.receiver.deliver(self.port, self.payload, self.source)


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

    def forget_listener(self, listener: Callable[["Link", bool], None]) -> None:
        """Notify ``listener`` no more (a crashed process's)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

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
            fail, transfer.fail, transfer.payload = transfer.fail, None, None
            fail(reason)
        return len(transfers)

    # -- transmission ---------------------------------------------------

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
        if the link is down *now* — the one refusal every sender relies
        on, whoever chose the link; later failures (drop mid-transfer,
        random loss) are reported through ``on_failed``.  ``src_port``
        is what the receiver sees as the reply port.
        """
        if sender is not self.host_a and sender is not self.host_b:
            raise NetworkError(f"{sender.name} is not attached to link {self.name}")
        receiver = self.host_b if sender is self.host_a else self.host_a
        now = self.sim.now
        if not self.policy.is_up(now):
            raise LinkDown(f"link {self.name} is down at t={now:.3f}")

        # Framed once: line time (``LinkSpec.transmit_time``'s arithmetic)
        # and both byte counts come from this one figure.
        spec = self.spec
        wire = spec.wire_bytes(len(payload))
        tx_time = wire * 8.0 / spec.bandwidth_bps
        if self.medium is not None:
            # Shared channel: every attached host contends for air time.
            start = max(now, self.medium.busy_until)
            end_of_tx = start + tx_time
            self.medium.busy_until = end_of_tx
            self.medium.bytes_carried += wire
        else:
            start = max(now, self._busy_until[sender.name])
            end_of_tx = start + tx_time
            self._busy_until[sender.name] = end_of_tx
        arrival = end_of_tx + spec.latency_s

        fail = on_failed if on_failed is not None else _ignore_failure
        lost = spec.loss_rate > 0 and self._loss_rng.random() < spec.loss_rate
        fail_reason = "packet loss" if lost else None
        source: Address = (sender.name, src_port)

        if self.fault_injector is None:
            # Common case: one delivery, no duplicate-collapse shim.
            _Transfer(self, receiver, port, source, arrival, payload, fail_reason, fail, wire)
            return arrival

        # The injector sees the link's own loss outcome and may
        # rewrite the plan: drop, duplicate, delay, corrupt.
        planned = Delivery(arrival, payload, fail_reason)
        deliveries = self.fault_injector.plan(self, planned) or [planned]
        fail_once = _FailOnce(fail)
        for index, delivery in enumerate(deliveries):
            # Only the first copy is charged, for the bytes *it* carries:
            # injected duplicates model network-level replays, not sends.
            charge = spec.wire_bytes(len(delivery.payload)) if index == 0 else 0
            _Transfer(
                self, receiver, port, source,
                delivery.time, delivery.payload, delivery.fail_reason, fail_once, charge,
            )
        return arrival

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
        same medium.  ``name`` defaults to the two hosts and the spec,
        so a second link of one spec between one pair of hosts must be
        named.
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
        # Per peer, held in the order a sender prefers them — best
        # bandwidth first, equals in attach order (``insort`` goes right
        # of its equals) — so choosing one per frame sorts nothing.
        for host, peer in ((host_a, host_b), (host_b, host_a)):
            host.links.append(link)
            held = host._links_by_peer.setdefault(peer.name, [])
            insort(held, link, key=lambda other: -other.spec.bandwidth_bps)
        return link

    @property
    def links(self) -> list[Link]:
        return list(self._links.values())
