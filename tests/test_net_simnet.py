"""Simulated network tests: delivery timing, queueing, failures."""

import pytest

from repro.net.link import (
    AlwaysDown,
    IntervalTrace,
    LinkSpec,
    PeriodicSchedule,
)
from repro.net.simnet import LinkDown, Network, NetworkError
from repro.sim import Simulator

FAST = LinkSpec("fast", bandwidth_bps=8_000_000, latency_s=0.01, header_bytes=0)


def make_pair(policy=None, spec=FAST, seed=0):
    sim = Simulator()
    net = Network(sim, seed=seed)
    a, b = net.host("a"), net.host("b")
    link = net.connect(a, b, spec, policy)
    return sim, net, a, b, link


def test_delivery_time_matches_analytic():
    sim, net, a, b, link = make_pair()
    arrivals = []
    b.bind(7, lambda payload, src: arrivals.append((sim.now, payload)))
    payload = b"x" * 1000  # 8000 bits / 8 Mbit/s = 1 ms + 10 ms latency
    link.send(a, 7, payload)
    sim.run()
    assert arrivals == [(pytest.approx(0.011), payload)]


def test_source_address_carries_src_port():
    sim, net, a, b, link = make_pair()
    sources = []
    b.bind(7, lambda payload, src: sources.append(src))
    link.send(a, 7, b"hi", src_port=99)
    sim.run()
    assert sources == [("a", 99)]


def test_serial_queueing_back_to_back():
    """Two messages queue on the serial line; second waits for first."""
    spec = LinkSpec("slow", bandwidth_bps=8_000, latency_s=0.0, header_bytes=0)
    sim, net, a, b, link = make_pair(spec=spec)
    arrivals = []
    b.bind(7, lambda payload, src: arrivals.append(sim.now))
    link.send(a, 7, b"x" * 1000)  # 1 s of serialization
    link.send(a, 7, b"x" * 1000)  # queued behind the first
    sim.run()
    assert arrivals == [pytest.approx(1.0), pytest.approx(2.0)]


def test_directions_are_independent():
    spec = LinkSpec("slow", bandwidth_bps=8_000, latency_s=0.0, header_bytes=0)
    sim, net, a, b, link = make_pair(spec=spec)
    arrivals = []
    a.bind(7, lambda payload, src: arrivals.append(("a", sim.now)))
    b.bind(7, lambda payload, src: arrivals.append(("b", sim.now)))
    link.send(a, 7, b"x" * 1000)
    link.send(b, 7, b"x" * 1000)
    sim.run()
    assert ("a", pytest.approx(1.0)) in arrivals
    assert ("b", pytest.approx(1.0)) in arrivals


def test_send_on_down_link_raises():
    sim, net, a, b, link = make_pair(policy=AlwaysDown())
    with pytest.raises(LinkDown):
        link.send(a, 7, b"hello")


def test_transfer_fails_when_link_drops_midway():
    spec = LinkSpec("slow", bandwidth_bps=8_000, latency_s=0.0, header_bytes=0)
    policy = IntervalTrace([(0.0, 0.5)])  # drops at t=0.5
    sim, net, a, b, link = make_pair(policy=policy, spec=spec)
    outcomes = []
    b.bind(7, lambda payload, src: outcomes.append("delivered"))
    link.send(a, 7, b"x" * 1000, on_failed=lambda reason: outcomes.append(reason))
    sim.run()
    assert outcomes == ["link dropped"]
    assert link.transfers_failed == 1


def test_transfer_completes_before_drop():
    spec = LinkSpec("slow", bandwidth_bps=8_000, latency_s=0.0, header_bytes=0)
    policy = IntervalTrace([(0.0, 5.0)])
    sim, net, a, b, link = make_pair(policy=policy, spec=spec)
    outcomes = []
    b.bind(7, lambda payload, src: outcomes.append("delivered"))
    link.send(a, 7, b"x" * 1000, on_failed=lambda reason: outcomes.append(reason))
    sim.run()
    assert outcomes == ["delivered"]


def test_random_loss_fails_transfer():
    spec = LinkSpec("lossy", 1e6, 0.001, header_bytes=0, loss_rate=0.999999)
    sim, net, a, b, link = make_pair(spec=spec)
    outcomes = []
    b.bind(7, lambda payload, src: outcomes.append("delivered"))
    link.send(a, 7, b"data", on_failed=lambda reason: outcomes.append(reason))
    sim.run()
    assert outcomes == ["packet loss"]


def test_transition_listeners_notified():
    policy = PeriodicSchedule(up_duration=1.0, down_duration=1.0)
    sim, net, a, b, link = make_pair(policy=policy)
    transitions = []
    link.on_transition(lambda lnk, up: transitions.append((sim.now, up)))
    sim.run(until=3.5)
    assert transitions == [(1.0, False), (2.0, True), (3.0, False)]


def test_unbound_port_drops_silently():
    sim, net, a, b, link = make_pair()
    link.send(a, 1234, b"to nowhere")
    sim.run()
    assert net.dropped_to_unbound == 1


def test_bytes_carried_accounting():
    spec = LinkSpec("t", 1e6, 0.0, header_bytes=10, mtu=100)
    sim, net, a, b, link = make_pair(spec=spec)
    b.bind(7, lambda payload, src: None)
    link.send(a, 7, b"x" * 250)  # 3 fragments -> 250 + 30
    sim.run()
    assert link.bytes_carried == 280


def test_duplicate_port_binding_rejected():
    sim = Simulator()
    net = Network(sim)
    host = net.host("h")
    host.bind(7, lambda p, s: None)
    with pytest.raises(NetworkError):
        host.bind(7, lambda p, s: None)


def test_self_link_rejected():
    sim = Simulator()
    net = Network(sim)
    host = net.host("h")
    with pytest.raises(NetworkError):
        net.connect(host, host, FAST)


def test_host_is_idempotent_lookup():
    sim = Simulator()
    net = Network(sim)
    assert net.host("x") is net.host("x")


def test_best_link_to_filters_by_peer():
    sim = Simulator()
    net = Network(sim)
    a, b, c = net.host("a"), net.host("b"), net.host("c")
    ab = net.connect(a, b, FAST)
    ac = net.connect(a, c, FAST, name="ac")
    assert a.best_link_to(b) is b.best_link_to(a) is ab
    assert a.best_link_to(c) is ac
    assert b.best_link_to(c) is None


def test_queue_delay_reports_busy_time():
    spec = LinkSpec("slow", bandwidth_bps=8_000, latency_s=0.0, header_bytes=0)
    sim, net, a, b, link = make_pair(spec=spec)
    b.bind(7, lambda p, s: None)
    assert link.queue_delay(a) == 0.0
    link.send(a, 7, b"x" * 1000)
    assert link.queue_delay(a) == pytest.approx(1.0)


class TestSharedMedium:
    """A wireless cell: every attached link contends for one channel."""

    def _world(self, n_clients=3, shared=True):
        spec = LinkSpec("cell", bandwidth_bps=8_000, latency_s=0.0, header_bytes=0)
        sim = Simulator()
        net = Network(sim)
        base = net.host("base")
        medium = net.medium("wavelan-cell") if shared else None
        clients = []
        for index in range(n_clients):
            client = net.host(f"c{index}")
            net.connect(client, base, spec, medium=medium, name=f"cell-{index}")
            clients.append(client)
        return sim, net, base, clients, medium

    def test_shared_medium_serializes_transmissions(self):
        sim, net, base, clients, medium = self._world(shared=True)
        arrivals = []
        base.bind(7, lambda payload, src: arrivals.append((src[0], sim.now)))
        # All three clients transmit 1s worth of data at t=0.
        for client in clients:
            client.links[0].send(client, 7, b"x" * 1000)
        sim.run()
        times = sorted(t for __, t in arrivals)
        assert times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
        assert medium.bytes_carried == 3000

    def test_dedicated_links_transmit_in_parallel(self):
        sim, net, base, clients, medium = self._world(shared=False)
        arrivals = []
        base.bind(7, lambda payload, src: arrivals.append(sim.now))
        for client in clients:
            client.links[0].send(client, 7, b"x" * 1000)
        sim.run()
        assert arrivals == [pytest.approx(1.0)] * 3

    def test_downlink_contends_with_uplink(self):
        sim, net, base, clients, medium = self._world(n_clients=1, shared=True)
        (client,) = clients
        got = []
        base.bind(7, lambda payload, src: got.append(("up", sim.now)))
        client.bind(7, lambda payload, src: got.append(("down", sim.now)))
        link = client.links[0]
        link.send(client, 7, b"x" * 1000)   # 1s of air time
        link.send(base, 7, b"y" * 1000)     # must wait for the channel
        sim.run()
        assert got == [("up", pytest.approx(1.0)), ("down", pytest.approx(2.0))]

    def test_queue_delay_reflects_medium(self):
        sim, net, base, clients, medium = self._world(n_clients=2, shared=True)
        base.bind(7, lambda p, s: None)
        clients[0].links[0].send(clients[0], 7, b"x" * 1000)
        # The *other* client sees the channel busy too.
        assert clients[1].links[0].queue_delay(clients[1]) == pytest.approx(1.0)


def _reachable_from_transfers(link):
    """Everything the link's transfer records keep alive, not counting
    the infrastructure that outlives any request (links, hosts, kernel)."""
    import gc
    import types

    from repro.net.simnet import Host, Link

    infrastructure = (Link, Host, Network, Simulator, type, types.ModuleType)
    seen, stack, found = set(), [link._inflight], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, infrastructure):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            # What a closure captures, not the module it was defined in.
            stack.extend(obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_finished_transfers_release_their_request():
    """A completed transfer used to keep its ``fail`` closure (and
    through it the sender's callbacks, the queued message and the QRPC
    with its full arguments) until an amortized sweep that a link
    carrying fewer than 33 frames never ran.  Now a transfer takes
    itself off the link's table the moment it finishes."""
    import types

    from repro.core.qrpc import QRPCRequest
    from repro.net.link import CSLIP_14_4
    from repro.net.scheduler import QueuedMessage
    from repro.testbed import build_testbed
    from tests.conftest import make_note

    bed = build_testbed(link_spec=CSLIP_14_4)
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    for n in range(6):
        bed.access.invoke(str(note.urn), "set_text", f"v{n}")
    assert bed.access.drain(timeout=600)
    bed.sim.run()
    link = bed.link
    assert link.bytes_carried > 0  # frames did cross it
    assert not link._inflight  # nothing finished is still listed
    pinned = [
        obj
        for obj in _reachable_from_transfers(link)
        if isinstance(obj, (QueuedMessage, QRPCRequest))
        or (isinstance(obj, types.FunctionType) and obj.__closure__)
    ]
    assert pinned == []


def test_failed_transfers_release_their_request():
    sim, net, a, b, link = make_pair(spec=LinkSpec("slow", 8_000, 0.01))
    failures = []
    link.send(a, 7, b"x" * 100, on_failed=failures.append)
    (transfer,) = link._inflight
    assert link.fail_inflight("peer crashed") == 1
    assert failures == ["peer crashed"]
    assert transfer.fail is None and transfer.payload is None
