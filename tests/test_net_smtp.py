"""SMTP relay tests: spooling, store-and-forward, the mail QRPC route."""

import pytest

from repro.net.link import (
    CSLIP_14_4,
    ETHERNET_10M,
    AlwaysDown,
    AlwaysUp,
    IntervalTrace,
)
from repro.net.scheduler import NetworkScheduler
from repro.net.simnet import Delivery, Network
from repro.net.smtp import MailRelay, Mailbox, MailRoute, MailRpcEndpoint
from repro.net.transport import Transport
from repro.sim import Simulator
from repro.testbed import build_testbed
from tests.conftest import into


def make_mail_world(client_relay_policy=None, relay_server_policy=None, direct_policy=None):
    sim = Simulator()
    net = Network(sim)
    client, server, relay_host = net.host("client"), net.host("server"), net.host("relay")
    direct = net.connect(client, server, CSLIP_14_4, direct_policy or AlwaysDown())
    net.connect(client, relay_host, CSLIP_14_4, client_relay_policy)
    net.connect(relay_host, server, CSLIP_14_4, relay_server_policy)
    tc, ts, tr = Transport(sim, client), Transport(sim, server), Transport(sim, relay_host)
    relay = MailRelay(sim, tr)
    relay.watch_new_links()
    mb_client = Mailbox(sim, tc, relay_host)
    mb_server = Mailbox(sim, ts, relay_host)
    return sim, net, client, server, relay_host, direct, tc, ts, relay, mb_client, mb_server


def test_plain_mail_delivery():
    sim, net, c, s, rh, direct, tc, ts, relay, mbc, mbs = make_mail_world()
    inbox = []
    mbs.on_mail(lambda body, sender: inbox.append((body, sender)))
    mbc.send("server", {"hello": "world"})
    sim.run()
    assert inbox == [({"hello": "world"}, "client")]
    assert relay.accepted == 1
    assert relay.forwarded == 1


def test_mail_spools_until_recipient_reachable():
    """The endpoints are never up at the same time; mail still flows."""
    sim, net, c, s, rh, direct, tc, ts, relay, mbc, mbs = make_mail_world(
        client_relay_policy=IntervalTrace([(0.0, 10.0)]),
        relay_server_policy=IntervalTrace([(20.0, 1e9)]),
    )
    inbox = []
    mbs.on_mail(lambda body, sender: inbox.append(sim.now))
    mbc.send("server", {"n": 1})
    sim.run(until=15)
    assert inbox == []
    assert relay.spooled("server") == 1
    sim.run(until=60)
    assert len(inbox) == 1
    assert inbox[0] > 20.0
    assert relay.spooled("server") == 0


def test_mail_send_fails_without_relay_link():
    sim, net, c, s, rh, direct, tc, ts, relay, mbc, mbs = make_mail_world(
        client_relay_policy=AlwaysDown()
    )
    errors = []
    mbc.send("server", {"n": 1}, on_error=errors.append)
    sim.run()
    assert len(errors) == 1


def test_mail_preserves_fifo_per_destination():
    sim, net, c, s, rh, direct, tc, ts, relay, mbc, mbs = make_mail_world()
    inbox = []
    mbs.on_mail(lambda body, sender: inbox.append(body["n"]))
    for index in range(5):
        mbc.send("server", {"n": index})
    sim.run()
    assert inbox == list(range(5))


def test_qrpc_over_mail_route():
    """Full request/reply through the relay while the direct link is down."""
    sim, net, c, s, rh, direct, tc, ts, relay, mbc, mbs = make_mail_world()
    ts.register("ping", lambda body, src: {"pong": body["n"]})
    MailRpcEndpoint(sim, ts, mbs)
    scheduler = NetworkScheduler(sim, tc)
    scheduler.add_route(MailRoute(sim, mbc))
    replies = []
    scheduler.submit(s, "ping", {"n": 7}, on_reply=into(replies))
    sim.run()
    assert replies == [{"pong": 7}]


def test_mail_route_frees_window_after_spool():
    """Custody at the relay frees the in-flight slot before the reply."""
    sim, net, c, s, rh, direct, tc, ts, relay, mbc, mbs = make_mail_world(
        relay_server_policy=IntervalTrace([(100.0, 1e9)]),
    )
    ts.register("ping", lambda body, src: {"pong": True})
    MailRpcEndpoint(sim, ts, mbs)
    scheduler = NetworkScheduler(sim, tc, max_inflight=1)
    scheduler.add_route(MailRoute(sim, mbc))
    replies = []
    for index in range(3):
        scheduler.submit(s, "ping", {"n": index}, on_reply=into(replies))
    # Before the relay-server link comes up, all three must be spooled
    # (i.e. the single in-flight slot did not serialize them).
    sim.run(until=50)
    assert relay.spooled("server") == 3
    sim.run(until=400)
    assert len(replies) == 3


def test_mail_route_lets_go_of_a_request_the_relay_never_took():
    """The link to the relay drops with the submission on it: the route
    must forget the mail id (no reply will ever name it) and tell the
    scheduler, whose retry after the link returns is a fresh mail."""
    sim, net, c, s, rh, direct, tc, ts, relay, mbc, mbs = make_mail_world(
        # 14.4k: the ~100 B submission is still on the wire at 0.05 s.
        client_relay_policy=IntervalTrace([(0.0, 0.05), (5.0, 1e9)]),
    )
    ts.register("ping", lambda body, src: {"pong": body["n"]})
    MailRpcEndpoint(sim, ts, mbs)
    scheduler = NetworkScheduler(sim, tc, base_backoff=0.1)
    route = MailRoute(sim, mbc)
    scheduler.add_route(route)
    replies, failures = [], []
    scheduler.submit(s, "ping", {"n": 7}, on_reply=into(replies), on_failed=into(failures))
    sim.run(until=0.01)
    assert len(route._pending) == 1  # handed to the mailbox, awaiting custody
    sim.run(until=1.0)
    assert relay.accepted == 0 and route._pending == {}
    sim.run(until=60.0)
    assert replies == [{"pong": 7}] and failures == []
    assert scheduler.retransmissions == 1
    assert relay.accepted == 2  # the retried request, and its reply
    assert route._pending == {}


def test_scheduler_prefers_direct_link_when_up():
    """With both routes available, quality selection picks the link."""
    sim, net, c, s, rh, direct, tc, ts, relay, mbc, mbs = make_mail_world(
        direct_policy=AlwaysUp()
    )
    ts.register("ping", lambda body, src: {"pong": True})
    MailRpcEndpoint(sim, ts, mbs)
    scheduler = NetworkScheduler(sim, tc)
    scheduler.add_route(MailRoute(sim, mbc))
    replies = []
    scheduler.submit(s, "ping", {}, on_reply=into(replies))
    sim.run()
    assert len(replies) == 1
    assert relay.accepted == 0  # never touched the relay


# ---------------------------------------------------------------------------
# After custody: the relay holds the client's request, which the client
# never sends again, so each later hop must retry until it succeeds.
# ---------------------------------------------------------------------------

#: An RDO that runs ~0.3 virtual seconds on the server.
SLOW_SHIP = "def main():\n    n = 0\n    for i in range(600):\n        n = n + 1\n    return n\n"


class _DropFrame:
    """Fault injector: lose the ``nth`` frame on a link that stays up."""

    def __init__(self, nth):
        self.nth = nth
        self.seen = self.dropped = 0

    def plan(self, link, delivery):
        self.seen += 1
        if self.seen != self.nth:
            return [delivery]
        self.dropped += 1
        return [Delivery(delivery.time, delivery.payload, "dropped by the test")]


def _ship_and_settle(bed):
    outcomes = []
    shipped = bed.access.ship(bed.authority, SLOW_SHIP)
    shipped.then(lambda result: outcomes.append(("ok", result)))
    shipped.on_failure(lambda reason: outcomes.append(("failed", reason)))
    bed.sim.run(until=100_000.0)
    return outcomes


def test_a_reply_the_relay_cannot_take_is_handed_over_when_it_can():
    """The relay-server link drops while the shipped RDO runs: the
    endpoint keeps the reply and mails it once the link is back."""
    bed = build_testbed(
        policy=AlwaysDown(),
        with_relay=True,
        relay_server_policy=IntervalTrace([(0.0, 0.05), (30.0, 1e9)]),
    )
    assert _ship_and_settle(bed) == [("ok", 600)]
    assert bed.server.ships_served == 1
    assert bed.access.pending_count() == 0
    assert bed.relay.spooled() == 0


def test_a_forward_lost_on_a_link_that_stays_up_is_retried():
    """The relay's first delivery to the server is lost and the link
    never goes down: no link-up comes, so the relay retries on its own."""
    bed = build_testbed(policy=AlwaysDown(), with_relay=True)
    link = bed.relay_host.best_link_to(bed.server_host)
    injector = link.fault_injector = _DropFrame(1)  # the relay's delivery
    assert _ship_and_settle(bed) == [("ok", 600)]
    assert injector.dropped == 1
    assert bed.server.ships_served == 1
    assert bed.access.pending_count() == 0
    assert bed.relay.spooled() == 0


def test_a_retried_delivery_the_server_already_has_runs_nothing_twice():
    """The server's ack of the delivery is lost: the relay delivers the
    mail again, and the server answers it from its at-most-once record."""
    bed = build_testbed(policy=AlwaysDown(), with_relay=True)
    link = bed.relay_host.best_link_to(bed.server_host)
    link.fault_injector = _DropFrame(2)  # the server's ack of the delivery
    assert _ship_and_settle(bed) == [("ok", 600)]
    assert bed.server_mailbox.received == 2
    assert bed.server.ships_served == 1
    assert bed.access.pending_count() == 0
