"""Dedicated tests for the CGI-style HTTP Rover gateway and route."""

import pytest

from repro.core.server import RoverServer
from repro.net.http import HttpClient, HttpRequest
from repro.net.link import CSLIP_14_4, ETHERNET_10M, IntervalTrace
from repro.net.message import marshal, unmarshal
from repro.net.rover_http import GATEWAY_PREFIX, HttpRoute, RoverHttpGateway
from repro.net.scheduler import NetworkScheduler
from repro.net.simnet import Network
from repro.net.transport import Transport
from repro.sim import Simulator
from tests.conftest import make_note


def make_world(spec=ETHERNET_10M, policy=None):
    sim = Simulator()
    net = Network(sim)
    client, server_host = net.host("client"), net.host("server")
    net.connect(client, server_host, spec, policy)
    tc, ts = Transport(sim, client), Transport(sim, server_host)
    server = RoverServer(sim, ts, "server")
    gateway = RoverHttpGateway(sim, ts)
    http = HttpClient(sim, client)
    return sim, net, client, server_host, server, gateway, http


def post(http, dst, op, body, sim):
    outcome = {}
    http.request(
        dst,
        HttpRequest("POST", GATEWAY_PREFIX + op, body=marshal(body)),
        on_response=lambda r: outcome.update(status=r.status, body=unmarshal(r.body)),
        on_error=lambda e: outcome.update(error=e),
    )
    sim.run_until(lambda: bool(outcome), timeout=600)
    return outcome


def test_export_and_reimport_over_http():
    sim, net, client, server_host, server, gateway, http = make_world()
    server.put_object(make_note())
    urn = "urn:rover:server/notes/n1"
    outcome = post(
        http, server_host, "export",
        {"urn": urn, "base_version": 1, "data": {"text": "via gateway"},
         "request_id": "h/0"},
        sim,
    )
    assert outcome["status"] == 200
    assert outcome["body"]["status"] == "committed"
    outcome = post(http, server_host, "import", {"urn": urn}, sim)
    assert outcome["body"]["rdo"]["data"] == {"text": "via gateway"}


def test_ship_over_http_charges_compute_time():
    sim, net, client, server_host, server, gateway, http = make_world()
    server.put_object(make_note(path="a", text="xx"))
    code = (
        "def main():\n"
        "    total = 0\n"
        "    for key in objects(''):\n"
        "        total = total + len(lookup(key)['text'])\n"
        "    return total\n"
    )
    before = sim.now
    outcome = post(
        http, server_host, "ship",
        {"code": code, "method": "main", "args": [], "request_id": "h/1"},
        sim,
    )
    assert outcome["body"]["result"] == 2
    assert sim.now - before > 0.0004  # DeferredHttpResponse delay applied


def test_unknown_service_is_http_500():
    sim, net, client, server_host, server, gateway, http = make_world()
    outcome = post(http, server_host, "frobnicate", {}, sim)
    assert outcome["status"] == 500
    assert "unknown service" in outcome["body"]["error"]


def test_non_marshal_body_is_400():
    sim, net, client, server_host, server, gateway, http = make_world()
    outcome = {}
    http.request(
        server_host,
        HttpRequest("POST", GATEWAY_PREFIX + "import", body=b"\xff\xfe garbage"),
        on_response=lambda r: outcome.update(status=r.status),
        on_error=lambda e: outcome.update(error=e),
    )
    sim.run()
    assert outcome["status"] == 400


def test_route_rejects_non_rover_services():
    sim, net, client, server_host, server, gateway, http = make_world()
    route = HttpRoute(sim, http, server_host)
    errors = []
    route.send(
        server_host, "smtp.submit", {}, lambda r: None, errors.append, lambda: None
    )
    assert errors and "only carries rover services" in errors[0]


def test_route_unavailable_when_link_down():
    sim, net, client, server_host, server, gateway, http = make_world(
        policy=IntervalTrace([(100.0, 1e9)])
    )
    route = HttpRoute(sim, http, server_host)
    assert not route.available(server_host)
    sim.run(until=150.0)
    assert route.available(server_host)


def test_route_unavailable_for_other_hosts():
    sim, net, client, server_host, server, gateway, http = make_world()
    stranger = net.host("stranger")
    route = HttpRoute(sim, http, server_host)
    assert not route.available(stranger)


def test_gateway_shares_at_most_once_with_native_port():
    """A request applied via HTTP is recognized as a duplicate when
    retransmitted over the native RPC carrier (shared server state)."""
    sim, net, client, server_host, server, gateway, http = make_world()
    server.put_object(make_note())
    body = {
        "urn": "urn:rover:server/notes/n1",
        "base_version": 1,
        "data": {"text": "once"},
        "request_id": "shared/0",
    }
    outcome = post(http, server_host, "export", body, sim)
    assert outcome["body"]["status"] == "committed"
    # Retransmit the same request id over the native RPC carrier, from
    # a second host with its own link and transport.
    second = net.host("retransmitter")
    net.connect(second, server_host, ETHERNET_10M, name="retry-link")
    retry_transport = Transport(sim, second)
    reply = retry_transport.call_blocking(server_host, "rover.export", body)
    assert reply == outcome["body"]
    assert server.duplicates_suppressed == 1
    assert server.get_object("urn:rover:server/notes/n1").version == 2


def test_batch_post_crosses_the_gateway_member_by_member():
    """``rover.batch`` is unpacked by the one ``handle_request``; its
    reply is deferred until the last member settles, which the gateway
    waits for like every other carrier."""
    sim, net, client, server_host, server, gateway, http = make_world()
    server.put_object(make_note())
    urn = "urn:rover:server/notes/n1"
    outcome = post(
        http, server_host, "batch",
        {"requests": [
            {"service": "rover.invoke",
             "body": {"urn": urn, "method": "set_text", "args": ["batched"],
                      "request_id": "h/2"}},
            {"service": "rover.import"},  # no body: fails alone
            {"service": "rover.import", "body": {"urn": urn}},
        ]},
        sim,
    )
    assert outcome["status"] == 200
    first, second, third = outcome["body"]["replies"]
    assert first["ok"] and first["body"]["result"] == "batched"
    assert not second["ok"] and second["body"] == {"error": "malformed batch member"}
    assert third["ok"] and third["body"]["rdo"]["data"] == {"text": "batched"}
    assert server.invokes_served == 1 and server.imports_served == 1


def test_invoke_through_the_gateway_to_an_ha_primary_is_answered_and_applied_once():
    """An HA primary defers its reply until the backup quorum acks
    (``AsyncReply``); the gateway settles it instead of marshalling the
    placeholder, so the client hears back and never retransmits."""
    from repro.check.scenarios import make_box
    from repro.ha import build_ha_testbed

    bed = build_ha_testbed(n_backups=2, n_clients=1)
    box = make_box(bed.authority)
    bed.put_object(box)
    primary = bed.group.primary_agent()
    RoverHttpGateway(bed.sim, primary.transport)
    stack = bed.clients[0]
    stack.scheduler.routes = [HttpRoute(bed.sim, HttpClient(bed.sim, stack.host), primary.host)]
    promise = stack.access.invoke_remote(str(box.urn), "add", ["once"])
    assert stack.access.drain(timeout=60.0)
    assert promise.ready and not promise.failed
    assert stack.scheduler.retransmissions == 0 and stack.scheduler.failed == 0
    assert bed.server.get_object(str(box.urn)).data["items"] == ["once"]
