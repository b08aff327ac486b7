"""Tests for the extension features: server authentication,
freshness-bounded imports, group commit, import coalescing/priority
upgrade, and the HTTP Rover gateway."""

import pytest

from repro.core.naming import URN
from repro.net.http import HttpClient
from repro.net.link import CSLIP_14_4, IntervalTrace, LinkSpec
from repro.net.rover_http import HttpRoute, RoverHttpGateway
from repro.net.scheduler import NetworkScheduler, Priority
from repro.net.simnet import Network
from repro.net.transport import Transport
from repro.sim import Simulator
from repro.storage.stable_log import GroupCommitPolicy
from repro.testbed import build_testbed
from tests.conftest import make_note


class TestAuthentication:
    def test_wrong_token_rejected(self):
        bed = build_testbed()
        bed.server.auth_tokens = {"secret"}
        note = make_note()
        bed.server.put_object(note)
        promise = bed.access.import_(note.urn)  # no token configured
        bed.sim.run()
        assert promise.failed
        assert "unauthorized" in promise.error
        assert bed.server.auth_rejections >= 1

    def test_correct_token_accepted(self):
        bed = build_testbed()
        bed.server.auth_tokens = {"secret"}
        bed.access.auth_token = "secret"
        note = make_note()
        bed.server.put_object(note)
        rdo = bed.access.import_(note.urn).wait(bed.sim)
        assert rdo.data == {"text": "hello"}
        # Mutations also authenticate.
        bed.access.invoke(note.urn, "set_text", "new")
        assert bed.access.drain()
        assert bed.server.get_object(str(note.urn)).data == {"text": "new"}
        assert bed.server.auth_rejections == 0

    def test_open_server_needs_no_token(self):
        bed = build_testbed()
        note = make_note()
        bed.server.put_object(note)
        assert bed.access.import_(note.urn).wait(bed.sim) is not None


class TestFreshness:
    def test_stale_hit_reimports_with_max_age(self):
        bed = build_testbed()
        note = make_note()
        bed.server.put_object(note)
        bed.access.import_(note.urn).wait(bed.sim)
        bed.server.put_object(make_note(text="fresh"))
        bed.sim.run(until=bed.sim.now + 100.0)
        stale = bed.access.import_(note.urn, max_age_s=1_000.0).wait(bed.sim)
        assert stale.data["text"] == "hello"  # young enough
        fresh = bed.access.import_(note.urn, max_age_s=10.0).wait(bed.sim)
        assert fresh.data["text"] == "fresh"  # too old: round trip

    def test_tentative_copy_always_served(self):
        # Disconnect after the import so the local edit stays tentative.
        bed = build_testbed(policy=IntervalTrace([(0.0, 1.0), (1e6, 1e9)]))
        note = make_note()
        bed.server.put_object(note)
        bed.access.import_(note.urn).wait(bed.sim)
        bed.sim.run(until=10.0)
        bed.access.invoke(note.urn, "set_text", "local")
        bed.sim.run(until=100.0)
        assert bed.access.cache.peek(str(note.urn)).tentative
        served_before = bed.server.imports_served
        rdo = bed.access.import_(note.urn, max_age_s=1.0).wait(bed.sim, timeout=5.0)
        assert rdo.data["text"] == "local"
        assert bed.server.imports_served == served_before


class TestGroupCommit:
    def test_one_flush_covers_a_burst(self):
        bed = build_testbed(group_commit=GroupCommitPolicy.fixed(0.05))
        urns = []
        for n in range(5):
            note = make_note(path=f"notes/g{n}")
            bed.server.put_object(note)
            urns.append(note.urn)
        for urn in urns:
            bed.access.import_(urn)
        bed.sim.run()
        assert all(str(u) in bed.access.cache for u in urns)
        # One group flush, not five per-request flushes.
        assert bed.access.log.stable.flushes <= 2 + 5  # appends + acks
        per_request = build_testbed()
        note = make_note()
        per_request.server.put_object(note)
        per_request.access.import_(note.urn).wait(per_request.sim)
        # Per-request mode pays a flush before any submit; group mode
        # amortized one flush across the burst of five.
        assert bed.access.flush_seconds_total < 5 * per_request.access.flush_seconds_total

    def test_group_commit_still_recovers(self):
        from repro.core.operation_log import OperationLog
        from repro.storage.stable_log import StableLog

        bed = build_testbed(
            policy=IntervalTrace([(1_000.0, 1e9)]),
            group_commit=GroupCommitPolicy.fixed(0.05),
        )
        note = make_note()
        bed.server.put_object(note)
        bed.access.import_(note.urn)
        bed.sim.run(until=1.0)  # window elapsed; records flushed
        recovered = OperationLog(StableLog(bed.access.log.stable.backend))
        assert recovered.pending_count() == 1


class TestImportCoalescing:
    def test_duplicate_imports_share_one_round_trip(self):
        bed = build_testbed(link_spec=CSLIP_14_4)
        note = make_note()
        bed.server.put_object(note)
        promises = [bed.access.import_(note.urn) for __ in range(4)]
        bed.sim.run_until(lambda: all(p.is_done for p in promises), timeout=600)
        assert all(p.ready for p in promises)
        assert bed.server.imports_served == 1

    def test_foreground_click_upgrades_prefetch(self):
        """A background prefetch overtaken by a foreground click."""
        bed = build_testbed(
            link_spec=CSLIP_14_4,
            policy=IntervalTrace([(100.0, 1e9)]),  # everything queues
            max_inflight=1,
        )
        first = make_note(path="notes/filler")
        target = make_note(path="notes/target")
        bed.server.put_object(first)
        bed.server.put_object(target)
        bed.access.import_(first.urn, priority=Priority.BACKGROUND)
        background = bed.access.import_(target.urn, priority=Priority.BACKGROUND)
        # The user clicks the target: attaches and upgrades priority.
        foreground = bed.access.import_(target.urn, priority=Priority.FOREGROUND)
        arrivals = []
        background.then(lambda rdo: arrivals.append(("bg", bed.sim.now)))
        foreground.then(lambda rdo: arrivals.append(("fg", bed.sim.now)))
        bed.sim.run(until=200)
        assert len(arrivals) == 2
        assert bed.server.imports_served == 2  # filler + target (once)
        # The upgraded target beat the earlier-queued filler.
        filler_entry = bed.access.cache.peek(str(first.urn))
        assert arrivals[0][1] <= filler_entry.inserted_at


class TestHttpGateway:
    def _world(self, with_native_down=False):
        sim = Simulator()
        net = Network(sim)
        client, server_host = net.host("client"), net.host("server")
        net.connect(client, server_host, CSLIP_14_4)
        tc, ts = Transport(sim, client), Transport(sim, server_host)
        from repro.core.server import RoverServer

        server = RoverServer(sim, ts, "server")
        gateway = RoverHttpGateway(sim, ts)
        http_client = HttpClient(sim, client)
        return sim, net, client, server_host, server, gateway, http_client

    def test_import_over_http(self):
        sim, net, client, server_host, server, gateway, http = self._world()
        server.put_object(make_note())
        from repro.net.http import HttpRequest
        from repro.net.message import marshal, unmarshal

        got = {}
        http.request(
            server_host,
            HttpRequest(
                "POST", "/rover/import",
                body=marshal({"urn": "urn:rover:server/notes/n1"}),
            ),
            on_response=lambda r: got.update(reply=unmarshal(r.body), status=r.status),
            on_error=lambda e: got.update(error=e),
        )
        sim.run()
        assert got["status"] == 200
        assert got["reply"]["status"] == "ok"
        assert got["reply"]["rdo"]["data"] == {"text": "hello"}
        assert gateway.requests_served == 1

    def test_get_rejected(self):
        sim, net, client, server_host, server, gateway, http = self._world()
        statuses = []
        http.get(server_host, "/rover/import", lambda r: statuses.append(r.status), lambda e: None)
        sim.run()
        assert statuses == [400]

    def test_http_route_carries_qrpcs(self):
        """The whole access-manager flow with HTTP as the only carrier."""
        sim = Simulator()
        net = Network(sim)
        client, server_host = net.host("client"), net.host("server")
        net.connect(client, server_host, CSLIP_14_4)
        tc, ts = Transport(sim, client), Transport(sim, server_host)
        from repro.core.server import RoverServer

        server = RoverServer(sim, ts, "server")
        server.put_object(make_note())
        RoverHttpGateway(sim, ts)
        scheduler = NetworkScheduler(sim, tc)
        scheduler.routes = [HttpRoute(sim, HttpClient(sim, client), server_host)]
        from repro.core.access_manager import AccessManager

        access = AccessManager(sim, scheduler, servers={"server": server_host})
        rdo = access.import_("urn:rover:server/notes/n1").wait(sim, timeout=600)
        assert rdo.data == {"text": "hello"}
        result, __ = access.invoke("urn:rover:server/notes/n1", "set_text", "via http")
        assert access.drain(timeout=600)
        assert server.get_object("urn:rover:server/notes/n1").data == {"text": "via http"}
