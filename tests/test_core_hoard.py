"""Hoarding and invalidation-callback tests."""

import pytest

from repro.core.hoard import HoardEntry, Hoarder, HoardProfile
from repro.core.notification import EventType
from repro.net.link import CSLIP_14_4, ETHERNET_10M, IntervalTrace
from repro.net.scheduler import Priority
from repro.testbed import build_multi_client_testbed, build_testbed
from tests.conftest import make_note


def populate(server, prefix: str, count: int) -> list[str]:
    urns = []
    for index in range(count):
        note = make_note(path=f"{prefix}/{index:02d}")
        server.put_object(note)
        urns.append(str(note.urn))
    return urns


class TestListObjects:
    def test_lists_by_prefix(self, ethernet_bed):
        bed = ethernet_bed
        urns = populate(bed.server, "mail/inbox", 3)
        populate(bed.server, "web/pages", 2)
        listing = bed.access.list_objects(
            "server", "urn:rover:server/mail/"
        ).wait(bed.sim)
        assert listing == urns

    def test_unknown_authority_rejected(self, ethernet_bed):
        from repro.core.access_manager import AccessManagerError

        with pytest.raises(AccessManagerError):
            ethernet_bed.access.list_objects("nowhere")


class TestHoarder:
    def test_walk_fills_cache(self, ethernet_bed):
        bed = ethernet_bed
        urns = populate(bed.server, "mail/inbox", 4)
        profile = HoardProfile().add("urn:rover:server/mail/")
        hoarder = Hoarder(bed.access, "server", profile)
        walk = hoarder.walk()
        queued = walk.wait(bed.sim)
        assert queued == 4
        bed.access.drain()
        for urn in urns:
            assert urn in bed.access.cache

    def test_a_walk_whose_listings_fail_for_good_still_resolves(self, ethernet_bed):
        bed = ethernet_bed
        populate(bed.server, "mail/inbox", 3)
        populate(bed.server, "cal", 2)
        serve = bed.server._on_list

        def refuse_the_calendar(body, source):
            if body["prefix"].startswith("urn:rover:server/cal"):
                return {"status": "unauthorized"}
            return serve(body, source)

        bed.server_transport.register("rover.list", refuse_the_calendar)
        profile = (
            HoardProfile()
            .add("urn:rover:server/cal/")
            .add("urn:rover:server/mail/")
            .add("urn:rover:server/cal/private/")
        )
        hoarder = Hoarder(bed.access, "server", profile)
        # Both calendar listings fail for good, one of them last: the
        # walk still resolves, with what the mail listing queued.
        assert hoarder.walk().wait(bed.sim) == 3
        assert hoarder.objects_queued == 3

    def test_walk_pins_entries(self, ethernet_bed):
        bed = ethernet_bed
        urns = populate(bed.server, "cal", 2)
        profile = HoardProfile().add("urn:rover:server/cal/", pin=True)
        hoarder = Hoarder(bed.access, "server", profile)
        hoarder.walk().wait(bed.sim)
        bed.access.drain()
        for urn in urns:
            assert bed.access.cache.peek(urn).pinned

    def test_rewalk_skips_cached(self, ethernet_bed):
        bed = ethernet_bed
        populate(bed.server, "docs", 3)
        profile = HoardProfile().add("urn:rover:server/docs/")
        hoarder = Hoarder(bed.access, "server", profile)
        hoarder.walk().wait(bed.sim)
        bed.access.drain()
        second = hoarder.walk().wait(bed.sim)
        assert second == 0

    def test_walk_queues_across_disconnection(self):
        bed = build_testbed(
            link_spec=CSLIP_14_4, policy=IntervalTrace([(100.0, 1e9)])
        )
        urns = populate(bed.server, "mail/inbox", 3)
        profile = HoardProfile().add("urn:rover:server/mail/")
        hoarder = Hoarder(bed.access, "server", profile)
        walk = hoarder.walk()
        bed.sim.run(until=50)
        assert not walk.is_done  # listing itself is queued
        bed.sim.run(until=400)
        assert walk.ready
        assert bed.access.pending_count() == 0
        for urn in urns:
            assert urn in bed.access.cache

    def test_periodic_refresh_picks_up_new_objects(self, ethernet_bed):
        bed = ethernet_bed
        populate(bed.server, "news", 2)
        profile = HoardProfile().add("urn:rover:server/news/")
        hoarder = Hoarder(bed.access, "server", profile, refresh_interval_s=60.0)
        hoarder.start()
        bed.sim.run(until=10.0)
        assert len([u for u in bed.access.cache]) >= 2
        populate(bed.server, "news", 3)  # one more appears server-side
        bed.sim.run(until=100.0)
        hoarder.stop()
        assert "urn:rover:server/news/02" in bed.access.cache
        assert hoarder.walks >= 2

    def test_empty_profile_resolves_immediately(self, ethernet_bed):
        hoarder = Hoarder(ethernet_bed.access, "server", HoardProfile())
        walk = hoarder.walk()
        assert walk.ready
        assert walk.result() == 0


class TestInvalidationCallbacks:
    def test_other_clients_update_invalidates_cache(self):
        bed = build_multi_client_testbed(2, link_spec=ETHERNET_10M)
        note = make_note()
        bed.server.put_object(note)
        a, b = bed.clients
        a.access.import_(note.urn).wait(bed.sim)
        a.access.subscribe_invalidations("server", "urn:rover:server/notes/").wait(bed.sim)
        # B updates the object.
        b.access.import_(note.urn).wait(bed.sim)
        b.access.invoke(str(note.urn), "set_text", "from B")
        bed.sim.run(until=bed.sim.now + 30)
        # A's stale committed copy was dropped.
        assert str(note.urn) not in a.access.cache
        assert a.access.notifications.count(EventType.OBJECT_INVALIDATED) == 1
        assert bed.server.invalidations_sent == 1
        # A's next import fetches the fresh version.
        fresh = a.access.import_(note.urn).wait(bed.sim)
        assert fresh.data["text"] == "from B"

    def test_corrupt_callback_is_dropped_and_counted(self):
        """The listener is ``Transport.listen``: a callback whose seal
        is broken never reaches the cache and shows up in the counter
        every other corrupt frame shows up in."""
        from repro.core.server import INVALIDATION_PORT
        from repro.net.message import marshal, seal

        bed = build_multi_client_testbed(1, link_spec=ETHERNET_10M)
        note = make_note()
        bed.server.put_object(note)
        (a,) = bed.clients
        a.access.import_(note.urn).wait(bed.sim)
        a.access.subscribe_invalidations("server", "urn:rover:server/").wait(bed.sim)
        frame = bytearray(
            seal(b"R" + marshal({"kind": "invalidate", "urn": str(note.urn), "version": 9}))
        )
        frame[-1] ^= 0x01
        a.link.send(bed.server_host, INVALIDATION_PORT, bytes(frame))
        bed.sim.run(until=bed.sim.now + 5)
        assert str(note.urn) in a.access.cache
        assert a.access.notifications.count(EventType.OBJECT_INVALIDATED) == 0
        assert a.transport.corrupt_frames_detected == 1

    def test_writer_not_notified_of_own_update(self):
        bed = build_multi_client_testbed(1, link_spec=ETHERNET_10M)
        note = make_note()
        bed.server.put_object(note)
        (a,) = bed.clients
        a.access.import_(note.urn).wait(bed.sim)
        a.access.subscribe_invalidations("server", "urn:rover:server/").wait(bed.sim)
        a.access.invoke(str(note.urn), "set_text", "mine")
        bed.sim.run(until=bed.sim.now + 30)
        assert str(note.urn) in a.access.cache  # kept: it is the writer
        assert bed.server.invalidations_sent == 0

    def test_tentative_copy_survives_invalidation(self):
        bed = build_multi_client_testbed(2, link_spec=ETHERNET_10M)
        note = make_note()
        bed.server.put_object(note)
        a, b = bed.clients
        a.access.import_(note.urn).wait(bed.sim)
        a.access.subscribe_invalidations("server", "urn:rover:server/").wait(bed.sim)
        # A has local tentative changes when B's update lands.
        a.link.policy = IntervalTrace([(0.0, bed.sim.now + 5.0)])  # cut A off soon
        bed.sim.run(until=bed.sim.now + 1)
        a.access.invoke(str(note.urn), "set_text", "A's tentative edit")
        b.access.import_(note.urn).wait(bed.sim)
        b.access.invoke(str(note.urn), "set_text", "B's committed edit")
        bed.sim.run(until=bed.sim.now + 30)
        entry = a.access.cache.peek(str(note.urn))
        assert entry is not None  # never dropped while tentative

    def test_disconnected_subscriber_misses_callback(self):
        policies = [IntervalTrace([(0.0, 10.0), (1_000.0, 1e9)]), None]
        bed = build_multi_client_testbed(2, link_spec=ETHERNET_10M, policies=policies)
        note = make_note()
        bed.server.put_object(note)
        a, b = bed.clients
        a.access.import_(note.urn).wait(bed.sim)
        a.access.subscribe_invalidations("server", "urn:rover:server/").wait(bed.sim)
        bed.sim.run(until=20)  # A offline
        b.access.import_(note.urn).wait(bed.sim)
        b.access.invoke(str(note.urn), "set_text", "while A away")
        bed.sim.run(until=100)
        # The callback was lost (best-effort): A still holds the stale copy.
        assert str(note.urn) in a.access.cache
        stale = a.access.cache.peek(str(note.urn))
        assert stale.rdo.data["text"] == "hello"
        # Polling (max_age) closes the window after reconnection.
        bed.sim.run(until=1_100)
        fresh = a.access.import_(note.urn, max_age_s=0.0).wait(bed.sim)
        assert fresh.data["text"] == "while A away"