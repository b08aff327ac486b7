"""Tests for application-level locks, QRPC batching, and load."""

import pytest

from repro.core.notification import EventType
from repro.net.link import CSLIP_2_4, CSLIP_14_4, ETHERNET_10M, IntervalTrace
from repro.testbed import build_multi_client_testbed, build_testbed
from tests.conftest import make_note


class TestLocks:
    def make_two(self):
        bed = build_multi_client_testbed(2, link_spec=ETHERNET_10M)
        note = make_note()
        bed.server.put_object(note)
        a, b = bed.clients
        session_a = a.access.create_session("alice")
        session_b = b.access.create_session("bob")
        return bed, note, a, b, session_a, session_b

    def test_lock_grants_and_blocks(self):
        bed, note, a, b, sa, sb = self.make_two()
        grant = a.access.acquire_lock(note.urn, sa).wait(bed.sim)
        assert grant["status"] == "ok"
        denied = b.access.acquire_lock(note.urn, sb)
        bed.sim.run()
        assert denied.failed
        assert "locked" in denied.error
        assert bed.server.locks_denied == 1

    def test_lock_is_reentrant_for_holder(self):
        bed, note, a, b, sa, sb = self.make_two()
        a.access.acquire_lock(note.urn, sa).wait(bed.sim)
        again = a.access.acquire_lock(note.urn, sa).wait(bed.sim)
        assert again["status"] == "ok"

    def test_unlock_releases(self):
        bed, note, a, b, sa, sb = self.make_two()
        a.access.acquire_lock(note.urn, sa).wait(bed.sim)
        a.access.release_lock(note.urn, sa).wait(bed.sim)
        grant = b.access.acquire_lock(note.urn, sb).wait(bed.sim)
        assert grant["status"] == "ok"

    def test_non_holder_cannot_unlock(self):
        bed, note, a, b, sa, sb = self.make_two()
        a.access.acquire_lock(note.urn, sa).wait(bed.sim)
        stolen = b.access.release_lock(note.urn, sb)
        bed.sim.run()
        assert stolen.failed
        # The lock still holds.
        denied = b.access.acquire_lock(note.urn, sb)
        bed.sim.run()
        assert denied.failed

    def test_lease_expires(self):
        bed, note, a, b, sa, sb = self.make_two()
        a.access.acquire_lock(note.urn, sa, lease_s=30.0).wait(bed.sim)
        bed.sim.run(until=bed.sim.now + 60.0)
        grant = b.access.acquire_lock(note.urn, sb).wait(bed.sim)
        assert grant["status"] == "ok"

    def test_locked_object_rejects_other_sessions_export(self):
        bed, note, a, b, sa, sb = self.make_two()
        a.access.acquire_lock(note.urn, sa).wait(bed.sim)
        # Both import; only the holder's export commits.
        a.access.import_(note.urn, sa).wait(bed.sim)
        b.access.import_(note.urn, sb).wait(bed.sim)
        b.access.invoke(str(note.urn), "set_text", "intruder", session=sb)
        bed.sim.run(until=bed.sim.now + 30)
        assert bed.server.get_object(str(note.urn)).data == {"text": "hello"}
        a.access.invoke(str(note.urn), "set_text", "holder", session=sa)
        bed.sim.run(until=bed.sim.now + 30)
        assert bed.server.get_object(str(note.urn)).data == {"text": "holder"}

    def test_holder_exports_conflict_free(self):
        """The whole point: lock then edit means no conflicts ever."""
        bed, note, a, b, sa, sb = self.make_two()
        a.access.acquire_lock(note.urn, sa).wait(bed.sim)
        a.access.import_(note.urn, sa).wait(bed.sim)
        for n in range(3):
            a.access.invoke(str(note.urn), "set_text", f"v{n}", session=sa)
        bed.sim.run(until=bed.sim.now + 30)
        assert bed.server.exports_conflicted == 0
        a.access.release_lock(note.urn, sa).wait(bed.sim)

    @pytest.mark.parametrize("lease_s", [float("nan"), float("inf"), -5.0, 0.0, "soon"])
    def test_a_lease_that_never_or_already_ended_is_refused(self, lease_s):
        """A NaN or infinite lease never expired, so the object stayed
        locked to everyone else for good; a negative one was granted as
        ``ok``.  Each is refused with a status reply and no state change."""
        bed, note, a, b, sa, sb = self.make_two()
        refused = a.access.acquire_lock(note.urn, sa, lease_s=lease_s)
        bed.sim.run()
        assert refused.failed and refused.error == "invalid-lease"
        assert bed.server._locks == {} and bed.server.locks_granted == 0
        assert a.scheduler.retransmissions == 0  # answered, not raised: never retried
        bed.sim.run(until=bed.sim.now + 1e6)
        assert bed.server.sweep_expired_locks() == 0
        grant = b.access.acquire_lock(note.urn, sb).wait(bed.sim)
        assert grant["status"] == "ok"


class TestBatching:
    """Coalesced draining through the full stack, prototype vs. default."""

    def test_batched_drain_uses_fewer_exchanges(self):
        results = {}
        for label, adapt in (("unbatched", False), ("batched", True)):
            bed = build_testbed(
                # 2.4k: even an 80 B import request costs more line
                # time than the link's propagation delay.
                link_spec=CSLIP_2_4,
                policy=IntervalTrace([(100.0, 1e9)]),
                adapt_to_link=adapt,
                max_inflight=1,
            )
            urns = []
            for n in range(8):
                note = make_note(path=f"notes/b{n}")
                bed.server.put_object(note)
                urns.append(note.urn)
            promises = [bed.access.import_(urn) for urn in urns]
            bed.sim.run(until=400)
            assert all(p.ready for p in promises)
            results[label] = {
                "messages": bed.client_transport.messages_sent,
                "done_at": max(
                    bed.access.cache.peek(str(urn)).inserted_at for urn in urns
                ),
                "batches": bed.scheduler.batches_sent,
            }
        assert results["unbatched"]["batches"] == 0
        assert results["batched"]["batches"] >= 1
        assert results["batched"]["messages"] < results["unbatched"]["messages"]
        # Fewer round trips and fewer bytes: faster drain.
        assert results["batched"]["done_at"] < results["unbatched"]["done_at"]

    def test_batch_members_keep_individual_outcomes(self):
        bed = build_testbed(
            link_spec=CSLIP_2_4,
            policy=IntervalTrace([(10.0, 1e9)]),
            max_inflight=1,
        )
        good = make_note(path="notes/exists")
        bed.server.put_object(good)
        ok_promise = bed.access.import_(good.urn)
        bad_promise = bed.access.import_("urn:rover:server/notes/missing")
        bed.sim.run(until=60)
        assert bed.scheduler.batches_sent == 1
        assert ok_promise.ready
        assert bad_promise.failed

    def test_mutations_apply_once_within_batch(self):
        bed = build_testbed(
            link_spec=CSLIP_2_4,
            policy=IntervalTrace([(0.0, 30.0), (40.0, 1e9)]),
        )
        notes = [make_note(path=f"notes/m{n}") for n in range(4)]
        for note in notes:
            bed.server.put_object(note)
            bed.access.import_(note.urn)
        bed.sim.run(until=31.0)
        # Offline edits: the exports leave together on reconnection.
        for n, note in enumerate(notes):
            bed.access.invoke(str(note.urn), "set_text", f"batched edit {n}")
        assert bed.access.drain(timeout=120)
        assert bed.scheduler.batches_sent >= 1
        for n, note in enumerate(notes):
            server_copy = bed.server.get_object(str(note.urn))
            assert server_copy.data == {"text": f"batched edit {n}"}
            assert server_copy.version == 2
        assert bed.server.exports_conflicted == 0

    def test_a_later_member_cannot_rewrite_an_earlier_members_answer(self):
        """An import reply holds the store's live data by reference; a
        member served after it in the same frame mutates that object in
        place.  The import must see the object as it was when *it* was
        served — version 1's text, not version 1 with version 2's."""
        bed = build_testbed(link_spec=CSLIP_14_4, policy=IntervalTrace([(10.0, 1e9)]))
        other = make_note(path="notes/other")
        note = make_note(path="notes/n1", text="before")
        bed.server.put_object(other)
        bed.server.put_object(note)
        # A head big enough for its bytes to dominate: the backlog
        # behind it shares its frame.
        bed.access.invoke_remote(other.urn, "set_text", ["y" * 600])
        imported = bed.access.import_(note.urn)
        bed.access.invoke_remote(note.urn, "set_text", ["after"])
        assert bed.access.drain(timeout=120)
        assert bed.scheduler.batches_sent == 1
        assert (imported.value.version, imported.value.data) == (1, {"text": "before"})
        assert bed.server.get_object(str(note.urn)).data == {"text": "after"}


class TestLoad:
    def test_load_imports_and_invokes(self, ethernet_bed):
        bed = ethernet_bed
        note = make_note(text="loaded text")
        bed.server.put_object(note)
        result = bed.access.load(note.urn, "length").wait(bed.sim)
        assert result == len("loaded text")
        assert str(note.urn) in bed.access.cache

    def test_load_mutating_method_queues_export(self, ethernet_bed):
        bed = ethernet_bed
        note = make_note()
        bed.server.put_object(note)
        result = bed.access.load(note.urn, "set_text", "via load").wait(bed.sim)
        assert result == "via load"
        bed.access.drain()
        assert bed.server.get_object(str(note.urn)).data == {"text": "via load"}

    def test_load_missing_object_rejects(self, ethernet_bed):
        promise = ethernet_bed.access.load("urn:rover:server/nope", "read")
        ethernet_bed.sim.run()
        assert promise.failed

    def test_load_bad_method_rejects(self, ethernet_bed):
        bed = ethernet_bed
        note = make_note()
        bed.server.put_object(note)
        promise = bed.access.load(note.urn, "not_a_method")
        bed.sim.run()
        assert promise.failed
