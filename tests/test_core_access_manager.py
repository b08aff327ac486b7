"""Access manager tests: the client-side QRPC/cache/session machinery."""

import pytest

from repro.core.access_manager import AccessManagerError
from repro.core.naming import URN
from repro.core.notification import EventType
from repro.core.qrpc import Operation
from repro.net.link import CSLIP_14_4, ETHERNET_10M, IntervalTrace
from repro.net.scheduler import Priority
from repro.testbed import build_testbed
from tests.conftest import make_note


def test_import_miss_goes_to_server(ethernet_bed):
    bed = ethernet_bed
    note = make_note()
    bed.server.put_object(note)
    promise = bed.access.import_(note.urn)
    assert not promise.is_done  # non-blocking
    rdo = promise.wait(bed.sim)
    assert rdo.data == {"text": "hello"}
    assert rdo.version == 1
    assert str(note.urn) in bed.access.cache


def test_import_hit_serves_from_cache(ethernet_bed):
    bed = ethernet_bed
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    served_before = bed.server.imports_served
    rdo = bed.access.import_(note.urn).wait(bed.sim)
    assert rdo.data == {"text": "hello"}
    assert bed.server.imports_served == served_before  # no network trip


def test_import_missing_object_rejects(ethernet_bed):
    bed = ethernet_bed
    promise = bed.access.import_(URN("server", "absent"))
    bed.sim.run()
    assert promise.failed
    assert "not-found" in promise.error


def test_import_refresh_forces_round_trip(ethernet_bed):
    bed = ethernet_bed
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    # Server-side change invisible to the cache...
    fresh = make_note(text="v2")
    bed.server.put_object(fresh)
    stale = bed.access.import_(note.urn).wait(bed.sim)
    assert stale.data["text"] == "hello"
    refreshed = bed.access.import_(note.urn, refresh=True).wait(bed.sim)
    assert refreshed.data["text"] == "v2"


def test_invoke_requires_cached_object(ethernet_bed):
    with pytest.raises(AccessManagerError, match="not cached"):
        ethernet_bed.access.invoke(URN("server", "nope"), "read")


def test_mutating_invoke_queues_export_and_commits(ethernet_bed):
    bed = ethernet_bed
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    result, cost = bed.access.invoke(note.urn, "set_text", "edited")
    assert result == "edited"
    assert cost > 0
    entry = bed.access.cache.peek(str(note.urn))
    assert entry.tentative
    assert bed.access.drain()
    assert not bed.access.cache.peek(str(note.urn)).tentative
    assert bed.server.get_object(str(note.urn)).data == {"text": "edited"}


def test_sequential_mutations_coalesce(ethernet_bed):
    """Many local updates produce few exports, and never self-conflict."""
    bed = ethernet_bed
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    for n in range(10):
        bed.access.invoke(note.urn, "set_text", f"v{n}")
    assert bed.access.drain()
    server_copy = bed.server.get_object(str(note.urn))
    assert server_copy.data == {"text": "v9"}
    assert bed.server.exports_conflicted == 0
    # Far fewer exports than mutations (first + coalesced remainder).
    assert bed.server.exports_committed <= 3


def test_an_export_round_that_owes_nothing_forgets_its_object(ethernet_bed):
    """The per-object export state lives while a round is in flight or
    owed, not for every object the client ever exported."""
    bed = ethernet_bed
    urns = [f"urn:rover:server/notes/n{n}" for n in range(50)]
    for n, urn in enumerate(urns):
        bed.server.put_object(make_note(path=f"notes/n{n}"))
        bed.access.import_(urn).wait(bed.sim)
    for n, urn in enumerate(urns):
        bed.access.invoke(urn, "set_text", f"v{n}")
    assert len(bed.access._exports.rounds) == 50
    assert bed.access.drain()
    assert bed.access._exports.rounds == {}
    assert [bed.server.get_object(urn).data["text"] for urn in urns] == [f"v{n}" for n in range(50)]


def test_a_follow_up_round_for_an_evicted_object_forgets_it(cslip_bed):
    bed = cslip_bed
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    bed.access.invoke(note.urn, "set_text", "first")
    bed.sim.run(until=bed.sim.now + 0.05)
    followup = bed.access.export(note.urn)  # owed once the first round ends
    bed.access.cache.invalidate(str(note.urn))
    assert bed.access.drain()
    assert followup.failed and bed.access._exports.rounds == {}


def test_export_snapshot_isolated_from_later_mutations(cslip_bed):
    """The first export carries the state at round start even if the
    app keeps mutating while it is on the (slow) wire."""
    bed = cslip_bed
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    bed.access.invoke(note.urn, "set_text", "first")
    committed_versions = []
    bed.access.notifications.subscribe(
        EventType.OBJECT_COMMITTED,
        lambda n: committed_versions.append(n.details["version"]),
    )
    # Mutate again while the first export is in flight.
    bed.sim.run(until=0.05)
    bed.access.invoke(note.urn, "set_text", "second")
    assert bed.access.drain()
    assert bed.server.get_object(str(note.urn)).data == {"text": "second"}
    assert len(committed_versions) == 2


def test_import_does_not_clobber_tentative(ethernet_bed):
    bed = ethernet_bed
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    bed.access.invoke(note.urn, "set_text", "local-edit")
    rdo = bed.access.import_(note.urn, refresh=True).wait(bed.sim)
    assert rdo.data["text"] == "local-edit"


def test_session_rejecting_tentative_reimports(ethernet_bed):
    bed = ethernet_bed
    note = make_note()
    bed.server.put_object(note)
    strict = bed.access.create_session("strict", accept_tentative=False)
    relaxed = bed.access.create_session("relaxed", accept_tentative=True)
    bed.access.import_(note.urn, relaxed).wait(bed.sim)
    bed.access.invoke(note.urn, "set_text", "dirty", session=relaxed)
    served_before = bed.server.imports_served
    bed.access.import_(note.urn, strict)
    bed.sim.run(until=bed.sim.now + 0.001)
    # The strict session cannot be satisfied from the tentative copy:
    # a real import went to the server.
    bed.sim.run_until(lambda: bed.server.imports_served > served_before, timeout=10)
    assert bed.server.imports_served == served_before + 1


def test_queued_while_disconnected_drains_on_reconnect():
    bed = build_testbed(
        link_spec=CSLIP_14_4, policy=IntervalTrace([(0.0, 1.0), (100.0, 1e9)])
    )
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)

    bed.sim.run(until=10)  # now disconnected
    assert not bed.link.is_up
    bed.access.invoke(note.urn, "set_text", "offline-edit")  # does not block
    promise = bed.access.import_(URN("server", "notes/n1"))  # cache hit works too
    bed.sim.run(until=50)
    assert promise.ready
    assert bed.server.get_object(str(note.urn)).data == {"text": "hello"}

    bed.sim.run(until=200)  # reconnected at t=100
    assert bed.server.get_object(str(note.urn)).data == {"text": "offline-edit"}
    assert bed.access.pending_count() == 0


def test_prefetch_uses_background_priority(ethernet_bed):
    bed = ethernet_bed
    urns = []
    for n in range(3):
        note = make_note(path=f"notes/p{n}")
        bed.server.put_object(note)
        urns.append(note.urn)
    promises = bed.access.prefetch(urns)
    bed.sim.run()
    assert all(p.ready for p in promises)
    assert len(bed.access.cache) == 3


def test_invoke_remote_executes_at_server(ethernet_bed):
    bed = ethernet_bed
    note = make_note(text="server text")
    bed.server.put_object(note)
    promise = bed.access.invoke_remote(note.urn, "length")
    assert promise.wait(bed.sim) == len("server text")
    assert bed.server.invokes_served == 1


def test_ship_round_trip(ethernet_bed):
    bed = ethernet_bed
    bed.server.put_object(make_note(path="notes/a", text="aa"))
    bed.server.put_object(make_note(path="notes/b", text="bbb"))
    code = (
        "def main():\n"
        "    total = 0\n"
        "    for key in objects('urn:rover:server/notes/'):\n"
        "        total = total + len(lookup(key)['text'])\n"
        "    return total\n"
    )
    promise = bed.access.ship("server", code)
    assert promise.wait(bed.sim) == 5


def test_ship_to_unknown_authority_rejected(ethernet_bed):
    with pytest.raises(AccessManagerError, match="unknown authority"):
        ethernet_bed.access.ship("nowhere", "def main():\n    return 1\n")


def test_flush_time_charged(cslip_bed):
    bed = cslip_bed
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    assert bed.access.flush_seconds_total > 0


def test_crash_recovery_resubmits_pending():
    """After a 'crash', a fresh access manager over the same log
    re-submits the queued QRPCs and the server converges."""
    from repro.core.access_manager import AccessManager
    from repro.core.notification import NotificationCenter
    from repro.core.object_cache import ObjectCache
    from repro.core.operation_log import OperationLog
    from repro.storage.stable_log import StableLog

    bed = build_testbed(
        link_spec=ETHERNET_10M, policy=IntervalTrace([(0.0, 1.0), (100.0, 1e9)])
    )
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    bed.sim.run(until=10)
    bed.access.invoke(note.urn, "set_text", "pre-crash-edit")
    backend = bed.access.log.stable.backend
    assert bed.access.pending_count() == 1

    # Crash: new toolkit instance over the recovered log.
    reborn = AccessManager(
        bed.sim,
        bed.scheduler,
        servers={"server": bed.server_host},
        cache=ObjectCache(clock=lambda: bed.sim.now),
        log=OperationLog(StableLog(backend)),
        notifications=NotificationCenter(),
    )
    resubmitted = reborn.recover()
    assert len(resubmitted) == 1
    bed.sim.run(until=300)
    assert bed.server.get_object(str(note.urn)).data == {"text": "pre-crash-edit"}
    assert reborn.pending_count() == 0


def test_notifications_published(ethernet_bed):
    bed = ethernet_bed
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    bed.access.invoke(note.urn, "set_text", "x")
    bed.access.drain()
    center = bed.access.notifications
    assert center.count(EventType.REQUEST_QUEUED) >= 2  # import + export
    assert center.count(EventType.OBJECT_IMPORTED) == 1
    assert center.count(EventType.TENTATIVE_CREATED) == 1
    assert center.count(EventType.OBJECT_COMMITTED) == 1


def test_connectivity_notifications():
    bed = build_testbed(
        link_spec=ETHERNET_10M,
        policy=IntervalTrace([(0.0, 5.0), (10.0, 20.0)]),
    )
    bed.sim.run(until=25)
    events = bed.access.notifications.of_type(EventType.CONNECTIVITY_CHANGED)
    ups = [e.details["up"] for e in events]
    assert ups == [False, True, False]


def test_resolved_export_while_dirty_preserves_concurrent_updates():
    """Regression: when an export comes back 'resolved' while further
    local mutations are pending, the next round must three-way merge
    against the server's merged value — not adopt the new version as
    its base and clobber the other client's updates (silent loss)."""
    from repro.apps.mail import MailServerApp, RoverMailReader
    from repro.testbed import build_multi_client_testbed

    bed = build_multi_client_testbed(2, link_spec=ETHERNET_10M)
    app = MailServerApp(bed.server)
    app.create_folder("shared")
    a, b = bed.clients
    reader_a = RoverMailReader(a.access, bed.authority)
    reader_b = RoverMailReader(b.access, bed.authority)
    reader_a.open_folder("shared").wait(bed.sim)
    reader_b.open_folder("shared").wait(bed.sim)

    # A appends twice in rapid succession (the second lands while the
    # first export is in flight -> dirty round), and B appends
    # concurrently so A's first export resolves via append-merge.
    reader_a.send_message("shared", {"id": "a-1", "subject": "s", "body": "x"})
    reader_b.send_message("shared", {"id": "b-1", "subject": "s", "body": "y"})
    bed.sim.run(until=bed.sim.now + 0.001)
    reader_a.send_message("shared", {"id": "a-2", "subject": "s", "body": "z"})
    bed.sim.run(until=bed.sim.now + 60)

    index = bed.server.get_object(str(app.folder_urn("shared"))).data["index"]
    ids = {entry["id"] for entry in index}
    assert ids == {"a-1", "a-2", "b-1"}  # nothing silently lost


# -- re-import: an import reply the client cannot use as it stands ----------


def _queued_imports(bed) -> list[str]:
    return [
        n.details["request_id"]
        for n in bed.access.notifications.of_type(EventType.REQUEST_QUEUED)
        if n.details["operation"] == str(Operation.IMPORT)
    ]


def _put_new_version(bed, urn: str, text: str) -> int:
    """Commit a change at the server behind the client's back."""
    current = bed.server.get_object(urn)
    version = current.version + 1
    assert bed.server.install(urn, version, {**current.data, "text": text})
    return version


def test_delta_reply_whose_base_left_the_cache_reimports_in_full():
    bed = build_testbed(link_spec=CSLIP_14_4, delta_shipping=True)
    note = make_note(text="v1")
    note.data = {"pad": "p" * 400, "text": "v1"}
    bed.server.put_object(note)
    urn = str(note.urn)
    bed.access.import_(urn).wait(bed.sim)
    version = _put_new_version(bed, urn, "v2")

    waiters = [bed.access.import_(urn, refresh=True) for __ in range(2)]
    # The warm request (it names the version held) is on its way; the
    # base it promised leaves the cache before the delta comes back.
    assert bed.access.cache.invalidate(urn)
    bed.sim.run()

    queued = _queued_imports(bed)
    assert len(queued) == len(set(queued)) == 3  # cold, warm, and the full retry
    assert all(p.ready and not p.failed for p in waiters)
    assert [p.value.data["text"] for p in waiters] == ["v2", "v2"]
    entry = bed.access.cache.peek(urn)
    assert entry.rdo.version == entry.base_version == version
    assert bed.access.pending_count() == 0


def test_import_reply_violating_a_session_guarantee_reimports():
    bed = build_testbed(link_spec=CSLIP_14_4)
    note = make_note(text="v1")
    bed.server.put_object(note)
    urn = str(note.urn)
    # The session has already seen a newer version than this server
    # copy (read elsewhere): version 1 would break monotonic reads.
    session = bed.access.create_session("s")
    session.record_read(urn, 2)

    waiters = [bed.access.import_(urn, session) for __ in range(2)]
    bed.sim.run_until(lambda: len(_queued_imports(bed)) == 2, timeout=60)
    first, retry = _queued_imports(bed)
    assert retry != first
    assert not any(p.is_done for p in waiters)  # the stale copy was not served

    assert _put_new_version(bed, urn, "v2") == 2  # the server catches up
    bed.sim.run()
    assert all(p.ready and not p.failed for p in waiters)
    assert [p.value.version for p in waiters] == [2, 2]
    assert len(_queued_imports(bed)) == 2
    assert session.reads()[urn] == 2
    assert bed.access.pending_count() == 0
