"""End-to-end integration: disconnection cycles, relay fallback,
failure injection, and cross-app flows on one testbed."""

import pytest

from repro.apps.calendar import CalendarReplica, install_calendar
from repro.apps.mail import MailServerApp, RoverMailReader
from repro.apps.webproxy import ClickAheadProxy, WebServerApp
from repro.core.naming import URN
from repro.core.notification import EventType
from repro.net.link import (
    CSLIP_14_4,
    ETHERNET_10M,
    WAVELAN_2M,
    AlwaysDown,
    IntervalTrace,
    LinkSpec,
    PeriodicSchedule,
)
from repro.testbed import build_multi_client_testbed, build_testbed
from repro.workloads import (
    CalendarOp,
    generate_connectivity_trace,
    generate_mail_corpus,
    generate_site,
)
from tests.conftest import make_note


def test_full_disconnect_work_reconnect_cycle():
    """The paper's core scenario: cache while docked, work on the road,
    sync on return — nothing blocks, everything converges."""
    bed = build_testbed(
        link_spec=CSLIP_14_4,
        policy=IntervalTrace([(0.0, 600.0), (4_000.0, 1e9)]),
    )
    corpus = generate_mail_corpus(seed=9, n_folders=1, messages_per_folder=5)
    MailServerApp(bed.server, corpus)
    reader = RoverMailReader(bed.access, bed.authority)

    # Docked: prefetch the folder.
    reader.prefetch_folder("inbox").wait(bed.sim)
    bed.access.drain(timeout=550)
    assert bed.access.pending_count() == 0

    # On the road (disconnected): read everything, mark everything.
    bed.sim.run(until=1_000)
    assert not bed.link.is_up
    for entry in reader.folder_index("inbox"):
        promise = reader.read_message("inbox", entry["id"])
        assert promise.wait(bed.sim, timeout=1.0) is not None
    assert reader.cache_hit_reads == 5
    assert bed.access.pending_count() > 0  # queued flag exports
    tentative = bed.access.cache.tentative_urns()
    assert len(tentative) == 5

    # Back home: the log drains, flags commit.
    bed.sim.run(until=5_000)
    assert bed.access.pending_count() == 0
    assert bed.access.cache.tentative_urns() == []
    for entry in reader.folder_index("inbox"):
        server_msg = bed.server.get_object(
            str(reader.message_urn("inbox", entry["id"]))
        )
        assert server_msg.data["flags"]["read"] is True


def test_smtp_fallback_when_direct_link_down():
    """QRPCs flow through the relay while the direct link is down, and
    switch back to the direct link when it returns."""
    bed = build_testbed(
        link_spec=ETHERNET_10M,
        policy=IntervalTrace([(0.0, 1.0), (500.0, 1e9)]),
        with_relay=True,
        relay_link_spec=CSLIP_14_4,
    )
    note = make_note()
    bed.server.put_object(note)

    bed.sim.run(until=10)  # direct link now down; relay up
    promise = bed.access.import_(note.urn)
    rdo = promise.wait(bed.sim, timeout=400)
    assert rdo.data == {"text": "hello"}
    assert bed.relay.accepted >= 1  # went through the mail system
    assert bed.sim.now < 500  # did NOT wait for the direct link

    # After the direct link returns, traffic prefers it again.
    bed.sim.run(until=600)
    accepted_before = bed.relay.accepted
    promise = bed.access.import_(URN("server", "notes/n1"), refresh=True)
    promise.wait(bed.sim, timeout=60)
    assert bed.relay.accepted == accepted_before


def test_flapping_link_eventually_syncs():
    """Short connectivity windows with a slow link: retransmission and
    queue draining across many flaps still converge."""
    bed = build_testbed(
        link_spec=CSLIP_14_4,
        policy=PeriodicSchedule(up_duration=30.0, down_duration=90.0),
    )
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim, timeout=500)
    bed.access.invoke(note.urn, "set_text", "synced eventually")
    assert bed.access.drain(timeout=3_000)
    assert bed.server.get_object(str(note.urn)).data == {"text": "synced eventually"}


def test_lossy_link_retransmits_with_at_most_once():
    """20% loss: scheduler retries, server dedups; state is applied once."""
    lossy = LinkSpec(
        "lossy-cslip", 14_400.0, 0.1, header_bytes=5, mtu=296, loss_rate=0.2
    )
    bed = build_testbed(link_spec=lossy, seed=13)
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim, timeout=2_000)
    for n in range(3):
        bed.access.invoke(note.urn, "set_text", f"edit-{n}")
    assert bed.access.drain(timeout=5_000)
    assert bed.server.get_object(str(note.urn)).data == {"text": "edit-2"}
    # No double application despite any retransmissions.
    assert bed.server.exports_conflicted == 0


def test_three_apps_share_one_toolkit_instance():
    """Mail, calendar, and web traffic interleave over one access manager."""
    bed = build_testbed(link_spec=WAVELAN_2M)
    corpus = generate_mail_corpus(seed=21, n_folders=1, messages_per_folder=3)
    MailServerApp(bed.server, corpus)
    site = generate_site(seed=21, n_pages=5)
    WebServerApp(bed.server, site)
    cal_urn, __ = install_calendar(bed.server)

    reader = RoverMailReader(bed.access, bed.authority)
    proxy = ClickAheadProxy(bed.access, bed.authority, prefetch_links=False)
    replica = CalendarReplica(bed.access, cal_urn)

    folder_promise = reader.open_folder("inbox")
    page_view = proxy.navigate(site.root)
    checkout = replica.checkout()
    bed.sim.run_until(
        lambda: folder_promise.is_done and page_view.displayed and checkout.is_done,
        timeout=600,
    )
    replica.apply_op(
        CalendarOp(op="add", event_id="e1", title="t", room="r", slot=1, alt_slots=[])
    )
    assert bed.access.drain(timeout=600)
    assert len(bed.access.cache) == 3
    assert bed.server.get_object(str(cal_urn)).data["events"]


def test_random_connectivity_trace_mail_session():
    """A generated up/down trace: everything queued eventually lands."""
    trace = generate_connectivity_trace(seed=5, horizon_s=4_000, mean_up_s=120, mean_down_s=240)
    assert trace, "trace generator produced no up intervals"
    # Guarantee a final long window so the tail of the queue drains.
    trace.append((4_500.0, 1e9))
    bed = build_testbed(link_spec=CSLIP_14_4, policy=IntervalTrace(trace))
    corpus = generate_mail_corpus(seed=5, n_folders=1, messages_per_folder=6)
    MailServerApp(bed.server, corpus)
    reader = RoverMailReader(bed.access, bed.authority)
    reader.prefetch_folder("inbox")
    bed.sim.run(until=6_000)
    assert bed.access.pending_count() == 0
    assert len(bed.access.cache) == 7


def test_notifications_tell_the_whole_story():
    bed = build_testbed(
        link_spec=CSLIP_14_4, policy=IntervalTrace([(0.0, 60.0), (120.0, 1e9)])
    )
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    bed.sim.run(until=70)
    bed.access.invoke(note.urn, "set_text", "x")
    bed.sim.run(until=300)
    center = bed.access.notifications
    kinds = [n.event for n in center.history]
    assert EventType.OBJECT_IMPORTED in kinds
    assert EventType.CONNECTIVITY_CHANGED in kinds
    assert EventType.TENTATIVE_CREATED in kinds
    assert EventType.OBJECT_COMMITTED in kinds
    # Tentative state was created strictly before its commit.
    t_created = next(n.time for n in center.history if n.event is EventType.TENTATIVE_CREATED)
    t_committed = next(n.time for n in center.history if n.event is EventType.OBJECT_COMMITTED)
    assert t_created < t_committed


def test_multi_client_mail_and_calendar_convergence():
    """Two mobile users with different connectivity patterns share a
    calendar and a folder; the server ends consistent."""
    policies = [
        IntervalTrace([(0.0, 20.0), (200.0, 1e9)]),
        IntervalTrace([(0.0, 20.0), (300.0, 1e9)]),
    ]
    bed = build_multi_client_testbed(2, link_spec=WAVELAN_2M, policies=policies)
    app = MailServerApp(bed.server)
    app.create_folder("shared")
    cal_urn, merge = install_calendar(bed.server)

    readers = [RoverMailReader(c.access, bed.authority) for c in bed.clients]
    replicas = [CalendarReplica(c.access, cal_urn) for c in bed.clients]
    for reader, replica in zip(readers, replicas):
        reader.open_folder("shared").wait(bed.sim)
        replica.checkout().wait(bed.sim)

    bed.sim.run(until=30)  # both disconnected now
    readers[0].send_message("shared", {"id": "a-1", "subject": "A", "body": "aaa"})
    replicas[0].apply_op(
        CalendarOp(op="add", event_id="a-ev", title="A", room="r", slot=1, alt_slots=[2])
    )
    readers[1].send_message("shared", {"id": "b-1", "subject": "B", "body": "bb"})
    replicas[1].apply_op(
        CalendarOp(op="add", event_id="b-ev", title="B", room="r", slot=1, alt_slots=[3])
    )
    bed.sim.run(until=800)
    folder_index = bed.server.get_object(str(app.folder_urn("shared"))).data["index"]
    assert {e["id"] for e in folder_index} == {"a-1", "b-1"}
    events = bed.server.get_object(str(cal_urn)).data["events"]
    assert set(events) == {"a-ev", "b-ev"}
    slots = {e["slot"] for e in events.values()}
    assert len(slots) == 2  # double booking repaired


def test_triage_session_drains_as_a_few_compressed_frames():
    """The reconnect drain in miniature (perfbench's ``mail_slowlink``,
    one session): a 40-message folder triaged offline with compaction
    and delta shipping on leaves ~42 small, near-identical exports
    queued.  On CSLIP-14.4 they used to cross one uncompressed frame
    each (7.1 virtual seconds, 15.9 KB); coalesced and compressed they
    are three frames."""
    from repro.net.scheduler import Priority

    reconnect_at = 2000.0
    bed = build_testbed(
        link_spec=CSLIP_14_4,
        policy=IntervalTrace([(0.0, 900.0), (reconnect_at, 1e12)]),
        compaction=True,
        delta_shipping=True,
    )
    corpus = generate_mail_corpus(
        seed=14, n_folders=1, messages_per_folder=40, mean_body_bytes=1024
    )
    MailServerApp(bed.server, corpus).create_folder("outbox")
    reader = RoverMailReader(bed.access, bed.authority)
    reader.prefetch_folder("inbox")
    reader.open_folder("outbox")
    bed.sim.run(until=890.0)
    assert bed.access.pending_count() == 0
    warm_bytes = bed.link.bytes_carried

    bed.sim.run(until=1000.0)  # disconnected
    ids = [entry["id"] for entry in reader.folder_index("inbox")]
    for msg_id in ids:
        bed.access.invoke(
            reader.message_urn("inbox", msg_id), "mark_read", session=reader.session
        )
    for msg_id in ids[::2]:
        bed.access.invoke(
            reader.message_urn("inbox", msg_id), "mark_deleted", session=reader.session
        )
    for n in range(6):
        reader.send_message(
            "outbox", {"id": f"reply-{n}", "from": "me", "subject": f"re {n}", "body": "x" * 200}
        )
    reimport = bed.access.import_(
        reader.folder_urn("inbox"),
        session=reader.session,
        priority=Priority.BACKGROUND,
        refresh=True,
    )
    bed.sim.run(until=reconnect_at - 1.0)
    assert bed.access.pending_count() == 42

    assert bed.access.drain(timeout=600.0)
    bed.sim.run(until=bed.sim.now + 60.0)
    last_response = max(
        note.time
        for note in bed.access.notifications.history
        if note.event is EventType.RESPONSE_ARRIVED
    )
    assert last_response - reconnect_at <= 1.5
    assert bed.link.bytes_carried - warm_bytes <= 2048
    assert 1 <= bed.scheduler.batches_sent <= 4
    # Every member was served and acknowledged on its own.
    assert reimport.ready
    for msg_id in ids:
        flags = bed.server.get_object(str(reader.message_urn("inbox", msg_id))).data["flags"]
        assert flags.get("read") is True
        assert (flags.get("deleted") is True) == (msg_id in ids[::2])
    outbox = bed.server.get_object(str(reader.folder_urn("outbox"))).data["index"]
    assert [entry["id"] for entry in outbox] == [f"reply-{n}" for n in range(6)]
    assert bed.server.exports_conflicted == 0
