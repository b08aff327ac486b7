"""Server crash/restart: the object table survives, volatile caches do not.

The interesting correctness question: the at-most-once applied-reply
cache is volatile, so after a restart a retransmitted export is *not*
recognized as a duplicate there.  The system still converges: a write
that committed is answered from its object's committer index, and a
replay that meets a newer version flows through the type-specific
resolver, which merges it idempotently for well-formed types.
"""

from repro.apps.mail import MailServerApp, RoverMailReader
from repro.chaos import ChaosController
from repro.core.conflict import FieldwiseMerge
from repro.net.link import ETHERNET_10M, IntervalTrace
from repro.net.message import marshal
from repro.testbed import build_testbed
from tests.conftest import make_note


def crash_and_restart(bed) -> None:
    """Simulate a server restart in place: what is durable stays."""
    bed.server.restart()


def test_a_crash_and_restart_keeps_the_object_table_and_forgets_the_volatile():
    """Across a ``ChaosController`` crash and restart the object table
    (state vector, histories, committer indexes) and the watermark floor
    are unchanged; the applied cache and the lock table are empty."""
    bed = build_testbed()
    note = make_note()
    bed.server.put_object(note)
    urn = str(note.urn)
    session = bed.access.create_session("s")
    bed.access.acquire_lock(note.urn, session).wait(bed.sim)
    bed.access.import_(note.urn, session).wait(bed.sim)
    for text in ("v2", "v3"):
        bed.access.invoke(urn, "set_text", text, session=session)
        assert bed.access.drain()
    server = bed.server
    assert server._applied and server._locks and server._client_watermarks
    assert server.objects[urn].committed

    def durable():
        return (
            server.state_vector(),
            marshal(server.subset_snapshot(server.objects)),
            dict(server._client_watermarks),
        )

    before = durable()
    chaos = ChaosController(bed.sim)
    chaos.crash_server(server)
    chaos.restart_server(server)
    assert durable() == before
    assert len(server._applied) == 0 and server._locks == {}
    restored = server.get_object(urn)
    assert restored.data == {"text": "v3"} and restored.version == 3


def test_restart_clears_applied_cache_and_locks():
    bed = build_testbed()
    note = make_note()
    bed.server.put_object(note)
    session = bed.access.create_session("s")
    bed.access.acquire_lock(note.urn, session).wait(bed.sim)
    bed.access.import_(note.urn, session).wait(bed.sim)
    bed.access.invoke(str(note.urn), "set_text", "locked edit", session=session)
    bed.access.drain()
    assert bed.server._applied  # replies cached

    crash_and_restart(bed)
    assert not bed.server._applied
    # The lease did not survive: another session can lock now.
    other = bed.access.create_session("other")
    grant = bed.access.acquire_lock(note.urn, other).wait(bed.sim)
    assert grant["status"] == "ok"


def test_replayed_export_after_restart_is_idempotent():
    """The reply to an export is lost; the server restarts (losing the
    at-most-once cache); the retransmission must not corrupt state."""
    bed = build_testbed(
        link_spec=ETHERNET_10M,
        # Up long enough for the export to arrive, down before the
        # reply escapes, then up again for the retransmission.
        policy=IntervalTrace([(0.0, 1.0), (1.99, 2.0003), (10.0, 1e9)]),
    )
    bed.server.resolvers.register("note", FieldwiseMerge())
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    bed.sim.run(until=1.98)
    bed.access.invoke(note.urn, "set_text", "survives replay")
    # The brief window at t=1.99 lets the request through; the link
    # drops before the reply, so the scheduler will retransmit.
    bed.sim.run(until=5.0)
    crash_and_restart(bed)  # server forgets it applied the export
    bed.sim.run(until=60.0)
    assert bed.access.pending_count() == 0
    server_copy = bed.server.get_object(str(note.urn))
    assert server_copy.data == {"text": "survives replay"}
    # Applied at most once *semantically*: version 2 if the replay was
    # recognized via merge-to-identical, version 3 if it re-committed
    # the identical data — either way the data is right and the client
    # is clean.
    assert not bed.access.cache.peek(str(note.urn)).tentative


def test_mail_flags_survive_server_restart_with_replay():
    from repro.workloads import generate_mail_corpus

    corpus = generate_mail_corpus(seed=4, n_folders=1, messages_per_folder=3)
    bed = build_testbed(
        link_spec=ETHERNET_10M,
        policy=IntervalTrace([(0.0, 5.0), (30.0, 1e9)]),
    )
    MailServerApp(bed.server, corpus)
    reader = RoverMailReader(bed.access, bed.authority)
    reader.prefetch_folder("inbox").wait(bed.sim)
    bed.access.drain(timeout=4.0)
    bed.sim.run(until=10.0)  # offline
    for entry in reader.folder_index("inbox"):
        reader.read_message("inbox", entry["id"])
    crash_and_restart(bed)  # restart while the client is away
    bed.sim.run(until=120.0)
    assert bed.access.pending_count() == 0
    for entry in reader.folder_index("inbox"):
        server_msg = bed.server.get_object(
            str(reader.message_urn("inbox", entry["id"]))
        )
        assert server_msg.data["flags"]["read"] is True
