"""Compaction + delta shipping under crash recovery and chaos plans.

The acceptance hazard for log compaction is the client crashing *after*
the stable log was rewritten but *before* (or while) the compacted
queue drains: recovery must replay exactly the compacted sequence, the
replayed requests must be barriers (never re-compacted or
delta-shipped), and every invariant of :mod:`repro.chaos` must hold at
stabilization.
"""

from __future__ import annotations

import pytest

from repro.apps.mail import MailServerApp, RoverMailReader
from repro.chaos import invariants
from repro.net.link import CSLIP_14_4, IntervalTrace
from repro.testbed import build_testbed
from repro.workloads import generate_mail_corpus


def _mail_bed(**kwargs):
    bed = build_testbed(
        link_spec=CSLIP_14_4,
        policy=IntervalTrace([(0.0, 300.0), (1000.0, 1e9)]),
        **kwargs,
    )
    corpus = generate_mail_corpus(seed=11, n_folders=1, messages_per_folder=6)
    app = MailServerApp(bed.server, corpus)
    app.create_folder("outbox")
    reader = RoverMailReader(bed.access, bed.authority)
    folder = sorted(corpus.folders)[0]
    reader.prefetch_folder(folder)
    reader.open_folder("outbox")
    bed.sim.run(until=290.0)
    return bed, reader, folder


def _disconnected_session(bed, reader, folder, n_sends: int = 4) -> None:
    bed.sim.run(until=400.0)
    index = reader.folder_index(folder)
    for entry in index:
        urn = reader.message_urn(folder, entry["id"])
        bed.access.invoke(urn, "mark_read", session=reader.session)
    for entry in index:
        urn = reader.message_urn(folder, entry["id"])
        bed.access.invoke(urn, "mark_deleted", session=reader.session)
    for i in range(n_sends):
        reader.send_message(
            "outbox",
            {"id": f"out-{i}", "from": "me", "subject": f"s{i}", "body": "b" * 80},
        )


def _check_all(bed) -> list[str]:
    violations = list(invariants.check_logs_drained([bed.access]))
    violations += invariants.check_cache_coherent(bed.server, [bed.access])
    violations += invariants.check_no_orphan_tentative([bed.access])
    return violations


@pytest.mark.parametrize("crash_at", [1000.5, 1003.0, 1010.0])
def test_client_crash_mid_drain_after_compaction(crash_at):
    """Crash the client while the compacted queue drains; the reborn
    manager replays from the rewritten log and still converges."""
    bed, reader, folder = _mail_bed(compaction=True, delta_shipping=True)
    _disconnected_session(bed, reader, folder)
    bed.sim.run(until=999.0)
    assert bed.access.log.ops_compacted > 0

    replayed: list[str] = []
    bed.sim.schedule(crash_at - bed.sim.now,
                     lambda: replayed.extend(bed.crash_and_recover_client()))
    bed.sim.run()

    violations = _check_all(bed)
    assert violations == [], violations
    # Every acked outbox append landed at the server exactly once.
    violations = invariants.check_acked_updates_durable(
        bed.server, str(reader.folder_urn("outbox")),
        [f"out-{i}" for i in range(4)],
    )
    assert violations == [], violations
    # The triage pass survived the crash end to end.
    inbox = bed.server.get_object(str(reader.folder_urn(folder)))
    assert inbox is not None
    for entry in inbox.data["index"]:
        message = bed.server.get_object(
            str(reader.message_urn(folder, entry["id"]))
        )
        assert message.data["flags"].get("read") is True
        assert message.data["flags"].get("deleted") is True


def test_crash_before_reconnect_replays_compacted_queue():
    """Crash while still disconnected: the stable log already holds the
    compacted queue and recovery replays exactly that."""
    bed, reader, folder = _mail_bed(compaction=True, delta_shipping=True)
    _disconnected_session(bed, reader, folder)
    bed.sim.run(until=600.0)
    compacted_ids = [r.request_id for r in bed.access.log.pending()]
    assert bed.access.log.ops_compacted > 0

    replayed = bed.crash_and_recover_client()
    assert replayed == compacted_ids  # the rewritten queue, in order
    bed.sim.run()
    violations = _check_all(bed)
    assert violations == [], violations


def test_replayed_requests_are_compaction_barriers():
    """Recovered requests may already be at the server: new work folds
    among itself but never into (or across) the replayed queue."""
    bed, reader, folder = _mail_bed(compaction=True, delta_shipping=True)
    _disconnected_session(bed, reader, folder, n_sends=2)
    bed.sim.run(until=600.0)
    replayed = bed.crash_and_recover_client()
    assert replayed  # the compacted session is in the reborn queue

    # New work after rebirth, still disconnected, on the same outbox
    # URN the replay touches: two queued appends merge with each other
    # (one removed), while every replayed request stays untouched.
    outbox = reader.folder_urn("outbox")
    before = bed.access.log.ops_compacted
    for i in range(2):
        bed.access.invoke_remote(
            outbox, "append_entry",
            [{"id": f"post-crash-{i}", "from": "me", "subject": "s", "size": 1}],
        )
    # Queue-time compaction already folded the pair inside the second
    # submit; a second pass finds nothing more (idempotent).
    assert bed.access.log.ops_compacted == before + 1
    (stage,) = {hook.__self__ for hook in bed.access.on_queued}
    assert stage.compact() == 0
    still_pending = {r.request_id for r in bed.access.log.pending()}
    assert set(replayed) <= still_pending

    bed.sim.run()
    violations = _check_all(bed)
    assert violations == [], violations
    durable = invariants.check_acked_updates_durable(
        bed.server, str(outbox),
        ["out-0", "out-1", "post-crash-0", "post-crash-1"],
    )
    assert durable == [], durable


def test_double_crash_still_converges():
    """Crash mid-drain, then crash the reborn client too."""
    bed, reader, folder = _mail_bed(compaction=True, delta_shipping=True)
    _disconnected_session(bed, reader, folder)
    bed.sim.run(until=999.0)
    bed.sim.schedule(2.0, bed.crash_and_recover_client)
    bed.sim.schedule(6.0, bed.crash_and_recover_client)
    bed.sim.run()
    violations = _check_all(bed)
    assert violations == [], violations
