"""Durability is the operation log's: the window, the crash, the bill.

``OperationLog.append(request, on_durable)`` is the one way a request is
logged; the log decides when the flush window closes, charges the serial
disk and says when each request is durable.  These drive that decision
point (`_close_window` / `crash`) as scripts: the window of one, a
client crash at three instants of one group-commit window on a real
file, and the flush nobody used to count.
"""

from repro.core.notification import EventType
from repro.core.operation_log import OperationLog
from repro.core.qrpc import Operation, QRPCRequest
from repro.storage.stable_log import FileLogBackend, FlushModel, GroupCommitPolicy
from repro.testbed import build_testbed
from tests.conftest import make_note

NOTE_URN = str(make_note().urn)


def test_a_terminal_failures_flush_is_charged():
    """``mark_failed`` appends an ack marker and flushes it; that disk
    time is E2's quantity like any other flush (it was free: the delta
    below read 0.0)."""
    model = FlushModel()
    bed = build_testbed(flush_model=model, max_attempts=1)  # a handler's error is final
    bed.server.put_object(make_note())
    stable = bed.access.log.stable
    failed = []
    bed.access.notifications.subscribe(EventType.REQUEST_FAILED, failed.append)
    doomed = bed.access.invoke_remote(NOTE_URN, "set_text", [])  # wrong arity: the handler raises
    logged_s, logged_bytes = bed.access.flush_seconds_total, stable.bytes_flushed
    assert logged_s == model.flush_time(logged_bytes) > 0
    bed.sim.run(until=60.0)
    assert doomed.failed and len(failed) == 1 and bed.access.pending_count() == 0
    marker_bytes = stable.bytes_flushed - logged_bytes
    assert stable.flushes == 2 and marker_bytes > 0
    assert bed.access.flush_seconds_total - logged_s == model.flush_time(marker_bytes)


def test_no_policy_is_the_window_of_one():
    """Flush-per-QRPC is not a second path but the degenerate window:
    each append closes its own, and a burst queues on the serial disk —
    ``durable_at = max(now, busy) + flush_time``, append by append, in
    order (E2b's ``window = 0`` row pins the totals; this pins the order)."""
    model = FlushModel()
    bed = build_testbed(flush_model=model)
    bed.server.put_object(make_note())
    told, sent = [], []
    bed.access.on_durable.append(lambda request, at: told.append((request.request_id, at)))
    bed.access.notifications.subscribe(
        EventType.REQUEST_SENT, lambda n: sent.append((n.details["request_id"], n.time))
    )
    bed.sim.run(until=1.0)
    for n in range(10):
        bed.access.invoke_remote(NOTE_URN, "set_text", ["x" * (50 * n)])
    assert len(told) == 10  # each told inside its own append
    stable = bed.access.log.stable
    assert stable.flushes == 10 and stable.group_commits == 0
    busy, spent, chain = 0.0, 0.0, []
    for record in stable.records():
        flush_time = model.flush_time(len(record.payload))
        busy = max(1.0, busy) + flush_time
        spent += flush_time
        chain.append((f"client/{len(chain)}", busy))
    assert told == chain and bed.access.flush_seconds_total == spent
    bed.sim.run(until=busy)
    assert sent == chain  # and handed to the scheduler exactly then


class TestClientCrashInsideOneGroupCommitWindow:
    """Seam (a), group-commit windows x crash points, now that the
    decision is in one place: three appends share a window on a
    ``FileLogBackend``; the client dies at three instants of it."""

    def bed(self, tmp_path, policy):
        bed = build_testbed(
            flush_model=FlushModel(),
            group_commit=policy,
            stable_backend=FileLogBackend(str(tmp_path / "oplog.bin")),
        )
        bed.server.put_object(make_note())
        self.told, self.sent = [], []
        bed.access.on_durable.append(lambda request, at: self.told.append(request.request_id))
        bed.access.notifications.subscribe(
            EventType.REQUEST_SENT, lambda n: self.sent.append(n.details["request_id"])
        )
        return bed

    def queue_three(self, bed):
        for text in ("one", "two", "three"):
            bed.access.invoke_remote(NOTE_URN, "set_text", [text])
        return ["client/0", "client/1", "client/2"]

    def applied_exactly_once(self, bed, ids):
        bed.sim.run(until=bed.sim.now + 60.0)
        assert bed.access.pending_count() == 0
        assert bed.server.invokes_served == len(ids)
        assert bed.server.duplicates_suppressed == 0
        assert bed.server.get_object(NOTE_URN).data == {"text": "three"}

    def test_before_the_timer_the_whole_window_is_lost(self, tmp_path):
        bed = self.bed(tmp_path, GroupCommitPolicy.fixed(1.0))
        self.queue_three(bed)
        bed.sim.run(until=0.5)
        dead = bed.access
        assert dead.log.stable.unflushed_records == 3 and self.told == []
        assert bed.crash_and_recover_client() == []  # none replayed
        bed.sim.run(until=60.0)  # past the dead window's deadline
        assert self.told == [] and self.sent == []  # no on_durable afterwards
        assert dead.log.stable.flushes == 0 and dead.flush_seconds_total == 0.0
        assert bed.access.pending_count() == 0 and bed.server.invokes_served == 0

    def test_at_a_budget_breach_everything_up_to_it_is_replayed_once(self, tmp_path):
        policy = GroupCommitPolicy(min_window_s=1.0, max_window_s=1.0, record_budget=3)
        bed = self.bed(tmp_path, policy)
        ids = self.queue_three(bed)  # the third append breaches: flushed inside it
        assert self.told == ids and bed.access.log.stable.group_commits == 1
        assert bed.crash_and_recover_client() == ids
        self.applied_exactly_once(bed, ids)
        assert self.sent == []  # the dead incarnation submitted none of them

    def test_between_the_flush_and_durable_at(self, tmp_path):
        bed = self.bed(tmp_path, GroupCommitPolicy.fixed(0.1))
        ids = self.queue_three(bed)
        bed.sim.run(until=0.11)  # timer fired at 0.1; the disk is busy past 0.115
        dead = bed.access
        assert self.told == ids and self.sent == []
        assert dead.log.stable.flushes == 1 and dead.flush_seconds_total > 0.015
        assert bed.crash_and_recover_client() == ids
        self.applied_exactly_once(bed, ids)
        assert self.sent == []  # its _submit calls were suppressed


def test_a_log_nobody_handed_a_clock_still_logs():
    """The record-format tests build ``OperationLog()`` bare: its time
    stands still, every append is a window of one."""
    log = OperationLog()
    told = []
    request = QRPCRequest("client/0", "", Operation.IMPORT, NOTE_URN)
    flush_time = log.append(request, lambda r, at: told.append((r.request_id, at)))
    assert told == [("client/0", flush_time)] and flush_time > 0
    assert log.flush_seconds_total == flush_time
