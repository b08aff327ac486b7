"""Operation-log compaction: its two folds (a client's undelivered
telemetry reports; an export round owed a follow-up), the durable
rewrite, replay equivalence over reports, a queue-time fold that leaves
what folding the whole queue would, and queuing at a cost that does not
grow with the queue."""

from __future__ import annotations

import copy
import gc
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.operation_log import OperationLog
from repro.core.qrpc import Operation, QRPCRequest
from repro.net.link import ETHERNET_10M, IntervalTrace
from repro.net.transport import AsyncReply
from repro.obs.fleet import FleetAggregator, TelemetryReporter, fold_reports
from repro.perf.compact import QueueCompaction
from repro.storage.stable_log import StableLog
from repro.testbed import build_testbed
from tests.conftest import make_note, make_report
from tests.test_fleet_pipeline import build_fleet_bed
from tests.test_speed import _python_calls

URN = "urn:server:cal/group"
#: Where client 0's telemetry reports queue.
REPORTS = "urn:rover:server/__telemetry__"


def _invoke(rid: str, method: str, args: list, urn: str = URN) -> QRPCRequest:
    return QRPCRequest(
        request_id=rid,
        session_id="s",
        operation=Operation.INVOKE,
        urn=urn,
        args={"method": method, "args": args},
    )


def _stage(access):
    (stage,) = {hook.__self__ for hook in access.on_queued}
    return stage


def _offline_bed(**kwargs):
    """Connected for a second, then never again."""
    bed = build_testbed(
        link_spec=ETHERNET_10M, policy=IntervalTrace([(0.0, 1.0), (1e8, 1e9)]), **kwargs
    )
    bed.sim.run(until=2.0)
    return bed


def _served_bed(**kwargs):
    """Connected for a second, then from 100 s on, with a fleet
    aggregator serving the reports."""
    bed = build_testbed(
        link_spec=ETHERNET_10M, policy=IntervalTrace([(0.0, 1.0), (100.0, 1e9)]), **kwargs
    )
    FleetAggregator(bed.sim, server=bed.server).register(bed.server_transport)
    bed.sim.run(until=2.0)
    return bed


def _report(access, seq, **kwargs):
    """Queue report ``seq`` of ``access``'s client; returns its promise."""
    return access.telemetry("server", make_report(seq, client=access.host.name, **kwargs))


def _seqs(access):
    return [request.args["q"] for request in access.log.pending()]


# -- the telemetry fold ------------------------------------------------------


def test_requests_on_different_urns_never_pair():
    """A follow-up owed on one object folds into that object's queued
    round, never into another object's."""
    bed = build_testbed(
        link_spec=ETHERNET_10M,
        policy=IntervalTrace([(0.0, 10.0), (100.0, 1e9)]),
        compaction=True,
    )
    first, second = make_note(path="notes/n1"), make_note(path="notes/n2")
    for note in (first, second):
        bed.server.put_object(note)
        bed.access.import_(note.urn)
    bed.sim.run(until=20.0)  # disconnected now
    bed.access.invoke(first.urn, "set_text", "a1")
    bed.access.invoke(second.urn, "set_text", "b1")
    bed.access.invoke(first.urn, "set_text", "a2")  # a follow-up owed on the first only
    assert [(r.urn, r.args["data"]["text"]) for r in bed.access.log.pending()] == [
        (str(first.urn), "a2"), (str(second.urn), "b1"),
    ]
    assert bed.access.log.ops_compacted == 1


def test_one_pass_folds_a_run_to_its_fixed_point():
    """Reports queued before compaction was on make a run of three when
    the next is queued: one pass folds the run into its last report, and
    a second pass over the same bucket finds nothing."""
    bed = _offline_bed()
    access = bed.access
    for seq in (1, 2):
        _report(access, seq)
    TelemetryReporter(access, "server")  # switches compaction on
    _report(access, 3)
    (survivor,) = access.log.pending()
    client = access.host.name
    reports = [make_report(seq, client=client) for seq in (1, 2, 3)]
    assert survivor.args == fold_reports(fold_reports(reports[0], reports[1]), reports[2])
    assert survivor.args["f"] == [1, 2] and survivor.args["k"] == [[1, 3]]
    assert access.log.ops_compacted == 2
    _stage(access).queued(REPORTS, survivor)
    assert access.log.pending() == [survivor] and access.log.ops_compacted == 2


def test_ineligible_request_is_a_barrier():
    bed = _offline_bed(compaction=True)
    access = bed.access
    _report(access, 1)
    bed.sim.run(until=bed.sim.now + 1.0)  # flushed: the scheduler holds it
    # Backing off between attempts: its first copy may have landed.
    access.attempt(access.log.pending()[0]).attempts = 1
    _report(access, 2)
    assert _seqs(access) == [1, 2] and access.log.ops_compacted == 0


def test_barrier_in_the_middle_splits_the_chain():
    bed = _offline_bed()
    access = bed.access
    _report(access, 1)
    _report(access, 2)  # compaction is off: both queue
    bed.sim.run(until=bed.sim.now + 1.0)
    access.attempt(access.log.pending()[1]).state = "inflight"  # 2 is on the wire
    TelemetryReporter(access, "server")  # switches compaction on
    _report(access, 3)
    assert _seqs(access) == [1, 2, 3]  # 1 cannot fold across the dispatched 2
    _report(access, 4)
    assert _seqs(access) == [1, 2, 4]


def test_duplicate_import_coalesce():
    """Imports need no fold: a second import of an object attaches to
    the one outstanding, and one request is queued."""
    bed = _offline_bed()
    urn = "urn:rover:server/notes/n1"
    first, second = bed.access.import_(urn), bed.access.import_(urn)
    assert first is not second and bed.access.pending_count() == 1


def test_absorb_chain_follows_the_final_survivor():
    """Four reports queued offline cross the wire as one; every promise
    resolves with its reply, the survivor's own first, then the newest
    absorbed."""
    bed = _served_bed(compaction=True)
    access = bed.access
    resolved = []
    for seq in range(1, 5):
        _report(access, seq).then(lambda reply, seq=seq: resolved.append((seq, reply)))
    bed.sim.run()
    assert resolved == [(seq, {"status": "ok", "seq": 4}) for seq in (4, 3, 2, 1)]


def test_a_barrier_report_departs_after_the_report_before_it():
    """Why nothing is left to fold at link-up: a re-ship keeps the
    reports either side of it apart, and under FIFO it is answered only
    after the report before it was dispatched — so once it leaves the
    queue, the two it kept apart are no foldable pair."""
    bed = _served_bed(compaction=True)
    access = bed.access
    for seq, reshipped in ((1, False), (2, True), (3, False)):
        _report(access, seq, reshipped=reshipped)
    settled, older = [], []

    def on_settled(request, status):
        settled.append(request.args["q"])
        if request.args["q"] == 2:
            older.extend(access.attempt(r) for r in access.log.pending() if r.args["q"] < 2)

    access.on_settled.append(on_settled)
    bed.sim.run()
    assert settled == [1, 2, 3] and access.log.ops_compacted == 0
    assert all(message is not None and message.state != "queued" for message in older)


# -- replay equivalence (property) -------------------------------------------

#: Ten seconds of the script: the link is up through them; foreground
#: calls made; the reporter flushes; what the aggregator does with the
#: next report it is sent -- applies and answers it, drops it unapplied
#: and unanswered (twice in a row is a terminal failure, and a re-ship),
#: or applies it and loses the reply (the report backs off: a barrier).
_slots = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 2),
        st.booleans(),
        st.sampled_from(["serve", "drop", "lose"]),
    ),
    min_size=1,
    max_size=12,
)


def _up_intervals(slots, slot_s=10.0):
    intervals = []
    for index, (up, *__) in enumerate(slots):
        if not up:
            continue
        if intervals and intervals[-1][1] == index * slot_s:
            intervals[-1] = (intervals[-1][0], (index + 1) * slot_s)
        else:
            intervals.append((index * slot_s, (index + 1) * slot_s))
    end = len(slots) * slot_s
    if intervals and intervals[-1][1] == end:
        return intervals[:-1] + [(intervals[-1][0], 1e9)]
    return intervals + [(end, 1e9)]


@settings(max_examples=60, deadline=None)
@given(_slots)
@example([(False, 1, True, "serve"), (True, 1, True, "lose"), (True, 1, True, "serve")])
@example([(False, 1, True, "drop"), (False, 1, True, "drop"), (False, 1, True, "serve")])
def test_compacted_replay_is_equivalent(slots):
    """Whatever the link and the aggregator do, the reports that fold at
    queue time deliver exactly the reporter's ground truth, and no report
    is folded twice: a sequence number that arrives folded arrives inside
    one survivor only (a re-ship travels alone, under its own)."""
    bed, aggregator, (reporter,) = build_fleet_bed(
        n=1, policies=[IntervalTrace(_up_intervals(slots))], max_attempts=2, rpc_timeout_s=3.0
    )
    access = bed.clients[0].access
    handlers = bed.server_transport._request_handlers
    apply = handlers["rover.telemetry"]
    outcomes, received = [], []

    def aggregator_does(body, source):
        received.append((body["q"], tuple(body.get("f", ()))))
        outcome = outcomes.pop(0) if outcomes else "serve"
        if outcome == "drop":
            return AsyncReply()  # never completed: silence, and nothing applied
        reply = apply(body, source)
        return AsyncReply() if outcome == "lose" else reply

    handlers["rover.telemetry"] = aggregator_does
    urn = f"urn:rover:{bed.server.authority}/obj/0"
    for index, (__, calls, flush, outcome) in enumerate(slots):
        for __ in range(calls):
            access.invoke_remote(urn, "bump", [])
        if flush:
            reporter.flush()
        outcomes.append(outcome)
        bed.sim.run(until=(index + 1) * 10.0)
    truth = reporter.ground_truth()
    reporter.flush()
    bed.sim.run(until=bed.sim.now + 2000.0)

    client = bed.clients[0].host.name
    assert not reporter._unacked and access.pending_count() == 0
    assert aggregator.client_totals(client) == truth
    assert aggregator.summary()["open_gaps"] == 0
    folded_into: dict[int, set] = {}
    for seq, folded in received:
        for covered in folded:
            folded_into.setdefault(covered, set()).add(seq)
    assert {seq: into for seq, into in folded_into.items() if len(into) > 1} == {}


# -- the durable rewrite -----------------------------------------------------


def test_compact_drops_and_rewrites_survive_recovery_in_order():
    backend_log = StableLog()
    log = OperationLog(backend_log)
    ops = [_invoke(f"r{i}", "append_entry", [{"id": f"m{i}"}]) for i in range(4)]
    for request in ops:
        log.append(request)

    merged = QRPCRequest(
        "r3", "s", Operation.INVOKE, URN,
        {"method": "append_entries",
         "args": [[{"id": f"m{i}"} for i in range(4)]]},
    )
    log.compact(["r0", "r1", "r2"], {"r3": merged})
    assert log.ops_compacted == 3
    assert [r.request_id for r in log.pending()] == ["r3"]

    # A fresh log over the same backend replays exactly the compacted queue.
    recovered = OperationLog(StableLog(backend_log.backend))
    pending = recovered.pending()
    assert [r.request_id for r in pending] == ["r3"]
    assert pending[0].args == merged.args


def test_rewrite_keeps_logical_queue_order_across_recovery():
    backend_log = StableLog()
    log = OperationLog(backend_log)
    first = _invoke("r1", "move_event", ["e1", "9am"], urn="urn:server:cal/a")
    second = _invoke("r2", "move_event", ["e2", "9am"], urn="urn:server:cal/b")
    log.append(first)
    log.append(second)
    # Rewrite the FIRST request: its fresh record lands after r2's, but
    # the carried logical order must keep it first in the queue.
    rewritten = QRPCRequest(
        "r1", "s", Operation.INVOKE, "urn:server:cal/a",
        {"method": "move_event", "args": ["e1", "10am"]},
    )
    log.compact([], {"r1": rewritten})
    assert [r.request_id for r in log.pending()] == ["r1", "r2"]

    recovered = OperationLog(StableLog(backend_log.backend))
    assert [r.request_id for r in recovered.pending()] == ["r1", "r2"]
    assert recovered.pending()[0].args["args"] == ["e1", "10am"]


def test_compact_skips_already_acked_requests():
    log = OperationLog(StableLog())
    request = _invoke("r1", "move_event", ["e1", "9am"])
    log.append(request)
    log.acknowledge("r1")
    log.compact(["r1"], {})
    assert log.ops_compacted == 0


# -- the refresh-export fold (integration) -----------------------------------


def _disconnected_bed(**kwargs):
    bed = build_testbed(
        link_spec=ETHERNET_10M,
        policy=IntervalTrace([(0.0, 10.0), (100.0, 1e9)]),
        **kwargs,
    )
    note = make_note()
    bed.server.put_object(note)
    session = bed.access.create_session("s")
    bed.access.import_(note.urn, session)
    bed.sim.run(until=5.0)
    return bed, note, session


def test_dirty_followups_fold_into_the_queued_export():
    bed, note, session = _disconnected_bed(compaction=True)
    bed.sim.run(until=20.0)  # disconnected now
    for text in ("one", "two", "three"):
        bed.access.invoke(note.urn, "set_text", text, session=session)
    bed.sim.run()
    # One export carried all three mutations: the server version moved
    # exactly once and holds the final text.
    server_copy = bed.server.get_object(str(note.urn))
    assert server_copy.data["text"] == "three"
    assert server_copy.version == 2  # put_object v1, one export commit
    assert bed.access.log.ops_compacted == 2
    assert bed.access.pending_count() == 0
    assert bed.access.cache.tentative_urns() == []


def test_without_compaction_each_followup_exports():
    bed, note, session = _disconnected_bed(compaction=False)
    bed.sim.run(until=20.0)
    for text in ("one", "two", "three"):
        bed.access.invoke(note.urn, "set_text", text, session=session)
    bed.sim.run()
    server_copy = bed.server.get_object(str(note.urn))
    assert server_copy.data["text"] == "three"
    assert server_copy.version > 2  # follow-up export rounds happened
    assert bed.access.log.ops_compacted == 0


def test_folded_promises_all_resolve():
    bed, note, session = _disconnected_bed(compaction=True)
    bed.sim.run(until=20.0)
    bed.access.invoke(note.urn, "set_text", "one", session=session)
    # Two explicit follow-up rounds while the first sits in the queue:
    # their promises must resolve when the single folded round commits.
    followups = [
        bed.access.export(note.urn, session=session),
        bed.access.export(note.urn, session=session),
    ]
    bed.sim.run()
    for promise in followups:
        assert promise.ready and not promise.failed
    assert bed.access.pending_count() == 0
    assert bed.access.cache.tentative_urns() == []


# -- who switches compaction on, and what a crash leaves ---------------------


@pytest.mark.parametrize("built_compacting", [False, True], ids=["by a reporter", "compaction=True"])
def test_a_crash_hands_compaction_on(built_compacting):
    """Compaction a telemetry reporter switches on after the manager is
    built folds like compaction the manager was built with, and crash
    recovery hands either on to the reborn manager."""
    bed = _offline_bed(compaction=built_compacting)
    access = bed.access
    assert access.compaction is built_compacting
    assert (access.on_queued == []) is not built_compacting
    reporter = TelemetryReporter(access, "server")
    assert access.compaction and isinstance(_stage(access), QueueCompaction)
    _report(access, 1)
    _report(access, 2)
    assert _seqs(access) == [2]
    bed.clients[0].crash_and_recover()
    reborn = bed.access
    assert reborn.compaction and isinstance(_stage(reborn), QueueCompaction)
    reporter.attach(reborn)
    assert len(reborn.on_queued) == 1  # attached to a manager that compacts: nothing more
    _report(reborn, 3)
    _report(reborn, 4)
    # The replayed report is a barrier; the reborn client's two fold.
    assert _seqs(reborn) == [2, 4]


def test_a_link_up_runs_no_crashed_managers_code():
    """Three crashes of a compacting client, then the link comes up: the
    link and the scheduler they share call into the live manager only
    (each dead incarnation's compaction stage once stayed hooked to the
    scheduler and planned its dead log on every link-up, and its
    manager stayed a listener of the link)."""
    bed = build_testbed(
        link_spec=ETHERNET_10M,
        policy=IntervalTrace([(0.0, 1.0), (50.0, 1e9)]),
        compaction=True,
    )
    note = make_note()
    bed.server.put_object(note)
    bed.sim.run(until=2.0)  # disconnected
    bed.access.invoke_remote(note.urn, "read", [])
    dead = []
    for __ in range(3):
        dead.append(bed.access)
        bed.clients[0].crash_and_recover()
    bed.sim.run(until=49.0)  # the dead incarnations' timers have come and gone
    owners = []

    def record(frame, event, arg):
        if event == "call":
            owner = frame.f_locals.get("self")
            owners.append(getattr(owner, "manager", owner))

    sys.setprofile(record)
    try:
        bed.sim.run(until=60.0)  # the link comes up at 50 s
    finally:
        sys.setprofile(None)
    assert any(owner is bed.access for owner in owners)  # the replay drained
    assert not [owner for owner in owners if any(owner is manager for manager in dead)]
    assert bed.access.pending_count() == 0


# -- the queue-time fold: one bucket per queued report -----------------------

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("report"), st.booleans()),  # True: a re-ship
        st.tuples(st.just("invoke"), st.integers(0, 1)),  # another object's request
        st.tuples(st.just("tick"), st.none()),  # a second: flushed, handed over
        # A barrier on the k-th pending request.
        st.tuples(st.sampled_from(["dispatched", "backing-off", "recovered"]), st.integers(0, 7)),
    ),
    max_size=30,
)


def _whole_queue_fixpoint(shadow, eligible):
    """The reference: fold the first two adjacent eligible reports of the
    whole queue, the earlier into the later, again until none are left."""
    while True:
        reports = [r for r in shadow if r.operation is Operation.TELEMETRY]
        pairs = [
            (earlier, later)
            for earlier, later in zip(reports, reports[1:])
            if eligible(earlier) and eligible(later)
        ]
        if not pairs:
            return shadow
        earlier, later = pairs[0]
        later.args = fold_reports(earlier.args, later.args)
        shadow = [r for r in shadow if r is not earlier]


@settings(max_examples=120, deadline=None)
@given(_steps)
@example([("report", False), ("tick", None), ("backing-off", 0), ("report", False),
          ("report", True), ("report", False), ("report", False)])
def test_planning_one_bucket_equals_planning_the_whole_queue(steps):
    """After every step the pending queue — ids, order, args — is what
    folding the whole queue to a fixpoint would have left: what a link-up
    pass over the whole log would find is already folded."""
    bed = _offline_bed(compaction=True)
    access = bed.access
    # Every request as it was issued, before anything folded it.
    issued: list[QRPCRequest] = []
    access.on_submit.append(lambda request: issued.append(copy.deepcopy(request)))
    shadow: list[QRPCRequest] = []
    barriers: set[str] = set()

    def eligible(copy_of: QRPCRequest) -> bool:
        return copy_of.request_id not in barriers and "r" not in copy_of.args

    seq = 0
    for kind, arg in steps:
        if kind == "report":
            seq += 1
            _report(access, seq, reshipped=arg)
            shadow.append(issued.pop())
            shadow = _whole_queue_fixpoint(shadow, eligible)
        elif kind == "invoke":
            access.invoke_remote(f"urn:rover:server/obj/{arg}", "touch", [])
            shadow.append(issued.pop())
        elif kind == "tick":
            bed.sim.run(until=bed.sim.now + 1.0)
        elif arg < access.pending_count():
            request = access.log.pending()[arg]
            message = access.attempt(request)
            if kind == "recovered":
                request.recovered = True
            elif message is None:
                continue  # its flush is in progress: nothing to have sent
            elif kind == "dispatched":
                message.state = "inflight"
            else:
                message.attempts = 1
            barriers.add(request.request_id)
        assert [(r.request_id, r.args) for r in access.log.pending()] == [
            (r.request_id, r.args) for r in shadow
        ]


def test_queuing_an_operation_costs_the_same_behind_a_long_queue():
    """Flatness: disconnected, queuing an invoke, an export or a
    telemetry report behind 400 queued requests — minting, logging,
    folding, and the events it leaves the simulator: the flush and the
    scheduler's pump — makes the Python calls it made behind 40.
    (Planning the whole queue per operation cost about four calls per
    request already queued; a pump that walked the queue for want of a
    route, one route lookup per message already queued.)"""
    bed = build_testbed(
        link_spec=ETHERNET_10M, policy=IntervalTrace([(0.0, 1.0), (1e8, 1e9)]), compaction=True
    )
    notes = [make_note(path=f"notes/n{index}") for index in range(3)]
    for note in notes:
        bed.server.put_object(note)
        bed.access.import_(note.urn)
    bed.sim.run(until=2.0)  # cached, then disconnected
    access = bed.access

    def invoke(index):
        access.invoke_remote(f"urn:rover:server/mail/m{index}", "mark_read", [])

    def export(index):
        note = notes[{0: 0, 39: 1, 399: 2}[index]]
        access.invoke(note.urn, "set_text", f"edit {index}")

    def report(index):
        _report(access, index + 1)

    def queue_one(kind, index):
        kind(index)
        bed.sim.run(until=bed.sim.now + 1.0)  # flushed, and pumped

    calls = {kind: [] for kind in (invoke, export, report)}
    gc.collect()
    gc.disable()  # a collection inside the measure runs other tests' finalizers
    try:
        for index in range(400):
            calls[invoke].append(_python_calls(queue_one, invoke, index))
            if index in (0, 39, 399):  # each a first export of its object
                for kind in (export, report):
                    calls[kind].append(_python_calls(queue_one, kind, index))
    finally:
        gc.enable()
    assert access.pending_count() == 400 + 3 + 1
    assert calls[invoke][399] == calls[invoke][39]
    assert calls[export][2] == calls[export][1]
    assert calls[report][2] == calls[report][1]
