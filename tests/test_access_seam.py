"""The access manager's seam, and the four stages behind it, each alone.

A stage (``repro.ha.group.ClientFailover``, ``repro.perf.delta.
DeltaShipping``, ``repro.obs.trace.RequestTracing``, ``repro.perf.
compact.QueueCompaction``) hangs its hooks on the manager's eight lists
and talks to it through a handful of named services.  That is little
enough for a fake: the stages are driven here against ``FakeManager``,
the manager against no stage at all, and an AST check keeps the stages
from reaching past the interface.
"""

import ast
import inspect
from types import SimpleNamespace

from repro.core.notification import EventType
from repro.core.operation_log import OperationLog
from repro.core.qrpc import Operation, QRPCRequest
from repro.ha import build_ha_testbed
from repro.ha.group import ClientFailover, ReplicaSet
from repro.net.link import CSLIP_14_4, IntervalTrace
from repro.obs import Observatory
from repro.obs.fleet import FleetAggregator, TelemetryReporter, fold_reports
from repro.obs.trace import RequestTracing
from repro.perf.compact import QueueCompaction
from repro.perf.delta import DeltaShipping
from repro.testbed import build_multi_client_testbed, build_testbed
from tests.conftest import make_note, make_report


class FakeManager:
    """All a stage may know of an access manager."""

    def __init__(self, cache=None):
        self.on_submit, self.on_wire, self.on_reply, self.on_failed = [], [], [], []
        self.on_durable, self.on_settled, self.on_queued, self.on_applied = [], [], [], []
        self.sim = SimpleNamespace(now=0.0)
        self.obs = Observatory()
        self.host = SimpleNamespace(name="client")
        #: A stage that rests a destination asks the scheduler how long.
        self.scheduler = SimpleNamespace(_backoff_delay=lambda attempts: 10.0 * attempts)
        self.cache = cache
        self.calls = []

    def pending(self, request):
        return True

    def end_attempt(self, request):
        self.calls.append(("end_attempt", request.request_id))

    def resubmit(self, request, delay):
        self.calls.append(("resubmit", request.request_id, delay))

    def retry(self, request, rest):
        self.calls.append(("retry", request.request_id, rest))

    def fail(self, request, reason):
        self.calls.append(("fail", request.request_id, reason))


def request_for(authority="server", operation=Operation.INVOKE):
    return QRPCRequest("client/0", "", operation, f"urn:rover:{authority}/notes/n1")


def failover_stage():
    manager = FakeManager()
    hosts = [SimpleNamespace(name=name) for name in ("server", "server-b1", "server-b2")]
    replica_set = ReplicaSet(hosts, "server")
    stage = replica_set.client_stage(manager)
    assert isinstance(stage, ClientFailover)
    assert manager.on_reply == [stage.on_reply] and manager.on_failed == [stage.on_failed]
    assert manager.on_submit == manager.on_wire == []
    return manager, replica_set


FENCE = {"status": "not-primary", "primary": "server-b1", "ha_epoch": 1, "ha_member": "server"}


class TestClientFailoverAlone:
    def test_hinted_fence_repoints_the_set_and_resubmits(self):
        manager, replica_set = failover_stage()
        (on_reply,) = manager.on_reply
        assert on_reply(request_for(), FENCE) is True
        assert replica_set.current_host.name == "server-b1" and replica_set.epoch_seen == 1
        assert manager.calls == [("retry", "client/0", 0.05)]
        counted = manager.obs.registry.get("qrpc_failovers_total")
        assert counted.labels(host="client").value == 1

    def test_a_request_for_another_authority_is_left_alone(self):
        manager, replica_set = failover_stage()
        elsewhere = request_for(authority="elsewhere")
        assert manager.on_reply[0](elsewhere, FENCE) is False
        assert manager.on_failed[0](elsewhere, "timeout") is False
        assert replica_set.current_host.name == "server" and replica_set.epoch_seen == 0
        assert manager.calls == [] and elsewhere.failover_rounds == 0

    def test_an_answer_from_the_current_reign_passes_through(self):
        manager, replica_set = failover_stage()
        answer = {"status": "ok", "result": 1, "ha_epoch": 2, "ha_member": "server"}
        assert manager.on_reply[0](request_for(), answer) is False
        assert replica_set.epoch_seen == 2 and manager.calls == []

    def test_a_stale_reign_still_pointed_at_is_rotated_off(self):
        manager, replica_set = failover_stage()
        replica_set.observe_epoch(3)
        request = request_for()
        deposed = {"status": "ok", "result": 1, "ha_epoch": 2, "ha_member": "server"}
        assert manager.on_reply[0](request, deposed) is True
        assert replica_set.current_host.name == "server-b1" and request.failover_rounds == 1
        assert manager.calls == [("retry", "client/0", 10.0)]  # one backoff's rest

    def test_the_round_budget_ends_in_a_terminal_failure(self):
        manager, replica_set = failover_stage()
        replica_set.observe_epoch(3)
        request = request_for()
        request.failover_rounds = ClientFailover.max_rounds
        deposed = {"status": "ok", "ha_epoch": 2, "ha_member": "server"}
        assert manager.on_reply[0](request, deposed) is True  # seen to: failed
        assert manager.calls == [
            ("fail", "client/0", "replica group has no reachable primary")
        ]
        assert replica_set.rotations == 0

    def test_a_request_no_member_answered_gets_a_new_budget_while_its_rounds_last(self):
        manager, replica_set = failover_stage()
        request = request_for()
        assert manager.on_failed[0](request, "timeout") is True
        # The scheduler moved the pointer, attempt by attempt; the stage
        # only renews the budget, resting the set one backoff per round.
        assert replica_set.rotations == 0 and request.failover_rounds == 1
        assert manager.calls == [("retry", "client/0", 10.0)]
        request.failover_rounds = ClientFailover.max_rounds
        assert manager.on_failed[0](request, "timeout") is True
        assert manager.calls[1:] == [("fail", "client/0", "timeout")]

    def test_an_unhinted_fence_moves_on_by_one_and_rests_a_backoff(self):
        manager, replica_set = failover_stage()
        request = request_for()
        assert manager.on_reply[0](request, dict(FENCE, primary="")) is True
        assert replica_set.current_host.name == "server-b1" and request.failover_rounds == 1
        # A sibling fenced by the same member follows the pointer, it
        # does not push it on again.
        sibling = QRPCRequest("client/1", "", Operation.INVOKE, request.urn)
        assert manager.on_reply[0](sibling, dict(FENCE, primary="server")) is True  # itself
        assert replica_set.current_host.name == "server-b1" and replica_set.rotations == 1
        assert manager.calls == [("retry", "client/0", 10.0), ("retry", "client/1", 10.0)]

    def test_a_hint_naming_the_member_that_went_unanswered_is_not_believed(self):
        manager, replica_set = failover_stage()
        replica_set.advance_past("server")  # the scheduler: its attempt timed out
        assert (replica_set.suspect, replica_set.current_host.name) == ("server", "server-b1")
        request = request_for()
        still_leased = dict(FENCE, primary="server", ha_member="server-b1", ha_epoch=0)
        assert manager.on_reply[0](request, still_leased) is True
        # Not back to the corpse for another timeout: on by one, a round
        # spent, a backoff rested.
        assert replica_set.current_host.name == "server-b2" and request.failover_rounds == 1
        assert manager.calls == [("retry", "client/0", 10.0)]
        # Any other hint is believed as before.
        assert manager.on_reply[0](request, dict(FENCE, ha_member="server-b2")) is True
        assert replica_set.current_host.name == "server-b1"
        assert manager.calls[1:] == [("retry", "client/0", 0.05)]

    def test_suspicion_ends_with_a_genuine_answer(self):
        manager, replica_set = failover_stage()
        replica_set.advance_past("server")
        answer = {"status": "ok", "result": 1, "ha_epoch": 1, "ha_member": "server-b1"}
        assert manager.on_reply[0](request_for(), answer) is False
        assert replica_set.suspect == ""
        hinted = dict(FENCE, primary="server", ha_member="server-b1")
        assert manager.on_reply[0](request_for(), hinted) is True
        assert replica_set.current_host.name == "server"  # believed again

    def test_suspicion_ends_when_rotation_comes_round_to_the_suspect(self):
        """One lost reply of the live primary (``ha-failover-features``
        trace ``{8: 1}``): every other member fences and names it, and
        the client must end up asking it again."""
        manager, replica_set = failover_stage()
        replica_set.learn_primary("server-b1")
        replica_set.advance_past("server-b1")  # its reply was lost: on to server-b2
        request = request_for()
        for member in ("server-b2", "server"):
            fence = dict(FENCE, primary="server-b1", ha_member=member)
            assert manager.on_reply[0](request, fence) is True
        assert replica_set.current_host.name == "server-b1" and replica_set.suspect == ""
        assert request.failover_rounds == 2


class TestDeltaShippingAlone:
    def test_need_full_marks_the_request_and_resubmits_at_once(self):
        manager = FakeManager()  # no cache: a full-only request must not ask for one
        stage = DeltaShipping(manager)
        assert manager.on_submit == [stage.on_submit] and manager.on_wire == [stage.on_wire]
        assert manager.on_reply == [stage.on_reply] and manager.on_failed == []
        request = request_for(operation=Operation.EXPORT)
        assert stage.on_reply(request, {"status": "need-full"}) is True
        assert request.full_only
        assert manager.calls == [("end_attempt", "client/0"), ("resubmit", "client/0", 0.0)]
        body = {"data": {"text": "x" * 400}, "base_version": 1}
        stage.on_wire(request, body)
        assert set(body) == {"data", "base_version"}

    def test_anything_else_is_the_answer(self):
        manager = FakeManager()
        stage = DeltaShipping(manager)
        request = request_for(operation=Operation.EXPORT)
        assert stage.on_reply(request, {"status": "committed", "version": 2}) is False
        assert stage.on_reply(request, "garbage") is False
        assert manager.calls == [] and not request.full_only


#: Where the fake manager's telemetry reports queue.
REPORTS = "urn:rover:server/__telemetry__"


class QueueManager(FakeManager):
    """What the compaction stage asks on top: the queue (a real log, no
    disk under it), each request's attempt, and the three edits."""

    def __init__(self):
        super().__init__()
        self.log = OperationLog()
        self.attempts = {}  # request_id -> the scheduler's message
        self.crashed = False
        self.scheduler.cancel = lambda message: self.calls.append(("cancel", message.name))

    def queue(self, request_id, seq, handed_over=True, told=True, **message):
        """Log telemetry report ``seq``; ``handed_over``: the scheduler
        has it, unsent; ``told``: the stage hears it was queued."""
        request = QRPCRequest(request_id, "", Operation.TELEMETRY, REPORTS, make_report(seq))
        self.log.append(request)
        if handed_over:
            held = {"name": request_id, "state": "queued", "attempts": 0, **message}
            self.attempts[request_id] = SimpleNamespace(**held)
        if told:
            for hook in self.on_queued:
                hook(request.urn, request)
        return request

    def backlog(self, urn=None):
        if self.crashed:
            return []
        return self.log.pending() if urn is None else self.log.pending_for(urn)

    def attempt(self, request):
        return self.attempts.get(request.request_id)

    def end_attempt(self, request):
        super().end_attempt(request)
        return self.attempts.pop(request.request_id, None)

    def reword(self, request, args):
        self.calls.append(("reword", request.request_id, args))
        request.args = args

    def settle(self, request, reply):
        self.calls.append(("settle", request.request_id, reply))
        for hook in self.on_applied:
            hook(request, reply, None)

    def reject(self, request, reason):
        self.calls.append(("reject", request.request_id, reason))
        for hook in self.on_applied:
            hook(request, {}, reason)


def compaction_stage():
    manager = QueueManager()
    stage = QueueCompaction(manager)
    assert manager.on_queued == [stage.queued] and manager.on_applied == [stage.applied]
    assert manager.on_submit == manager.on_wire == manager.on_reply == manager.on_failed == []
    assert manager.on_durable == manager.on_settled == []
    return manager, stage


def pending_ids(manager):
    return [request.request_id for request in manager.log.pending()]


class TestQueueCompactionAlone:
    def test_queued_then_fold_withdraws_the_absorbed_message(self):
        manager, stage = compaction_stage()
        manager.queue("client/0", 1)
        assert manager.calls == []  # one report: it takes two to fold
        manager.queue("client/1", 2, handed_over=False)  # its flush in progress
        assert manager.calls[:2] == [("end_attempt", "client/0"), ("cancel", "client/0")]
        assert pending_ids(manager) == ["client/1"] and manager.log.ops_compacted == 1

    def test_a_merge_rewords_the_survivor_after_the_withdrawal(self):
        manager, stage = compaction_stage()
        manager.queue("client/0", 1)
        manager.queue("client/1", 2)
        merged = fold_reports(make_report(1), make_report(2))
        assert manager.calls == [
            ("end_attempt", "client/0"), ("cancel", "client/0"), ("reword", "client/1", merged)
        ]
        assert [r.args for r in manager.log.pending()] == [merged]

    def test_a_member_with_an_attempt_behind_it_is_a_barrier(self):
        """PR 14's regression, at the stage: a message backing off is
        "queued" too, but its earlier copy may have been applied."""
        manager, stage = compaction_stage()
        manager.queue("client/0", 1, attempts=1)  # backing off between attempts
        manager.queue("client/1", 2, state="inflight")  # on the wire
        manager.queue("client/2", 3).recovered = True  # a dead incarnation's
        manager.queue("client/3", 4)
        assert manager.calls == []
        assert pending_ids(manager) == ["client/0", "client/1", "client/2", "client/3"]
        manager.queue("client/4", 5)  # folds the one unsent neighbour only
        assert pending_ids(manager) == ["client/0", "client/1", "client/2", "client/4"]

    def test_a_fold_that_makes_new_neighbours_is_followed_in_the_same_call(self):
        """Three reports the stage was not told of, then a fourth it is:
        one call folds the run, each into the next, so ``client/2`` —
        carrying the two before it — meets ``client/3`` in the same pass."""
        manager, stage = compaction_stage()
        for index in range(3):
            manager.queue(f"client/{index}", index + 1, told=False)
        manager.queue("client/3", 4)
        assert pending_ids(manager) == ["client/3"]
        assert [call for call in manager.calls if call[0] == "cancel"] == [
            ("cancel", "client/0"), ("cancel", "client/1"), ("cancel", "client/2")
        ]
        (survivor,) = manager.log.pending()
        assert survivor.args["f"] == [1, 2, 3] and survivor.args["k"] == [[1, 4]]

    def test_absorbed_observers_follow_the_survivor_after_its_own_dispatch(self):
        manager, stage = compaction_stage()
        first = manager.queue("client/0", 1)
        manager.queue("client/1", 2)
        survivor = manager.queue("client/2", 3)
        del manager.calls[:]
        stage.applied(first, {"status": "ok"}, None)  # nobody follows an absorbed one
        assert manager.calls == []
        # The core applied the survivor's reply, then says so: the chain
        # unwinds through the manager, newest absorbed first.
        stage.applied(survivor, {"status": "ok", "seq": 3}, None)
        assert manager.calls == [
            ("settle", "client/1", {"status": "ok", "seq": 3}),
            ("settle", "client/0", {"status": "ok", "seq": 3}),
        ]
        stage.applied(survivor, {"status": "ok"}, None)  # told once
        assert len(manager.calls) == 2

    def test_absorbed_observers_fail_with_the_survivor(self):
        manager, stage = compaction_stage()
        manager.queue("client/0", 1)
        survivor = manager.queue("client/1", 2)
        del manager.calls[:]
        stage.applied(survivor, {}, "timeout")
        assert manager.calls == [("reject", "client/0", "timeout")]

    def test_a_crashed_managers_stage_does_nothing(self):
        manager, stage = compaction_stage()
        for index in range(2):
            manager.queue(f"client/{index}", index + 1, told=False)
        manager.crashed = True
        stage.queued(REPORTS, manager.log.pending()[-1])
        stage.queued(REPORTS, None)
        assert manager.calls == []
        assert pending_ids(manager) == ["client/0", "client/1"]


def tracing_stage():
    manager = FakeManager()
    stage = RequestTracing(manager)
    assert manager.on_submit == [stage.begin] and manager.on_durable == [stage.logged]
    assert manager.on_settled == [stage.finish]
    assert manager.on_wire == manager.on_reply == manager.on_failed == []
    return manager, stage, manager.obs.tracer.spans


class TestRequestTracingAlone:
    def test_begin_stamps_the_request_and_logged_spans_the_flush(self):
        manager, stage, spans = tracing_stage()
        request = request_for()
        manager.sim.now = 2.0
        stage.begin(request)
        root = stage.roots["client/0"]
        assert (request.trace_id, request.span_id) == (root.trace_id, root.span_id) != ("", "")
        assert root.name == "qrpc" and root.start == 2.0 and root.parent_id == ""
        assert root.attrs == {
            "op": "invoke", "urn": request.urn, "request_id": "client/0", "host": "client"
        }
        stage.logged(request, 2.015)
        (logged,) = spans  # the root is collected when it closes, not before
        assert (logged.name, logged.start, logged.end) == ("log.append", 2.0, 2.015)
        assert (logged.trace_id, logged.parent_id) == (root.trace_id, root.span_id)

    def test_finish_ok_marks_the_delivery_then_closes_the_root(self):
        manager, stage, spans = tracing_stage()
        request = request_for()
        stage.begin(request)
        manager.sim.now = 3.5
        stage.finish(request, "ok")
        deliver, root = spans
        assert (deliver.name, deliver.start, deliver.end) == ("reply.deliver", 3.5, 3.5)
        assert deliver.parent_id == root.span_id
        assert (root.name, root.start, root.end, root.status) == ("qrpc", 0.0, 3.5, "ok")
        assert stage.roots == {}

    def test_finish_failed_closes_the_root_and_nothing_else(self):
        manager, stage, spans = tracing_stage()
        request = request_for()
        stage.begin(request)
        manager.sim.now = 9.0
        stage.finish(request, "failed")
        (root,) = spans
        assert (root.name, root.end, root.status) == ("qrpc", 9.0, "failed")

    def test_a_request_it_never_saw_begin_is_ignored(self):
        manager, stage, spans = tracing_stage()
        recovered = request_for()  # a previous incarnation's: replayed, never begun
        stage.logged(recovered, 1.0)
        stage.finish(recovered, "ok")
        stage.finish(recovered, "failed")
        assert spans == [] and stage.roots == {}


class TestWhatTheManagerInstalls:
    def test_plain_host_without_delta_has_four_empty_lists(self):
        bed = build_testbed()
        access = bed.access
        assert access.on_submit == access.on_wire == access.on_reply == access.on_failed == []
        assert bed.obs.registry.get("qrpc_failovers_total") is None
        note = make_note()
        bed.server.put_object(note)
        assert access.import_(note.urn).wait(bed.sim).data == {"text": "hello"}

    def test_tracing_off_means_six_empty_lists_and_no_tracer_in_the_class(self):
        access = build_testbed().access
        seam = ("on_submit", "on_wire", "on_reply", "on_failed", "on_durable", "on_settled")
        assert [getattr(access, point) for point in seam] == [[]] * 6
        assert not hasattr(access, "tracer") and not hasattr(access, "_root_spans")

    def test_compaction_installs_the_stage_and_a_reporter_does_too(self):
        built_with = build_testbed(compaction=True)
        hooks = built_with.access.on_queued + built_with.access.on_applied
        assert [type(hook.__self__) for hook in hooks] == [QueueCompaction] * 2
        assert hooks[0].__self__ is hooks[1].__self__
        late = build_testbed().access
        assert late.on_queued == late.on_applied == [] and not late.compaction
        first = TelemetryReporter(late, "server")
        second = TelemetryReporter(late, "server")
        (queued,) = late.on_queued  # installed once; each reporter hears an outcome first
        assert [hook.__self__ for hook in late.on_applied] == [second, first, queued.__self__]
        assert late.compaction
        assert late.on_submit == late.on_wire == late.on_reply == late.on_failed == []

    def test_tracing_on_installs_the_stage_after_the_others(self):
        access = build_testbed(trace=True, delta_shipping=True).access
        owners = [type(hook.__self__).__name__ for hook in access.on_submit]
        assert owners == ["DeltaShipping", "RequestTracing"]  # args amended, then stamped
        assert [type(hook.__self__) for hook in access.on_durable] == [RequestTracing]
        assert [type(hook.__self__) for hook in access.on_settled] == [RequestTracing]

    def test_replies_reach_failover_before_delta(self):
        """``_ha_redirect`` ran ahead of the ``need-full`` check: a fence
        must never be read as an answer, whatever else is installed."""
        bed = build_ha_testbed(delta_shipping=True)
        access = bed.clients[0].access
        owners = [type(hook.__self__).__name__ for hook in access.on_reply]
        assert owners == ["ClientFailover", "DeltaShipping"]
        assert [type(hook.__self__).__name__ for hook in access.on_failed] == ["ClientFailover"]
        assert bed.obs.registry.get("qrpc_failovers_total") is not None


def test_a_third_stage_keeps_a_request_pending_through_the_real_manager():
    """DESIGN.md's "writing a stage" example, as written there."""

    class WaitForLock:
        def __init__(self, manager):
            self.manager = manager
            manager.on_reply.append(self.on_reply)

        def on_reply(self, request, reply):
            if request.operation is not Operation.LOCK or reply.get("status") != "locked":
                return False
            self.manager.end_attempt(request)
            self.manager.resubmit(request, 1.0)
            return True

    bed = build_multi_client_testbed(2)
    note = make_note()
    bed.server.put_object(note)
    a, b = (stack.access for stack in bed.clients)
    alice, bob = a.create_session("alice"), b.create_session("bob")
    WaitForLock(b)
    a.acquire_lock(note.urn, alice).wait(bed.sim)
    waiting = b.acquire_lock(note.urn, bob)
    bed.sim.run(until=bed.sim.now + 3.5)
    assert not waiting.is_done and b.pending_count() == 1  # denied four times, told of none
    assert bed.server.locks_denied == 4
    a.release_lock(note.urn, alice)
    bed.sim.run(until=bed.sim.now + 2.0)
    assert waiting.value["status"] == "ok" and b.pending_count() == 0


def test_neither_stage_reads_a_private_attribute_of_the_manager():
    """'A stage sees a message's dispatch state through the interface
    or not at all' (ROADMAP), enforced."""
    for stage in (ClientFailover, DeltaShipping, RequestTracing, QueueCompaction):
        tree = ast.parse(inspect.getsource(inspect.getmodule(stage)))
        (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == stage.__name__]
        reached = [
            f"{stage.__name__}: {ast.unparse(node)}"
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and ast.unparse(node.value) in ("manager", "self.manager")
        ]
        assert reached == []
        assert "manager" in ast.unparse(cls)  # the check looked at something


def test_reimport_retry_stays_a_full_import():
    """The retry of an import whose reply could not be used carries no
    ``have_version``, delta shipping or not: the copy still cached is
    the one the answer was wrong for."""
    bed = build_testbed(link_spec=CSLIP_14_4, delta_shipping=True)
    note = make_note(text="v1")
    bed.server.put_object(note)
    urn = str(note.urn)
    bed.access.import_(urn).wait(bed.sim)
    # The session has read version 2 elsewhere; the server still holds 1.
    session = bed.access.create_session("s")
    session.record_read(urn, 2)
    sent = []
    bed.access.notifications.subscribe(
        EventType.REQUEST_SENT,
        lambda n: sent.append(dict(bed.access.log.get(n.details["request_id"]).args)),
    )
    waiter = bed.access.import_(urn, session, refresh=True)
    bed.sim.run_until(lambda: len(sent) == 2, timeout=60)
    assert sent == [{"have_version": 1}, {}]  # warm ask, then the full retry
    assert not waiter.is_done


def test_an_absorbed_requests_root_span_closes_ok_at_the_survivors_reply():
    """``on_settled`` runs for a request that never crossed the wire
    too: compaction folds it under a neighbour, whose reply is its own."""
    bed = build_testbed(
        policy=IntervalTrace([(0.0, 10.0), (100.0, 1e9)]), trace=True, compaction=True
    )
    aggregator = FleetAggregator(bed.sim, server=bed.server)
    aggregator.register(bed.server_transport)
    bed.sim.run(until=20.0)  # disconnected now
    client = bed.access.host.name
    absorbed = bed.access.telemetry("server", make_report(1, client=client))
    survivor = bed.access.telemetry("server", make_report(2, client=client))
    bed.sim.run()
    assert absorbed.result() == survivor.result() and aggregator.reports_applied() == 1
    roots = {span.attrs["request_id"]: span for span in bed.obs.tracer.spans if span.name == "qrpc"}
    assert roots["client/0"].status == roots["client/1"].status == "ok"
    assert roots["client/0"].end == roots["client/1"].end > 100.0
    of_absorbed = [s.name for s in bed.obs.tracer.spans if s.trace_id == roots["client/0"].trace_id]
    assert of_absorbed == ["log.append", "reply.deliver", "qrpc"]  # no wire, no server
