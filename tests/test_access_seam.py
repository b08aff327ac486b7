"""The access manager's seam, and the three stages behind it, each alone.

A stage (``repro.perf.delta.DeltaShipping``, ``repro.obs.trace.
RequestTracing``, ``repro.perf.compact.QueueCompaction``) hangs its
hooks on the manager's seven lists and talks to it through a handful of
named services.  That is little enough for a fake: the stages are
driven here against ``FakeManager``, the manager against no stage at
all, and an AST check keeps the stages from reaching past the
interface.  Client failover is no stage: a replicated destination reads
its members' replies and the network scheduler acts on the reading,
driven here against a scripted carrier.
"""

import ast
import inspect
from types import SimpleNamespace

from repro.core.notification import EventType
from repro.core.operation_log import OperationLog
from repro.core.qrpc import Operation, QRPCRequest
from repro.ha import build_ha_testbed
from repro.ha.group import ReplicaSet
from repro.net.link import CSLIP_14_4, IntervalTrace
from repro.net.scheduler import MOVED, NO_PROGRESS, NetworkScheduler, Route
from repro.net.simnet import Network
from repro.net.transport import Transport
from repro.obs import Observatory
from repro.obs.fleet import FleetAggregator, TelemetryReporter, fold_reports
from repro.obs.trace import RequestTracing
from repro.perf.compact import QueueCompaction
from repro.perf.delta import DeltaShipping
from repro.sim import Simulator
from repro.testbed import build_multi_client_testbed, build_testbed
from tests.conftest import make_note, make_report


class FakeManager:
    """All a stage may know of an access manager."""

    def __init__(self, cache=None):
        self.on_submit, self.on_wire, self.on_reply = [], [], []
        self.on_durable, self.on_settled, self.on_queued, self.on_applied = [], [], [], []
        self.sim = SimpleNamespace(now=0.0)
        self.obs = Observatory()
        self.host = SimpleNamespace(name="client")
        self.scheduler = SimpleNamespace()
        self.cache = cache
        self.calls = []

    def end_attempt(self, request):
        self.calls.append(("end_attempt", request.request_id))

    def resubmit(self, request, delay):
        self.calls.append(("resubmit", request.request_id, delay))


def request_for(authority="server", operation=Operation.INVOKE):
    return QRPCRequest("client/0", "", operation, f"urn:rover:{authority}/notes/n1")


class Scripted(Route):
    """A carrier whose far side answers each attempt, a tick later,
    with the next of ``replies`` (None: no answer comes)."""

    name = "scripted"
    quality = 1.0

    def __init__(self, sim, replies):
        self.sim, self.replies, self.sent = sim, list(replies), []

    def available(self, dst):
        return True

    def first_hop(self, dst):
        return None

    def send(self, dst, service, body, on_reply, on_error, on_accepted):
        self.sent.append((self.sim.now, dst.name, body["n"]))
        reply = self.replies.pop(0)
        if reply is None:
            self.sim.schedule(0.0, on_error, "timeout")
        else:
            self.sim.schedule(0.0, on_reply, reply)


def failover(*replies, max_attempts=8):
    """A client's scheduler, a replica set of three members before it,
    and a carrier that answers with ``replies`` in turn.  A round's rest
    is ``10 s * rounds``, a silence's ``10 s * attempts``: no jitter."""
    sim = Simulator()
    network = Network(sim)
    client = network.host("client")
    scheduler = NetworkScheduler(sim, Transport(sim, client), max_attempts=max_attempts)
    scheduler._backoff_delay = lambda attempts: 10.0 * attempts
    route = Scripted(sim, replies)
    scheduler.routes = [route]
    hosts = [network.host(name) for name in ("server", "server-b1", "server-b2")]
    return sim, scheduler, ReplicaSet(hosts, "server"), route


def submit(scheduler, destination, n=0):
    """Queue message ``n``; returns it and what its owner was told."""
    told = []
    message = scheduler.submit(
        destination, "echo", {"n": n},
        on_reply=lambda _, reply: told.append(("reply", reply)),
        on_failed=lambda _, reason: told.append(("failed", reason)),
    )
    return message, told


def failovers_counted(scheduler):
    return scheduler.obs.registry.get("qrpc_failovers_total").labels(host="client").value


FENCE = {"status": "not-primary", "primary": "server-b1", "ha_epoch": 1, "ha_member": "server"}
ANSWER = {"status": "ok", "result": 1, "ha_epoch": 1, "ha_member": "server-b1"}
NO_PRIMARY = "replica group has no reachable primary"


class TestClientFailoverAlone:
    """The replica set reads each reply (:meth:`ReplicaSet.read_reply`);
    the scheduler acts on the reading: the answer goes to the owner, a
    move sends the message again after 0.05 s, no progress spends one of
    the message's rounds -- a backoff's rest, and the failure for good
    one round too many.  No access manager takes part."""

    def test_hinted_fence_repoints_the_set_and_resubmits(self):
        sim, scheduler, replica_set, route = failover(FENCE, ANSWER)
        message, told = submit(scheduler, replica_set)
        sim.run()
        assert route.sent == [(0.0, "server", 0), (0.05, "server-b1", 0)]
        assert replica_set.current_host.name == "server-b1" and replica_set.epoch_seen == 1
        assert told == [("reply", ANSWER)]  # the fence never reached the owner
        assert (message.attempts, message.rounds) == (1, 0)
        assert failovers_counted(scheduler) == 1

    def test_a_request_for_another_authority_is_left_alone(self):
        """A message for a plain host (another authority's server) is
        the owner's to read, whatever it says."""
        sim, scheduler, replica_set, route = failover(FENCE)
        elsewhere = scheduler.host.network.host("elsewhere")
        message, told = submit(scheduler, elsewhere)
        sim.run()
        assert told == [("reply", FENCE)] and route.sent == [(0.0, "elsewhere", 0)]
        assert replica_set.current_host.name == "server" and replica_set.epoch_seen == 0
        assert message.rounds == 0
        assert scheduler.obs.registry.get("qrpc_failovers_total") is None

    def test_an_answer_from_the_current_reign_passes_through(self):
        answer = {"status": "ok", "result": 1, "ha_epoch": 2, "ha_member": "server"}
        sim, scheduler, replica_set, route = failover(answer)
        message, told = submit(scheduler, replica_set)
        sim.run()
        assert told == [("reply", answer)] and len(route.sent) == 1
        assert replica_set.epoch_seen == 2 and message.rounds == 0
        assert replica_set.read_reply("server", answer) is None  # and again: nothing moves

    def test_a_stale_reign_still_pointed_at_is_rotated_off(self):
        deposed = {"status": "ok", "result": 1, "ha_epoch": 2, "ha_member": "server"}
        sim, scheduler, replica_set, route = failover(deposed, dict(ANSWER, ha_epoch=3))
        replica_set.observe_epoch(3)
        message, told = submit(scheduler, replica_set)
        sim.run()
        # On by one, a round spent, one backoff's rest.
        assert route.sent == [(0.0, "server", 0), (10.0, "server-b1", 0)]
        assert replica_set.rotations == 1 and message.rounds == 1
        assert told == [("reply", dict(ANSWER, ha_epoch=3))]

    def test_the_round_budget_ends_in_a_terminal_failure(self):
        deposed = {"status": "ok", "ha_epoch": 2, "ha_member": "server"}
        sim, scheduler, replica_set, route = failover(deposed)
        replica_set.observe_epoch(3)
        message, told = submit(scheduler, replica_set)
        message.rounds = ReplicaSet.max_rounds
        sim.run()
        assert told == [("failed", NO_PRIMARY)]
        assert replica_set.rotations == 0 and len(route.sent) == 1
        # Answered, so not a failed attempt budget.
        assert (scheduler.delivered, scheduler.failed) == (1, 0) and scheduler.idle()

    def test_a_request_no_member_answered_gets_a_new_budget_while_its_rounds_last(self):
        sim, scheduler, replica_set, route = failover(None, ANSWER, None, max_attempts=1)
        message, told = submit(scheduler, replica_set)
        sim.run()
        # The scheduler moved the pointer past the silent member; the
        # round only renewed the budget, resting the set one backoff.
        assert route.sent == [(0.0, "server", 0), (10.0, "server-b1", 0)]
        assert replica_set.rotations == 1 and message.rounds == 1
        assert told == [("reply", ANSWER)] and failovers_counted(scheduler) == 1
        last, told = submit(scheduler, replica_set, n=1)
        last.rounds = ReplicaSet.max_rounds
        sim.run()
        assert told == [("failed", "timeout")] and last.rounds == ReplicaSet.max_rounds + 1
        assert scheduler.failed == 2 and scheduler.idle()  # one per budget spent

    def test_an_unhinted_fence_moves_on_by_one_and_rests_a_backoff(self):
        sim, scheduler, replica_set, route = failover(
            dict(FENCE, primary=""), dict(FENCE, primary="server"), ANSWER, ANSWER
        )
        first, told_first = submit(scheduler, replica_set, n=0)
        sibling, told_sibling = submit(scheduler, replica_set, n=1)
        sim.run()
        # The sibling out to the same member was withdrawn with the
        # first: it follows the pointer, it does not push it on again.
        assert route.sent == [
            (0.0, "server", 0), (0.0, "server", 1), (10.0, "server-b1", 0), (10.0, "server-b1", 1)
        ]
        assert replica_set.current_host.name == "server-b1" and replica_set.rotations == 1
        assert (first.rounds, sibling.rounds) == (1, 0)
        assert told_first == told_sibling == [("reply", ANSWER)]
        # Read on its own, the sibling's fence (a backup naming itself)
        # is no progress, and spends a round; the set is left where it is.
        assert replica_set.read_reply("server", dict(FENCE, primary="server")) == NO_PROGRESS
        assert replica_set.current_host.name == "server-b1" and replica_set.suspect == ""

    def test_a_hint_naming_the_member_that_went_unanswered_is_not_believed(self):
        still_leased = dict(FENCE, primary="server", ha_member="server-b1", ha_epoch=0)
        sim, scheduler, replica_set, route = failover(
            still_leased, dict(FENCE, ha_member="server-b2"), ANSWER
        )
        replica_set.advance_past("server")  # the scheduler: its attempt timed out
        assert (replica_set.suspect, replica_set.current_host.name) == ("server", "server-b1")
        message, told = submit(scheduler, replica_set)
        sim.run()
        # Not back to the corpse for another timeout: on by one, a round
        # spent, a backoff rested; any other hint is believed as before.
        assert route.sent == [
            (0.0, "server-b1", 0), (10.0, "server-b2", 0), (10.05, "server-b1", 0)
        ]
        assert message.rounds == 1 and told == [("reply", ANSWER)]
        assert failovers_counted(scheduler) == 2

    def test_suspicion_ends_with_a_genuine_answer(self):
        replica_set = failover()[2]
        replica_set.advance_past("server")
        assert replica_set.read_reply("server-b1", ANSWER) is None
        assert replica_set.suspect == ""
        hinted = dict(FENCE, primary="server", ha_member="server-b1")
        assert replica_set.read_reply("server-b1", hinted) == MOVED
        assert replica_set.current_host.name == "server"  # believed again

    def test_suspicion_ends_when_rotation_comes_round_to_the_suspect(self):
        """One lost reply of the live primary (``ha-failover-features``
        trace ``{8: 1}``): every other member fences and names it, and
        the client must end up asking it again."""
        sim, scheduler, replica_set, route = failover(
            dict(FENCE, ha_member="server-b2"), dict(FENCE, ha_member="server"), ANSWER
        )
        replica_set.learn_primary("server-b1")
        replica_set.advance_past("server-b1")  # its reply was lost: on to server-b2
        message, told = submit(scheduler, replica_set)
        sim.run()
        assert route.sent == [(0.0, "server-b2", 0), (10.0, "server", 0), (30.0, "server-b1", 0)]
        assert replica_set.current_host.name == "server-b1" and replica_set.suspect == ""
        assert message.rounds == 2 and told == [("reply", ANSWER)]


class TestDeltaShippingAlone:
    def test_need_full_marks_the_request_and_resubmits_at_once(self):
        manager = FakeManager()  # no cache: a full-only request must not ask for one
        stage = DeltaShipping(manager)
        assert manager.on_submit == [stage.on_submit] and manager.on_wire == [stage.on_wire]
        assert manager.on_reply == [stage.on_reply]
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
    assert manager.on_submit == manager.on_wire == manager.on_reply == []
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
    assert manager.on_wire == manager.on_reply == []
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
    def test_plain_host_without_delta_has_three_empty_lists(self):
        bed = build_testbed()
        access = bed.access
        assert access.on_submit == access.on_wire == access.on_reply == []
        assert bed.obs.registry.get("qrpc_failovers_total") is None
        note = make_note()
        bed.server.put_object(note)
        assert access.import_(note.urn).wait(bed.sim).data == {"text": "hello"}

    def test_tracing_off_means_five_empty_lists_and_no_tracer_in_the_class(self):
        access = build_testbed().access
        seam = ("on_submit", "on_wire", "on_reply", "on_durable", "on_settled")
        assert [getattr(access, point) for point in seam] == [[]] * 5
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
        assert late.on_submit == late.on_wire == late.on_reply == []

    def test_tracing_on_installs_the_stage_after_the_others(self):
        access = build_testbed(trace=True, delta_shipping=True).access
        owners = [type(hook.__self__).__name__ for hook in access.on_submit]
        assert owners == ["DeltaShipping", "RequestTracing"]  # args amended, then stamped
        assert [type(hook.__self__) for hook in access.on_durable] == [RequestTracing]
        assert [type(hook.__self__) for hook in access.on_settled] == [RequestTracing]

    def test_replies_reach_failover_before_delta(self):
        """``_ha_redirect`` ran ahead of the ``need-full`` check: a fence
        must never be read as an answer, whatever else is installed.
        The scheduler reads it before the manager hears of the reply, so
        the manager holds no failover hook and no failover service."""
        bed = build_ha_testbed(delta_shipping=True)
        access = bed.clients[0].access
        owners = [type(hook.__self__).__name__ for hook in access.on_reply]
        assert owners == ["DeltaShipping"]
        for gone in ("on_failed", "retry", "pending", "fail"):
            assert not hasattr(access, gone)
        assert bed.obs.registry.get("qrpc_failovers_total") is None  # none sent again yet
        note = make_note()
        bed.put_object(note)
        replica_set = access.servers[bed.authority]
        replica_set.learn_primary("server-b1")  # mispointed: the backup fences
        heard = []
        access.on_reply.insert(0, lambda request, reply: heard.append(reply["status"]) or False)
        assert access.import_(note.urn).wait(bed.sim).data == {"text": "hello"}
        assert heard == ["ok"] and replica_set.current_host.name == "server"
        assert bed.obs.registry.get("qrpc_failovers_total").value == 1


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
    for stage in (DeltaShipping, RequestTracing, QueueCompaction):
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


def test_a_replica_set_reads_no_private_member_of_the_scheduler():
    """The scheduler moves a replica set through its methods; nothing
    in :mod:`repro.ha.group` reaches into the scheduler."""
    tree = ast.parse(inspect.getsource(inspect.getmodule(ReplicaSet)))
    reached = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and "scheduler" in ast.unparse(node.value)
    ]
    assert reached == []


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
