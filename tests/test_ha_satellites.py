"""Satellite coverage riding the replication PR.

Pins down the smaller contracts the HA work leaned on: server-side
lock-lease expiry (and its counter), the network scheduler's capped
jittered backoff, the client-side replica-set bookkeeping, deferred
transport replies, the failover counter on the not-primary fence, and
the read path: a read answered by the primary alone, under its lease or
after a heartbeat round.
"""

import math

import pytest

from repro.chaos import ChaosController
from repro.check.oracle import check_replicas_agree
from repro.check.scenarios import HAReadScenario, make_box
from repro.core.rdo import MethodSpec, RDOInterface
from repro.check.seam import SwitchablePolicy
from repro.ha import build_ha_testbed
from repro.ha.group import LOG_CAP, SHIP_BATCH, ReplicaSet
from repro.net.link import ETHERNET_10M
from repro.net.message import marshal, unmarshal
from repro.net.simnet import Delivery
from repro.net.transport import AsyncReply, DelayedReply, RpcError
from repro.testbed import build_multi_client_testbed
from tests.conftest import make_note


def advance(bed, seconds):
    """Run the sim strictly past ``now + seconds``."""
    target = bed.sim.now + seconds
    bed.sim.schedule(seconds, lambda: None)
    bed.sim.run_until(lambda: bed.sim.now >= target, timeout=seconds + 60.0)


class TestLockLeaseExpiry:
    def make_two(self):
        bed = build_multi_client_testbed(2, link_spec=ETHERNET_10M)
        note = make_note()
        bed.server.put_object(note)
        a, b = bed.clients
        return bed, note, a, b, a.access.create_session("alice"), b.access.create_session("bob")

    def test_sweep_expires_overdue_leases(self):
        bed, note, a, _b, sa, _sb = self.make_two()
        grant = a.access.acquire_lock(note.urn, sa, lease_s=10.0).wait(bed.sim)
        assert grant["status"] == "ok"
        # Nobody touches the object: only the sweep can expire it.
        assert bed.server.sweep_expired_locks() == 0
        advance(bed, 11.0)
        assert bed.server.sweep_expired_locks() == 1
        assert bed.server.locks_expired == 1
        metric = bed.obs.registry.get("locks_expired_total")
        assert metric.labels(authority="server", host="server").value == 1

    def test_expired_lease_frees_the_object(self):
        bed, note, a, b, sa, sb = self.make_two()
        a.access.acquire_lock(note.urn, sa, lease_s=5.0).wait(bed.sim)
        denied = b.access.acquire_lock(note.urn, sb)
        bed.sim.run()
        assert denied.failed
        advance(bed, 6.0)
        # Lazy path: the next acquire finds the lease overdue and takes
        # the lock without waiting for any sweep.
        grant = b.access.acquire_lock(note.urn, sb).wait(bed.sim)
        assert grant["status"] == "ok"
        assert bed.server.locks_expired == 1

    def test_live_lease_survives_sweep(self):
        bed, note, a, _b, sa, _sb = self.make_two()
        a.access.acquire_lock(note.urn, sa, lease_s=300.0).wait(bed.sim)
        advance(bed, 10.0)
        assert bed.server.sweep_expired_locks() == 0
        assert bed.server.locks_expired == 0


class TestLockNames:
    def test_a_lock_named_by_anything_but_text_is_refused_on_every_member(self):
        """A number for a URN was granted, and the primary's next tick
        raised out of ``Simulator.run`` sorting the lock table; a list
        for a session was granted, and every backup refused the record
        until anti-entropy healed it."""
        bed = build_ha_testbed(n_backups=2)
        note = make_note()
        bed.put_object(note)
        primary = bed.group.primary_agent()
        lies = ({"urn": 7, "session": "A"}, {"urn": str(note.urn), "session": ["x"]})
        for service in ("rover.lock", "rover.unlock"):
            replies = []
            for n, body in enumerate(lies):
                bed.clients[0].transport.call(
                    primary.host, service, {**body, "request_id": f"c/{service}/{n}"},
                    on_reply=replies.append, on_error=replies.append,
                )
            bed.sim.run(until=bed.sim.now + 10.0)  # ticks: the primary sweeps its lock table
            assert [reply["status"] for reply in replies] == ["error", "error"]
            for agent in bed.group.agents:
                assert agent.server._locks == {} and agent.records_refused == 0


class TestSchedulerBackoff:
    def test_backoff_capped_and_jittered(self):
        bed = build_multi_client_testbed(1)
        scheduler = bed.clients[0].scheduler
        scheduler.base_backoff = 1.0
        scheduler.max_backoff = 4.0
        for attempts in range(1, 12):
            ceiling = min(4.0, 1.0 * (2 ** (attempts - 1)))
            delay = scheduler._backoff_delay(attempts)
            assert 0.5 * ceiling <= delay <= ceiling

    def test_backoff_deterministic_per_seed(self):
        def sample(seed):
            bed = build_multi_client_testbed(1, seed=seed)
            scheduler = bed.clients[0].scheduler
            return [scheduler._backoff_delay(n) for n in range(1, 8)]

        assert sample(7) == sample(7)
        assert sample(7) != sample(8)


class TestReplicaSet:
    def make_set(self):
        bed = build_ha_testbed(n_backups=2)
        return bed.group.make_replica_set()

    def test_learn_primary(self):
        rs = self.make_set()
        assert rs.current_host.name == "server"
        assert rs.learn_primary("server-b1")
        assert rs.current_host.name == "server-b1"
        assert not rs.learn_primary("intruder")
        assert rs.current_host.name == "server-b1"

    def test_rotate_round_robin(self):
        rs = self.make_set()
        names = [rs.rotate().name for _ in range(4)]
        assert names == ["server-b1", "server-b2", "server", "server-b1"]
        assert rs.rotations == 4

    def test_advance_past_is_compare_and_swap(self):
        rs = self.make_set()
        # First failed request moves the pointer off the dead member...
        assert rs.advance_past("server").name == "server-b1"
        # ...and the rest of the wave just follows it: no extra rotation.
        assert rs.advance_past("server").name == "server-b1"
        assert rs.advance_past("server").name == "server-b1"
        assert rs.rotations == 1

    def test_observe_epoch_monotone(self):
        rs = self.make_set()
        assert rs.observe_epoch(1)
        assert rs.observe_epoch(1)  # equal is fresh (same reign)
        assert not rs.observe_epoch(0)
        assert rs.epoch_seen == 1

    @pytest.mark.parametrize("stamp", ["x", True, 1.9])
    def test_a_reply_whose_epoch_is_not_an_int_is_never_believed(self, stamp):
        """A member's reply stamped with an ``ha_epoch`` that is not an
        ``int`` is no answer and names no epoch: each spends a round,
        and the request fails once the rounds run out.  ``"x"`` raised
        ``ValueError`` out of ``Simulator.run``; ``True`` and ``1.9``
        were read as epoch 1 and believed."""
        bed = build_ha_testbed(n_backups=2)
        box = make_box(bed.authority, "check/box")
        bed.put_object(box)
        client = bed.clients[0]
        accept = client.transport._accept_reply

        def restamp(envelope):
            body = envelope.get("body")
            if isinstance(body, dict):
                envelope = {**envelope, "body": {**body, "ha_epoch": stamp}}
            accept(envelope)

        client.transport._accept_reply = restamp
        promise = client.access.invoke_remote(str(box.urn), "add", ["a"])
        bed.sim.run_until(lambda: promise.ready or promise.failed, timeout=3_600.0)
        assert promise.failed
        replica_set = client.access.servers[bed.authority]
        assert replica_set.epoch_seen == 0 and replica_set.max_rounds == 8

    def test_empty_set_rejected(self):
        try:
            ReplicaSet([], "server")
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


class TestAsyncReply:
    def test_bind_then_complete(self):
        sent = []
        reply = AsyncReply()
        reply.bind(sent.append)
        assert not reply.completed
        reply.complete({"status": "ok"})
        assert reply.completed
        assert sent == [{"status": "ok"}]

    def test_complete_then_bind(self):
        sent = []
        reply = AsyncReply()
        reply.complete({"status": "ok"})
        reply.bind(sent.append)
        assert sent == [{"status": "ok"}]

    def test_first_completion_wins(self):
        sent = []
        reply = AsyncReply()
        reply.bind(sent.append)
        reply.complete("first")
        reply.complete("second")
        assert sent == ["first"]


class TestFailoverCounter:
    def test_not_primary_fence_counts_a_failover(self):
        bed = build_ha_testbed(n_backups=2)
        note = make_note()
        bed.put_object(note)
        access = bed.clients[0].access
        session = access.create_session("alice")
        # Mispoint the client at a backup: the fence must redirect the
        # import to the primary and count the redirection.
        access.servers[bed.authority].learn_primary("server-b1")
        result = access.import_(note.urn, session=session).wait(bed.sim)
        assert result.data["text"] == "hello"
        metric = bed.obs.registry.get("qrpc_failovers_total")
        assert metric.labels(host="client0").value >= 1
        assert access.servers[bed.authority].current_host.name == "server"


class TestElectionDecision:
    """An election is decided the moment its outcome is settled; the
    answers are fed to one candidate by hand."""

    def candidate(self, members=3, index=1):
        bed = build_ha_testbed(n_backups=members - 1)
        agent = bed.group.agents[index]
        polls = []

        def call(dst, service, body, on_reply, on_error, timeout=60.0, link=None):
            if service == "rover.ha.poll":  # a new primary's first frames go nowhere
                polls.append((dst.name, body, on_reply))

        agent.transport.call = call
        agent.last_heard = -2.0 * agent.lease_s  # the lease ran out
        agent._start_election()
        assert len(polls) == members - 1 and agent._standing == agent.promised == 1
        return bed, agent, polls

    @staticmethod
    def vote(index, granted=True, heard=False, epoch=0, seq=0):
        return {"seq": seq, "index": index, "epoch": epoch, "heard": heard, "granted": granted}

    def test_three_members_decide_at_the_first_grant(self):
        bed, agent, polls = self.candidate()
        polls[1][2](self.vote(2))
        # Two of three is the majority: the dead primary is not waited for.
        assert (agent.role, agent.epoch, agent._standing) == ("primary", 1, 0)
        assert bed.sim.now == 0.0
        polls[0][2](self.vote(0, granted=False, heard=True))  # too late to matter
        bed.sim.run(until=5.0)  # ...as is the poll's own timer
        assert (agent.role, agent.epoch) == ("primary", 1)

    def test_five_members_decide_at_the_grant_that_completes_the_majority(self):
        bed, agent, polls = self.candidate(members=5)
        polls[1][2](self.vote(2))
        assert agent.role == "backup" and agent._standing == 1  # two of five
        polls[3][2](self.vote(4))
        assert (agent.role, agent.epoch) == ("primary", 1)

    def test_a_heard_answer_before_the_majority_stands_the_candidate_down_at_the_timeout(self):
        bed, agent, polls = self.candidate(members=5)
        polls[0][2](self.vote(0, granted=False, heard=True))
        polls[1][2](self.vote(2))
        polls[2][2](self.vote(3))
        assert agent.role == "backup" and agent._standing == 1  # a majority, but not a failure
        bed.sim.run(until=4.02)
        assert agent.role == "backup" and agent._standing == 0
        assert agent._hold_until == 4.01 + agent.lease_s

    def test_an_outranking_answer_blocks_promotion(self):
        bed, agent, polls = self.candidate(index=2)
        polls[1][2](self.vote(1))  # grants, but would win an election of its own
        assert agent.role == "backup" and agent._standing == 1
        polls[0][2](self.vote(0, granted=True))
        # Every peer has answered: decided now, not at the timeout.
        assert agent.role == "backup" and agent._standing == 0 and agent._hold_until == 0.0

    def test_a_refusal_naming_a_newer_epoch_raises_the_next_proposal(self):
        bed, agent, polls = self.candidate()
        polls[0][2](self.vote(0, granted=False, epoch=4))
        polls[1][2](self.vote(2, granted=False, epoch=4))
        assert agent.role == "backup" and agent._standing == 0 and agent.promised == 4

    def test_a_stale_timer_does_not_decide_the_next_election(self):
        bed, agent, polls = self.candidate()
        polls[0][2](self.vote(0, granted=False, epoch=1))
        polls[1][2](self.vote(2, granted=False, epoch=1))  # all answered: lost, at t = 0
        bed.sim.run(until=2.0)
        agent._start_election()  # the next tick's poll; its answers are still out
        assert agent._standing == 2 and len(polls) == 4
        bed.sim.run(until=4.02)  # the first poll's timer fires
        assert agent.role == "backup" and agent._standing == 2  # still open
        polls[3][2](self.vote(2))
        assert (agent.role, agent.epoch) == ("primary", 2)

    def test_crossed_polls_for_one_epoch_go_to_the_higher_rank(self):
        """Both candidates promised the number to themselves; refusing
        each other would repeat in lockstep every tick."""
        bed, agent, polls = self.candidate(index=2)
        better = {"proposed": 1, "seq": 0, "index": 1, "candidate": "server-b1"}
        answer = agent._on_poll(better, ("server-b1", 0))
        assert answer["granted"] and agent._standing == 0  # the vote moved: its own poll is closed
        polls[0][2](self.vote(0))
        assert agent.role == "backup"  # ...and a late grant cannot win it
        # The higher-ranked candidate does not yield in return.
        bed, agent, polls = self.candidate(index=1)
        worse = {"proposed": 1, "seq": 0, "index": 2, "candidate": "server-b2"}
        assert not agent._on_poll(worse, ("server-b2", 0))["granted"] and agent._standing == 1


class TestShipBatch:
    """``_ship_to`` takes its batch by offset: the log holds
    ``(base_seq, seq]`` without a gap, so the records from a cursor on
    are a slice.  Checked against the scan it replaced."""

    @staticmethod
    def shipped(base_seq, seq, acked):
        """What the primary sends a peer that acknowledged ``acked``:
        ``(frame, [record seqs])``, with the log set by hand."""
        bed = build_ha_testbed(n_backups=1)
        agent = bed.group.primary_agent()
        agent.base_seq, agent.seq = base_seq, seq
        agent.log = [{"seq": n} for n in range(base_seq + 1, seq + 1)]
        (peer,) = agent.peers
        peer["acked_seq"] = acked
        sent = []

        def call(dst, service, body, on_reply, on_error, timeout=60.0, link=None):
            sent.append((frame(service, body), [r["seq"] for r in body.get("records", [])]))

        agent.transport.call = call
        agent._ship_to(peer)
        scan = [r["seq"] for r in agent.log if r["seq"] >= acked + 1][:SHIP_BATCH]
        return sent, scan

    def test_an_untrimmed_log_ships_from_the_cursor(self):
        sent, scan = self.shipped(base_seq=0, seq=10, acked=3)
        assert sent == [("records", scan)] and scan == list(range(4, 11))

    def test_a_batch_stops_at_its_cap(self):
        sent, scan = self.shipped(base_seq=0, seq=200, acked=0)
        assert sent == [("records", scan)] and scan == list(range(1, SHIP_BATCH + 1))

    def test_a_trimmed_log_ships_by_offset_from_its_base(self):
        sent, scan = self.shipped(base_seq=5000, seq=5000 + LOG_CAP, acked=5900)
        assert sent == [("records", scan)]
        assert scan == list(range(5901, 5901 + SHIP_BATCH))

    def test_a_cursor_at_the_base_ships_the_oldest_record_held(self):
        sent, scan = self.shipped(base_seq=5000, seq=5010, acked=5000)
        assert sent == [("records", scan)] and scan[0] == 5001

    def test_a_cursor_below_the_base_is_nudged_to_resync(self):
        sent, scan = self.shipped(base_seq=5000, seq=5010, acked=4999)
        assert sent == [("gap", [])]

    def test_a_cursor_at_the_head_ships_nothing(self):
        sent, scan = self.shipped(base_seq=5000, seq=5010, acked=5010)
        assert sent == [] and scan == []


def applied(bed):
    """``ha_records_applied_total`` per member."""
    metric = bed.obs.registry.get("ha_records_applied_total")
    return [
        metric.labels(authority=bed.authority, host=agent.host.name).value
        for agent in bed.group.agents
    ]


def frame(service, body):
    """What a call carries: a replicate frame is named by its body --
    ``records``, a ``gap``, or with neither a ``heartbeat`` -- and any
    other call by its service."""
    if service != "rover.ha.replicate":
        return service
    if "records" in body:
        return "records"
    return "gap" if body.get("gap") else "heartbeat"


def intercept(agent, hold=()):
    """Record every call ``agent`` makes as ``(frame, body, args)``
    (:func:`frame`); calls of a frame in ``hold`` are kept back, the
    rest go out."""
    real = agent.transport.call
    calls = []

    def call(dst, service, body, on_reply, on_error, timeout=60.0, link=None):
        args = (dst, service, body)
        kwargs = {"on_reply": on_reply, "on_error": on_error, "timeout": timeout, "link": link}
        kind = frame(service, body)
        calls.append((kind, body, (args, kwargs)))
        if kind not in hold:
            return real(*args, **kwargs)

    agent.transport.call = call
    return calls, real


class _LoseTheProbe:
    """Fault injector: lose the first frame sent while a read-index
    heartbeat to ``peer`` is outstanding (that heartbeat's own frame)."""

    def __init__(self, peer):
        self.peer = peer
        self.dropped = 0

    def plan(self, link, delivery):
        if self.dropped or self.peer["probe"] is None:
            return [delivery]
        self.dropped += 1
        return [Delivery(delivery.time, delivery.payload, "dropped by the test")]


SHIP_READ = HAReadScenario.ship_read

#: One read of the box's items per kind of read a client can make.
READERS = {
    "invoke": lambda bed, access, urn: access.invoke_remote(urn, "read", []).wait(bed.sim),
    "import": lambda bed, access, urn: list(
        access.import_(urn, refresh=True).wait(bed.sim).data["items"]
    ),
    "ship": lambda bed, access, urn: access.ship(
        bed.authority, SHIP_READ, args=[urn]
    ).wait(bed.sim),
}

#: A request body for each client service the server answers as a read.
READ_BODIES = {
    "rover.import": lambda urn: {"urn": urn},
    "rover.list": lambda urn: {"prefix": ""},
    "rover.ship": lambda urn: {"code": SHIP_READ, "args": [urn], "request_id": "c/1"},
    "rover.subscribe": lambda urn: {"prefix": ""},
}


class TestReadPath:
    """A read is answered by the primary with no record and no ship to
    the backups, held behind every record it may show
    until a quorum has it, and only while the primary's lease says no
    other primary can exist."""

    def group(self, n_clients=1, **options):
        bed = build_ha_testbed(n_backups=2, n_clients=n_clients, **options)
        box = make_box(bed.authority, "check/box")
        bed.put_object(box)
        return bed, str(box.urn)

    def test_a_read_ships_nothing_and_no_backup_applies_it(self):
        bed, urn = self.group()
        access = bed.clients[0].access
        assert access.invoke_remote(urn, "add", ["a"]).wait(bed.sim) == 1
        primary = bed.group.primary_agent()
        before, seq = applied(bed), primary.seq
        calls, _real = intercept(primary)
        assert access.invoke_remote(urn, "read", []).wait(bed.sim) == ["a"]
        assert [kind for kind, *_ in calls if kind == "records"] == []
        assert applied(bed) == before and primary.seq == seq
        assert primary.server.reads_served == 1
        assert [agent.server.reads_served for agent in bed.group.agents[1:]] == [0, 0]

    def test_a_mutating_invoke_still_ships_exactly_one_record(self):
        bed, urn = self.group()
        primary = bed.group.primary_agent()
        before = applied(bed)
        calls, _real = intercept(primary)
        assert bed.clients[0].access.invoke_remote(urn, "add", ["a"]).wait(bed.sim) == 1
        shipped = [
            record["seq"]
            for kind, body, _ in calls if kind == "records"
            for record in body["records"]
        ]
        assert shipped == [1, 1]  # one record, once to each backup
        assert applied(bed) == [before[0], before[1] + 1, before[2] + 1]

    def test_a_read_behind_an_unacked_write_waits_for_it(self):
        bed, urn = self.group(n_clients=2)
        writer, reader = (stack.access for stack in bed.clients)
        primary = bed.group.primary_agent()
        calls, real = intercept(primary, hold=("records",))
        added = writer.invoke_remote(urn, "add", ["a"])
        bed.sim.run(until=bed.sim.now + 0.5)
        read = reader.invoke_remote(urn, "read", [])
        bed.sim.run(until=bed.sim.now + 0.5)
        assert primary.seq == 1 and not added.ready and not read.ready
        # The read ran after the write, so it shows it: it must not
        # leave before the write is safe.
        for kind, _body, (args, kwargs) in calls:
            if kind == "records":
                real(*args, **kwargs)
        assert read.wait(bed.sim) == ["a"] and added.wait(bed.sim) == 1

    def test_a_waiting_import_ships_the_state_it_read(self):
        bed, urn = self.group(n_clients=3)
        first, reader, last = (stack.access for stack in bed.clients)
        primary = bed.group.primary_agent()
        calls, real = intercept(primary, hold=("records",))
        first.invoke_remote(urn, "add", ["a"])
        bed.sim.run(until=bed.sim.now + 0.5)
        imported = reader.import_(urn, refresh=True)
        bed.sim.run(until=bed.sim.now + 0.5)
        # A write that runs while the import waits on the first one
        # changes the stored data in place; the import must not show it.
        last.invoke_remote(urn, "add", ["c"])
        bed.sim.run(until=bed.sim.now + 0.5)
        assert primary.seq == 2 and not imported.ready
        for kind, _body, (args, kwargs) in calls:
            if kind == "records":
                real(*args, **kwargs)
        rdo = imported.wait(bed.sim)
        held = primary.server.objects[urn]
        assert rdo.data == primary.server._base_data(held, rdo.version) == {"items": ["a"]}
        assert reader.cache.lookup(urn).rdo.data == {"items": ["a"]}

    def test_a_gated_write_reply_ships_the_result_it_had(self):
        """A write's reply waits for its quorum as the method returned
        it; a method that returns part of its state returns it by
        reference, and a later write changes that part in place."""
        bed = build_ha_testbed(n_backups=2, n_clients=2)
        box = make_box(bed.authority, "check/stack")
        box.code += "\ndef push(state, item):\n    state['items'].append(item)\n    return state['items']\n"
        box.interface = RDOInterface([*box.interface.values(), MethodSpec("push", mutates=True)])
        bed.put_object(box)
        urn = str(box.urn)
        first, second = (stack.access for stack in bed.clients)
        primary = bed.group.primary_agent()
        calls, real = intercept(primary, hold=("records",))
        pushed = first.invoke_remote(urn, "push", ["a"])
        bed.sim.run(until=bed.sim.now + 0.5)
        overtaking = second.invoke_remote(urn, "push", ["b"])
        bed.sim.run(until=bed.sim.now + 0.5)
        assert primary.seq == 2 and not pushed.ready and not overtaking.ready
        primary.transport.call = real
        for kind, _body, (args, kwargs) in calls:
            if kind == "records":
                real(*args, **kwargs)
        assert pushed.wait(bed.sim) == ["a"]
        assert overtaking.wait(bed.sim) == ["a", "b"]

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_a_zombie_whose_lease_lapsed_does_not_answer(self, kind):
        mesh = {(0, 1): SwitchablePolicy(), (0, 2): SwitchablePolicy()}
        bed, urn = self.group(
            n_clients=2, mesh_policies=mesh, lease_s=1.5, heartbeat_s=0.5,
            rpc_timeout_s=1.0, max_attempts=2,
        )
        reader, writer = (stack.access for stack in bed.clients)
        assert writer.invoke_remote(urn, "add", ["a"]).wait(bed.sim) == 1
        zombie, b1 = bed.group.agents[0], bed.group.agents[1]
        for link in zombie.host.links:
            if isinstance(link.policy, SwitchablePolicy):
                link.policy.force_down(bed.sim.now, 60.0)
                link._handle_transition()
        bed.sim.run_until(lambda: b1.role == "primary", timeout=30.0)
        writer.servers[bed.authority].learn_primary(b1.host.name)
        assert writer.invoke_remote(urn, "add", ["b"]).wait(bed.sim) == 2
        # The reader still points at the zombie, which still thinks it
        # is primary: it runs the read, but its lease ran out and its
        # heartbeat round reaches nobody.
        assert zombie.role == "primary"
        assert READERS[kind](bed, reader, urn) == ["a", "b"]
        assert zombie.server.reads_served >= 1 and zombie._waiters
        assert reader.servers[bed.authority].current_host.name == b1.host.name

    @pytest.mark.parametrize("service", sorted(READ_BODIES))
    def test_a_read_service_is_stamped_like_a_read_only_invoke(self, service):
        bed, urn = self.group()
        bed.sim.run(until=5.0)  # under the lease: answered at once
        primary = bed.group.primary_agent()
        reads, seq = primary.server.reads_served, primary.seq
        reply = primary._serve_client(service, READ_BODIES[service](urn), ("client0", 0))
        if isinstance(reply, DelayedReply):
            reply = reply.body
        assert reply["status"] == "ok"
        assert (reply["ha_epoch"], reply["ha_member"]) == (primary.epoch, primary.host.name)
        assert primary.server.reads_served == reads + 1 and primary.seq == seq

    def test_confirmations_from_a_previous_reign_do_not_count(self):
        bed, urn = self.group()
        bed.sim.run(until=5.0)
        primary = bed.group.primary_agent()
        assert all(bed.sim.now - peer["confirmed"] < primary.lease_s for peer in primary.peers)
        calls, _real = intercept(primary, hold=("heartbeat", "records", "rover.ha.sync"))
        primary._send_heartbeat(primary.peers[0])
        old_ack = calls[-1][2][1]["on_reply"]
        primary._deposed({"status": "stale-epoch", "epoch": 1, "primary": "server-b1"})
        assert [peer["confirmed"] for peer in primary.peers] == [-math.inf, -math.inf]
        primary._promote(2, [])
        old_ack({"ack_seq": primary.seq, "epoch": 2})  # the old reign's frame, acked late
        assert [peer["confirmed"] for peer in primary.peers] == [-math.inf, -math.inf]
        # No lease: a read waits on a heartbeat round of its own.
        sent = len(calls)
        body = {"urn": urn, "method": "read", "args": [], "request_id": "c/1"}
        gate = primary._serve_client("rover.invoke", body, ("client0", 0))
        assert isinstance(gate, AsyncReply)
        assert [kind for kind, *_ in calls[sent:]] == ["heartbeat"] * 2
        calls[-1][2][1]["on_reply"]({"ack_seq": primary.seq, "epoch": 2})
        assert primary._waiters == []  # one of two backups is the quorum

    def test_a_read_whose_heartbeat_frame_is_lost_is_still_answered(self):
        bed, urn = self.group()
        access = bed.clients[0].access
        assert access.invoke_remote(urn, "add", ["a"]).wait(bed.sim) == 1
        primary = bed.group.primary_agent()
        for peer in primary.peers:
            peer["confirmed"] = -math.inf  # no lease: the read waits on a round
        lost = [_LoseTheProbe(peer) for peer in primary.peers]
        for peer, injector in zip(primary.peers, lost):
            primary.host.best_link_to(peer["host"]).fault_injector = injector
        assert access.invoke_remote(urn, "read", []).wait(bed.sim) == ["a"]
        # Each probe's frame was lost on a link that stayed up; its
        # error cleared the probe, so a later read can start a round.
        assert [injector.dropped for injector in lost] == [1, 1]
        assert [peer["probe"] for peer in primary.peers] == [None, None]

    def old_heartbeat_after(self, vote):
        """Send a heartbeat from the primary to its first backup, let
        ``vote`` run on that backup, then deliver the heartbeat."""
        bed, _urn = self.group()
        bed.sim.run(until=5.0)
        primary, backup = bed.group.agents[0], bed.group.agents[1]
        calls, real = intercept(primary, hold=("heartbeat",))
        primary._send_heartbeat(primary.peers[0])
        for peer in primary.peers:
            peer["confirmed"] = -math.inf  # the lease so far is not at stake
        backup.last_heard -= backup.lease_s + 1  # silent for a lease
        vote(backup, primary.epoch + 1)
        args, kwargs = calls[-1][2]
        real(*args, **kwargs)
        bed.sim.run(until=bed.sim.now + 1.0)
        return primary

    def test_a_backup_that_granted_a_newer_epoch_confirms_no_lease(self):
        def grant(backup, epoch):
            poll = {"proposed": epoch, "seq": backup.seq, "index": 2, "candidate": "server-b2"}
            assert backup._on_poll(poll, ("server-b2", 0))["granted"]

        primary = self.old_heartbeat_after(grant)
        # The candidate may have won: the old reign's frame is refused,
        # and its primary steps down rather than hold a lease.
        assert primary.peers[0]["confirmed"] == -math.inf
        assert primary.role == "backup"

    def test_a_backup_standing_for_a_newer_epoch_confirms_no_lease(self):
        def stand(backup, epoch):
            calls, _real = intercept(backup, hold=("rover.ha.poll",))
            backup._start_election()
            assert backup._standing == epoch and calls

        primary = self.old_heartbeat_after(stand)
        assert primary.peers[0]["confirmed"] == -math.inf
        assert primary.role == "primary"  # its own poll is no grant

    def test_reads_waiting_on_a_round_share_the_heartbeat_in_flight(self):
        bed, urn = self.group()
        bed.sim.run(until=5.0)
        primary = bed.group.primary_agent()
        calls, real = intercept(primary, hold=("heartbeat",))
        for peer in primary.peers:
            peer["confirmed"] = -math.inf
        gates = []
        for n in range(3):
            body = {"urn": urn, "method": "read", "args": [], "request_id": f"c/{n}"}
            gates.append(primary._serve_client("rover.invoke", body, ("client0", 0)))
            bed.sim.run(until=bed.sim.now + 0.01)
        assert all(isinstance(gate, AsyncReply) for gate in gates)
        rounds = [entry for entry in calls if entry[0] == "heartbeat"]
        assert len(rounds) == 2  # one per peer, not one per read
        # The round answers the first read only; the next round, sent
        # then, answers the other two.
        args, kwargs = rounds[0][2]
        real(*args, **kwargs)
        bed.sim.run(until=bed.sim.now + 0.2)
        assert len(primary._waiters) == 2
        rounds = [entry for entry in calls if entry[0] == "heartbeat"]
        assert len(rounds) == 3
        args, kwargs = rounds[-1][2]
        real(*args, **kwargs)
        bed.sim.run(until=bed.sim.now + 0.2)
        assert primary._waiters == []

    def test_a_restarted_backup_that_acked_within_the_lease_still_hears_the_primary(self):
        bed, _urn = self.group()
        bed.sim.run(until=5.0)
        controller = ChaosController(bed.sim, obs=bed.obs)
        controller.crash_server(bed.group.agents[0].server)  # nobody renews it now
        backup = bed.group.agents[1]
        heard_at = backup.last_heard
        assert bed.sim.now - heard_at < backup.lease_s
        controller.crash_server(backup.server)
        controller.restart_server(backup.server)
        poll = {"proposed": 9, "seq": 99, "index": 2, "candidate": "server-b2"}
        answer = backup._on_poll(poll, ("server-b2", 0))
        assert answer["heard"] and not answer["granted"]
        bed.sim.run(until=heard_at + backup.lease_s - 1e-6)  # to the lease's end
        assert backup.last_heard == heard_at and backup._on_poll(poll, ("server-b2", 0))["heard"]


def test_a_rejoining_member_forgets_the_writes_it_ran_alone():
    """A deposed primary ran an append no quorum saw; anti-entropy puts
    back the primary's copy, and the primary's record of the same
    request must then apply -- not be answered from the joiner's own
    committer index, leaving the members apart for good."""
    bed = build_ha_testbed(n_backups=1)
    box = make_box(bed.authority, "check/box")
    bed.put_object(box)
    (primary, __), (joiner, __) = bed.members
    body = {"urn": str(box.urn), "method": "add", "args": ["x"], "request_id": "c/1"}
    joiner.serve("rover.invoke", dict(body), ("client0", 0))
    joiner.merge_subset(primary.subset_snapshot([str(box.urn)]), [])
    assert joiner.get_object(str(box.urn)).data == {"items": []}
    for server in (primary, joiner):
        server.serve("rover.invoke", dict(body), ("client0", 0))
    assert joiner.state_vector() == primary.state_vector()
    assert joiner.get_object(str(box.urn)).data == {"items": ["x"]}


def held_state(server):
    """A member's store, version history, committer index and lock table,
    encoded: equal bytes, equal state."""
    locks = sorted([urn, *lease] for urn, lease in server._locks.items())
    return marshal([server.subset_snapshot(server.objects), locks])


class TestRecordInstall:
    """A backup installs what the primary wrote and runs no handler; a
    record it cannot install changes nothing there, is counted, and is
    healed by anti-entropy."""

    @staticmethod
    def boxed():
        bed = build_ha_testbed(n_backups=2)
        box = make_box(bed.authority, "check/box")
        bed.put_object(box)
        return bed, str(box.urn)

    def group(self):
        bed, urn = self.boxed()
        assert bed.clients[0].access.invoke_remote(urn, "add", ["a"]).wait(bed.sim) == 1
        settle(bed)
        return bed, urn

    def test_a_write_ships_what_it_stored_and_the_backups_run_no_handler(self):
        # Read the record before the acks land: the primary forgets it then.
        bed, urn = self.boxed()
        primary = bed.group.primary_agent()
        body = {"urn": urn, "method": "add", "args": ["a"], "request_id": "c/1"}
        primary._serve_client("rover.invoke", body, ("client0", 0))
        record = primary.log[-1]
        write = record["write"]
        assert set(record) == {"seq", "epoch", "write"}
        assert write["urn"] == urn and write["version"] == 2 and write["data"] == {"items": ["a"]}
        # The version history's own copy, not the live stored data.
        entry = primary.server.objects[urn]
        assert write["data"] is entry.history[-1][1]
        assert write["data"] is not entry.wire["data"]
        assert write["reply"] == entry.committed[write["request_id"]]
        settle(bed)
        for agent in bed.group.agents[1:]:
            assert agent.server.invokes_served == 0 and agent.server.reads_served == 0
        assert check_replicas_agree([agent.server for agent in bed.group.agents], bed.sim.now) == []

    def test_a_retransmitted_mutating_invoke_answered_from_the_cache_ships_an_empty_write_set(self):
        """The reply from the at-most-once cache names the version that
        request wrote, long since overwritten: installed from it, the
        newest data would land under an old version."""
        bed, urn = self.group()
        primary = bed.group.primary_agent()
        body = {"urn": urn, "method": "add", "args": ["b"], "request_id": "c/1", "ackw": ["c", 1]}
        primary._serve_client("rover.invoke", dict(body), ("client0", 0))
        later = {**body, "args": ["c"], "request_id": "c/2"}
        primary._serve_client("rover.invoke", later, ("client0", 0))
        primary._serve_client("rover.invoke", dict(body), ("client0", 0))  # answered from the cache
        first, second, again = primary.log[-3:]
        assert (first["write"]["version"], second["write"]["version"]) == (3, 4)
        assert first["write"]["reply"]["version"] == 3
        assert again["write"] == {} and again["seq"] == second["seq"] + 1
        settle(bed)
        assert [agent.seq for agent in bed.group.agents] == [again["seq"]] * 3
        assert check_replicas_agree([agent.server for agent in bed.group.agents], bed.sim.now) == []
        for agent in bed.group.agents:
            assert agent.server.get_object(urn).data["items"] == ["a", "b", "c"]
            assert agent.server.get_object(urn).version == 4

    def test_a_write_that_changed_nothing_ships_its_kept_reply(self):
        """A late duplicate of an export refused as ``locked`` gets the
        same answer from the member a failover promotes: it does not run
        again, now that the lock is gone, and commit what its client was
        told had not."""
        bed, urn = self.group()
        primary = bed.group.primary_agent()
        primary._serve_client("rover.lock", {"urn": urn, "session": "s", "lease_s": 60.0}, ("c", 0))
        export = {"urn": urn, "base_version": 2, "data": {"items": ["late"]},
                  "request_id": "c/5", "session": "t"}
        primary._serve_client("rover.export", dict(export), ("c", 0))
        assert primary.log[-1]["write"] == {
            "request_id": "c/5", "reply": {"status": "locked", "holder": "s"},
        }
        primary._serve_client("rover.unlock", {"urn": urn, "session": "s"}, ("c", 0))
        settle(bed)
        ChaosController(bed.sim, obs=bed.obs).crash_server(primary.server)
        assert bed.sim.run_until(lambda: bed.group.primary_agent() is not primary, timeout=60.0)
        promoted = bed.group.primary_agent()
        again = promoted._serve_client("rover.export", dict(export), ("c", 0))
        assert bed.sim.run_until(lambda: again.completed, timeout=30.0)
        assert again._body["status"] == "locked"
        assert promoted.server.get_object(urn).data == {"items": ["a"]}

    def test_a_lock_and_an_unlock_ship_the_lease(self):
        bed, urn = self.group()
        primary = bed.group.primary_agent()
        primary._serve_client("rover.lock", {"urn": urn, "session": "s", "lease_s": 60.0}, ("c", 0))
        granted = primary.log[-1]["write"]
        assert granted == {"urn": urn, "lock": ["s", primary.server._locks[urn][1]]}
        settle(bed)
        assert [agent.server._locks for agent in bed.group.agents] == [primary.server._locks] * 3
        primary._serve_client("rover.lock", {"urn": urn, "session": "t"}, ("c", 0))  # denied
        assert primary.log[-1]["write"] == {}
        primary._serve_client("rover.unlock", {"urn": urn, "session": "s"}, ("c", 0))
        assert primary.log[-1]["write"] == {"urn": urn, "lock": None}
        settle(bed)
        assert [agent.server._locks for agent in bed.group.agents] == [{}] * 3

    @pytest.mark.parametrize(
        "write",
        [
            pytest.param({"urn": "urn:rover:server/check/none", "version": 1, "data": {}},
                         id="unknown-urn"),
            pytest.param({"urn": "urn:rover:server/check/box", "version": 4, "data": {"items": []}},
                         id="skipped-version"),
            pytest.param(["urn:rover:server/check/box", 3], id="not-a-dict"),
            pytest.param({"urn": "urn:rover:server/check/box", "lock": "held"},
                         id="malformed-lock"),
            pytest.param({"urn": "urn:rover:server/check/box", "version": 3, "data": {"items": []},
                          "request_id": "c/9"}, id="entry-without-reply"),
        ],
    )
    def test_a_record_that_does_not_install_changes_nothing_and_is_healed(self, write):
        bed, urn = self.group()
        primary, backup = bed.group.agents[0], bed.group.agents[1]
        before, seq = held_state(backup.server), backup.seq

        def counted() -> float:  # the registry reads the agent's count when it is read
            refused = bed.obs.registry.get("ha_records_refused_total")
            return refused.labels(authority=bed.authority, host=backup.host.name).value

        assert counted() == 0
        ack = backup._on_replicate(
            {"epoch": primary.epoch, "primary": primary.host.name, "commit_seq": seq + 1,
             "records": [{"seq": seq + 1, "epoch": primary.epoch, "write": write}]},
            (primary.host.name, 0),
        )
        assert ack["ack_seq"] == seq and backup.seq == seq
        assert held_state(backup.server) == before
        assert counted() == 1
        assert backup._needs_sync
        # Anti-entropy heals it; the next write installs everywhere.
        assert bed.clients[0].access.invoke_remote(urn, "add", ["b"]).wait(bed.sim) == 2
        settle(bed)
        assert not backup._needs_sync and backup.seq == primary.seq
        assert check_replicas_agree([agent.server for agent in bed.group.agents], bed.sim.now) == []
        assert backup.server.get_object(urn).data == {"items": ["a", "b"]}

    @pytest.mark.parametrize(
        "spoil",
        [
            pytest.param(lambda answer, urn: answer["subset"]["store"][urn][0].pop("data"),
                         id="wire-without-data"),
            pytest.param(lambda answer, urn: answer.update(subset=["not", "a", "dict"]),
                         id="subset-not-a-dict"),
            pytest.param(lambda answer, urn: answer["subset"]["store"][urn].__setitem__(1, "two"),
                         id="version-as-text"),
            pytest.param(lambda answer, urn: answer.update(seq="7"), id="seq-as-text"),
        ],
    )
    def test_a_malformed_anti_entropy_answer_changes_nothing_and_is_counted(self, spoil):
        """Taken on trust, the first two raised out of ``Simulator.run``,
        the third installed version ``"two"`` (the next record's install
        then raised) and the fourth was coerced to seq 7."""
        bed, urn = self.group()
        primary, backup = bed.group.agents[0], bed.group.agents[1]
        answer = unmarshal(marshal(primary._on_sync({"vector": {}}, (backup.host.name, 0))))
        spoil(answer, urn)
        backup._needs_sync = True  # as after a restart
        before = held_state(backup.server)
        agent_state = (backup.seq, backup.base_seq, backup.epoch, backup.primary_name, backup.role)

        backup._adopt_sync(answer)

        assert held_state(backup.server) == before
        assert (backup.seq, backup.base_seq, backup.epoch, backup.primary_name,
                backup.role) == agent_state
        assert backup._needs_sync
        refused = bed.obs.registry.get("ha_sync_answers_refused_total")
        assert refused.labels(authority=bed.authority, host=backup.host.name).value == 1
        # The tick asks again, and a well-formed answer heals the member.
        settle(bed)
        assert not backup._needs_sync
        assert check_replicas_agree([agent.server for agent in bed.group.agents], bed.sim.now) == []


def settle(bed):
    """Run until every live member holds the primary's seq, synced."""
    primary = bed.group.primary_agent()
    assert bed.sim.run_until(
        lambda: all(
            agent.seq == primary.seq and not agent._needs_sync and not agent._syncing
            for agent in bed.group.agents if not agent._crashed
        ),
        timeout=120.0,
    )


def evicted(bed, agent):
    """``ha_log_evicted_total`` on ``agent``."""
    metric = bed.obs.registry.get("ha_log_evicted_total")
    return metric.labels(authority=bed.authority, host=agent.host.name).value


def cut(agent, seconds):
    """Take ``agent``'s scripted links down for ``seconds`` (0: up again)."""
    for link in agent.host.links:
        if isinstance(link.policy, SwitchablePolicy):
            link.policy.force_down(agent.sim.now, seconds)
            link._handle_transition()


class TestRecordRetention:
    """The record log holds exactly what some peer may still need: the
    primary forgets a record once every peer has acked it, a backup
    keeps none, and a reign's records end with it."""

    def group(self, **options):
        bed = build_ha_testbed(n_backups=2, **options)
        note = make_note(bed.authority, "notes/log")
        bed.put_object(note)
        return bed, str(note.urn)

    def test_a_settled_group_holds_no_records(self):
        bed, urn = self.group()
        access = bed.clients[0].access
        for n in range(5):
            assert access.invoke_remote(urn, "set_text", [str(n)]).wait(bed.sim) == str(n)
        settle(bed)
        seq = bed.group.primary_agent().seq
        assert seq == 5
        assert [(agent.log, agent.base_seq) for agent in bed.group.agents] == [([], seq)] * 3

    def test_a_partitioned_backup_caps_the_log_and_heals_by_anti_entropy(self):
        bed, urn = self.group(mesh_policies={(0, 2): SwitchablePolicy()})
        primary, straggler = bed.group.agents[0], bed.group.agents[2]
        access = bed.clients[0].access
        assert access.invoke_remote(urn, "set_text", ["0"]).wait(bed.sim) == "0"
        settle(bed)
        cut(primary, 3600.0)
        live = bed.sim.pending()
        longest = most = 0
        for n in range(1, LOG_CAP + 101):  # honest writes, on the remaining quorum
            assert access.invoke_remote(urn, "set_text", [str(n)]).wait(bed.sim) == str(n)
            longest = max(longest, len(primary.log))
            most = max(most, bed.sim.pending())
        assert longest == LOG_CAP and straggler.seq == 1
        # The straggler still needed every record the cap dropped.
        assert evicted(bed, primary) == primary.base_seq - primary.peers[1]["acked_seq"] == 100
        advance(bed, 60.0)  # idle beats, the straggler still cut off
        # Neither a write nor a beat leaves a timer behind for it.
        assert most <= live + 2 and bed.sim.pending() <= live + 2
        installed = applied(bed)[2]
        cut(primary, 0.0)
        settle(bed)
        advance(bed, 2 * primary.heartbeat_s)
        assert applied(bed)[2] == installed  # anti-entropy, not records
        assert straggler.seq == primary.seq and primary.log == [] and straggler.log == []
        assert check_replicas_agree([agent.server for agent in bed.group.agents], bed.sim.now) == []
        assert straggler.server.get_object(urn).data == {"text": str(LOG_CAP + 100)}

    def test_a_backup_that_lags_the_promoted_one_is_healed_by_resync(self):
        bed, urn = self.group(mesh_policies={(0, 2): SwitchablePolicy()})
        old, promoted, lagger = bed.group.agents
        access = bed.clients[0].access
        assert access.invoke_remote(urn, "set_text", ["a"]).wait(bed.sim) == "a"
        settle(bed)
        cut(old, 3600.0)
        for text in "bc":
            assert access.invoke_remote(urn, "set_text", [text]).wait(bed.sim) == text
        assert promoted.seq == old.seq == lagger.seq + 2
        installed = applied(bed)[2]
        calls, _real = intercept(promoted)
        ChaosController(bed.sim, obs=bed.obs).crash_server(old.server)
        assert bed.sim.run_until(lambda: promoted.role == "primary", timeout=60.0)
        settle(bed)
        to_lagger = [kind for kind, _body, ((dst, *_), _) in calls if dst is lagger.host]
        assert "gap" in to_lagger and applied(bed)[2] == installed
        assert lagger.seq == promoted.seq and lagger.server.get_object(urn).data == {"text": "c"}
        assert check_replicas_agree([promoted.server, lagger.server], bed.sim.now) == []

    def test_a_deposed_primary_ships_nothing_of_its_old_reign(self):
        bed, urn = self.group()
        bed.sim.run(until=5.0)
        primary = bed.group.primary_agent()
        held = ("records", "gap", "rover.ha.sync")
        calls, _real = intercept(primary, hold=held)
        body = {"urn": urn, "method": "set_text", "args": ["alone"], "request_id": "c/1"}
        primary._serve_client("rover.invoke", body, ("client0", 0))
        assert [record["seq"] for record in primary.log] == [primary.seq] == [1]
        primary._deposed({"status": "stale-epoch", "epoch": 1, "primary": "server-b1"})
        assert primary.log == [] and primary.base_seq == primary.seq
        for kind, _body, (_args, kwargs) in calls:
            if kind == "records":
                kwargs["on_error"](RpcError("frame lost"))
        # Re-elected before its sync: both peers reported less than it ran.
        sent = len(calls)
        reported = [{"index": agent.index, "seq": agent.seq} for agent in bed.group.agents[1:]]
        primary._promote(2, reported)
        assert [kind for kind, *_ in calls[sent:]] == ["gap"] * 2


class TestHostilePeerIntegers:
    """A peer's integers are read as integers of exactly that type: a
    text, a bool or anything else in their place is refused with nothing
    changed, where ``int()`` would raise out of a scheduled callback or
    read ``True`` as 1 and ``"99"`` as 99."""

    GRANT = {"seq": 0, "index": 2, "epoch": 0, "heard": False, "granted": True}

    @pytest.mark.parametrize(
        "answer",
        [
            pytest.param({"seq": "x", "index": 2, "epoch": 0, "granted": True}, id="seq-text"),
            pytest.param({"seq": True, "index": 0, "epoch": 0, "granted": False}, id="seq-bool"),
            pytest.param({"seq": 0, "index": "0", "epoch": 0, "granted": False}, id="index-text"),
            pytest.param({"seq": 0, "index": 0, "epoch": "9", "granted": False}, id="epoch-text"),
        ],
    )
    def test_a_poll_answer_with_a_non_integer_field_counts_as_no_answer(self, answer):
        agent = build_ha_testbed(n_backups=2).group.agents[1]
        assert agent._wins(5, [answer]) is agent._wins(5, [{}]) is False
        # Nor does it object to the grant that completes the majority.
        assert agent._wins(5, [answer, self.GRANT]) is agent._wins(5, [{}, self.GRANT]) is True

    def test_a_refusal_with_a_text_epoch_does_not_raise_the_next_proposal(self):
        bed, agent, polls = TestElectionDecision().candidate()
        polls[0][2](TestElectionDecision.vote(0, granted=False, epoch="9"))
        polls[1][2](TestElectionDecision.vote(2, granted=False, epoch=4))
        assert agent.role == "backup" and agent._standing == 0 and agent.promised == 4

    @pytest.mark.parametrize("proposed", ["99", 99.0, True])
    def test_a_poll_proposing_a_non_integer_epoch_is_not_granted(self, proposed):
        backup = build_ha_testbed(n_backups=2).group.agents[1]
        backup.last_heard = -2.0 * backup.lease_s  # the lease ran out
        poll = {"proposed": proposed, "seq": 0, "index": 2, "candidate": "server-b2"}
        answer = backup._on_poll(poll, ("server-b2", 0))
        assert not answer["granted"] and backup.promised == backup._granted == 0
        # The same poll with an integer is granted: the text alone refused it.
        assert backup._on_poll({**poll, "proposed": 99}, ("server-b2", 0))["granted"]

    def test_a_crossed_poll_with_a_text_rank_is_not_yielded_to(self):
        bed, agent, polls = TestElectionDecision().candidate(index=2)
        better = {"proposed": 1, "seq": "0", "index": 1, "candidate": "server-b1"}
        assert not agent._on_poll(better, ("server-b1", 0))["granted"]
        assert agent._standing == agent.promised == 1  # its own poll stays open

    @pytest.mark.parametrize(
        "spoil",
        [
            pytest.param(lambda frame: frame.update(epoch=str(frame["epoch"])), id="epoch-text"),
            pytest.param(lambda frame: frame.update(epoch=True), id="epoch-bool"),
            pytest.param(lambda frame: frame.update(commit_seq="x"), id="commit-seq-text"),
        ],
    )
    def test_a_replicate_frame_with_a_non_integer_header_is_refused_whole(self, spoil):
        bed, urn = TestRecordInstall().group()
        primary, backup = bed.group.agents[0], bed.group.agents[1]
        frame = {"epoch": primary.epoch, "primary": primary.host.name, "commit_seq": backup.seq,
                 "records": []}
        spoil(frame)
        bed.sim.run(until=bed.sim.now + 1.0)
        kept = (held_state(backup.server), backup.seq, backup.epoch, backup.primary_name,
                backup.last_heard, backup._primary_seq, backup._needs_sync)
        answer = backup._on_replicate(frame, (primary.host.name, 0))
        assert answer["status"] == "error" and "ack_seq" not in answer
        assert (held_state(backup.server), backup.seq, backup.epoch, backup.primary_name,
                backup.last_heard, backup._primary_seq, backup._needs_sync) == kept

    @pytest.mark.parametrize("seq", ["next", True, 2.0], ids=["text", "bool", "float"])
    def test_a_record_with_a_non_integer_seq_is_refused_and_healed(self, seq):
        bed, urn = TestRecordInstall().group()
        primary, backup = bed.group.agents[0], bed.group.agents[1]
        before, at = held_state(backup.server), backup.seq
        write = {"urn": urn, "version": 3, "data": {"items": ["a", "z"]}}
        ack = backup._on_replicate(
            {"epoch": primary.epoch, "primary": primary.host.name, "commit_seq": at + 1,
             "records": [{"seq": str(at + 1) if seq == "next" else seq, "epoch": primary.epoch,
                          "write": write}]},
            (primary.host.name, 0),
        )
        assert ack["ack_seq"] == at and backup.seq == at
        assert held_state(backup.server) == before
        assert backup.records_refused == 1 and backup._needs_sync
        settle(bed)
        assert check_replicas_agree([agent.server for agent in bed.group.agents], bed.sim.now) == []

    @pytest.mark.parametrize(
        "reply",
        [
            pytest.param({"ack_seq": "99", "epoch": 1}, id="ack-text"),
            pytest.param({"ack_seq": 99, "epoch": "1"}, id="epoch-text"),
            pytest.param({"status": "stale-epoch", "epoch": "9", "primary": "server-b1"},
                         id="stale-epoch-text"),
        ],
    )
    def test_a_peer_reply_with_a_non_integer_field_changes_nothing(self, reply):
        bed, urn = TestRecordInstall().group()
        primary = bed.group.agents[0]
        peer = primary.peers[0]
        kept = (dict(peer), primary.role, primary.epoch, primary.base_seq, len(primary.log))
        primary._note_peer_reply(peer, reply, primary.epoch, bed.sim.now)
        assert (dict(peer), primary.role, primary.epoch, primary.base_seq, len(primary.log)) == kept
