"""Satellite coverage riding the replication PR.

Pins down the smaller contracts the HA work leaned on: server-side
lock-lease expiry (and its counter), the network scheduler's capped
jittered backoff, the client-side replica-set bookkeeping, deferred
transport replies, and the failover counter on the not-primary fence.
"""

from repro.ha import build_ha_testbed
from repro.ha.group import LOG_CAP, SHIP_BATCH, ReplicaSet
from repro.net.link import ETHERNET_10M
from repro.net.transport import AsyncReply
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
        assert metric.labels(authority="server").value == 1

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
        ``(service, [record seqs])``, with the log set by hand."""
        bed = build_ha_testbed(n_backups=1)
        agent = bed.group.primary_agent()
        agent.base_seq, agent.seq = base_seq, seq
        agent.log = [{"seq": n} for n in range(base_seq + 1, seq + 1)]
        (peer,) = agent.peers
        peer["acked_seq"] = acked
        sent = []

        def call(dst, service, body, on_reply, on_error, timeout=60.0, link=None):
            sent.append((service, [r["seq"] for r in body.get("records", [])]))

        agent.transport.call = call
        agent._ship_to(peer)
        scan = [r["seq"] for r in agent.log if r["seq"] >= acked + 1][:SHIP_BATCH]
        return sent, scan

    def test_an_untrimmed_log_ships_from_the_cursor(self):
        sent, scan = self.shipped(base_seq=0, seq=10, acked=3)
        assert sent == [("rover.ha.replicate", scan)] and scan == list(range(4, 11))

    def test_a_batch_stops_at_its_cap(self):
        sent, scan = self.shipped(base_seq=0, seq=200, acked=0)
        assert sent == [("rover.ha.replicate", scan)] and scan == list(range(1, SHIP_BATCH + 1))

    def test_a_trimmed_log_ships_by_offset_from_its_base(self):
        sent, scan = self.shipped(base_seq=5000, seq=5000 + LOG_CAP, acked=5900)
        assert sent == [("rover.ha.replicate", scan)]
        assert scan == list(range(5901, 5901 + SHIP_BATCH))

    def test_a_cursor_at_the_base_ships_the_oldest_record_held(self):
        sent, scan = self.shipped(base_seq=5000, seq=5010, acked=5000)
        assert sent == [("rover.ha.replicate", scan)] and scan[0] == 5001

    def test_a_cursor_below_the_base_is_nudged_to_resync(self):
        sent, scan = self.shipped(base_seq=5000, seq=5010, acked=4999)
        assert sent == [("rover.ha.resync", [])]

    def test_a_cursor_at_the_head_ships_nothing(self):
        sent, scan = self.shipped(base_seq=5000, seq=5010, acked=5010)
        assert sent == [] and scan == []
