"""repro.ha: replication, lease failover, epoch fencing, anti-entropy.

End-to-end over the replicated testbed: the primary synchronously
log-ships mutations and the client's acked operations survive a
primary kill exactly once; backups fence client requests; a
partitioned ex-primary is deposed by epoch on its first ship-back
after the heal; a crashed ex-primary rejoins through anti-entropy to
byte-identical state vectors; and the declarative ``PrimaryKill``
plan entry resolves its victim at fire time, so consecutive kills
take down consecutively promoted members.
"""

import os

import pytest

from repro.chaos import ChaosController, ChaosError, FaultPlan, PrimaryKill
from repro.ha import ReplicaSet, build_ha_testbed
from repro.net.link import IntervalTrace
from tests.conftest import make_note

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def make_bed(**kwargs):
    kwargs.setdefault("n_backups", 2)
    kwargs.setdefault("n_clients", 1)
    kwargs.setdefault("seed", CHAOS_SEED)
    return build_ha_testbed(**kwargs)


def seeded_note(bed):
    note = make_note()
    bed.put_object(note)
    return str(note.urn)


def agents(bed):
    return bed.group.agents


def converged(bed, include_crashed=False):
    primary = bed.group.primary_agent()
    members = [
        agent
        for agent in agents(bed)
        if include_crashed or not agent._crashed
    ]
    return all(
        agent.seq == primary.seq
        and not agent._needs_sync
        and not agent._syncing
        for agent in members
    )


class TestReplication:
    def test_happy_path_replicates_to_all_members(self):
        bed = make_bed()
        urn = seeded_note(bed)
        access = bed.clients[0].access
        session = access.create_session("alice")
        access.import_(urn, session=session).wait(bed.sim)
        access.invoke(urn, "set_text", "hello world", session=session)
        assert access.drain(timeout=120.0)
        bed.sim.run_until(lambda: converged(bed), timeout=60.0)
        for server, transport in bed.members:
            assert server.get_object(urn).data["text"] == "hello world"
        vectors = [server.state_vector() for server, _ in bed.members]
        assert vectors[0] == vectors[1] == vectors[2]

    def test_acked_write_reached_backup_quorum(self):
        # Quorum gating: by the instant the client's reply fires, at
        # least one backup must already hold the record (majority of 3
        # = primary + 1).
        bed = make_bed()
        urn = seeded_note(bed)
        access = bed.clients[0].access
        session = access.create_session("alice")
        access.import_(urn, session=session).wait(bed.sim)

        at_ack = {}

        def on_ack(_reply):
            at_ack["holders"] = sum(
                1
                for agent in agents(bed)
                if agent.role == "backup" and agent.seq >= 1
            )

        access.invoke(urn, "set_text", "v1", session=session)
        # The export promise is internal; sample at drain instead.
        assert access.drain(timeout=120.0)
        on_ack(None)
        assert at_ack["holders"] >= 1

    def test_backup_fences_client_requests(self):
        bed = make_bed()
        urn = seeded_note(bed)
        backup = agents(bed)[1]
        replies = []
        bed.clients[0].transport.call(
            backup.host,
            "rover.import",
            {"urn": urn},
            on_reply=replies.append,
            on_error=lambda err: replies.append(err),
        )
        bed.sim.run_until(lambda: bool(replies), timeout=30.0)
        reply = replies[0]
        assert reply["status"] == "not-primary"
        assert reply["primary"] == bed.group.agents[0].host.name
        assert reply["ha_member"] == backup.host.name

    def test_backup_whose_lease_ran_out_hints_at_nobody(self):
        """With a majority down no election can succeed; the survivor
        must not send every client that asks to the corpse, a full RPC
        timeout per round: what it tells a poll (``heard: False``) it
        tells a client."""
        bed = make_bed()
        urn = seeded_note(bed)
        primary, other, survivor = agents(bed)
        controller = ChaosController(bed.sim, obs=bed.obs)
        controller.crash_server(primary.server)
        controller.crash_server(other.server)
        bed.sim.run(until=bed.sim.now + survivor.lease_s + 3 * survivor.heartbeat_s)
        assert survivor.role == "backup" and survivor.primary_name == primary.host.name
        replies = []
        bed.clients[0].transport.call(
            survivor.host,
            "rover.import",
            {"urn": urn},
            on_reply=replies.append,
            on_error=replies.append,
        )
        bed.sim.run_until(lambda: bool(replies), timeout=30.0)
        assert replies[0]["status"] == "not-primary" and replies[0]["primary"] == ""
        polled = survivor._on_poll({"proposed": 99, "seq": 0, "index": 1}, (other.host.name, 0))
        assert polled["heard"] is False

    def test_replication_metrics_move(self):
        bed = make_bed()
        urn = seeded_note(bed)
        access = bed.clients[0].access
        session = access.create_session("alice")
        access.import_(urn, session=session).wait(bed.sim)
        access.invoke(urn, "set_text", "v1", session=session)
        assert access.drain(timeout=120.0)
        bed.sim.run_until(lambda: converged(bed), timeout=60.0)
        registry = bed.obs.registry
        shipped = registry.counter(
            "ha_records_shipped_total",
            "",
            labelnames=("authority", "host"),
        )
        applied = registry.counter(
            "ha_records_applied_total",
            "",
            labelnames=("authority", "host"),
        )
        total_shipped = sum(
            shipped.labels(authority=bed.authority, host=a.host.name).value
            for a in agents(bed)
        )
        total_applied = sum(
            applied.labels(authority=bed.authority, host=a.host.name).value
            for a in agents(bed)
        )
        assert total_shipped >= 2  # one record acked by two backups
        assert total_applied >= 2


class TestFailover:
    def drive_kill_mid_drain(self, n_ops=5, kill_after=2, seed=CHAOS_SEED):
        """Queue a burst, kill the primary once ``kill_after`` acked."""
        bed = make_bed(rpc_timeout_s=5.0, max_attempts=3, seed=seed)
        urn = seeded_note(bed)
        access = bed.clients[0].access
        session = access.create_session("alice")
        access.import_(urn, session=session).wait(bed.sim)
        controller = ChaosController(bed.sim, obs=bed.obs)

        acked = []
        for index in range(1, n_ops + 1):
            access.invoke_remote(
                urn, "set_text", [f"v{index}"], session=session
            ).then(lambda _r, i=index: acked.append(i))
        bed.sim.run_until(lambda: len(acked) >= kill_after, timeout=120.0)
        controller.crash_server(bed.group.primary_agent().server)
        assert access.drain(timeout=600.0)
        bed.sim.run_until(lambda: converged(bed), timeout=120.0)
        return bed, urn, acked, controller

    def test_primary_kill_mid_drain_acked_ops_survive(self):
        bed, urn, acked, _ = self.drive_kill_mid_drain()
        # Every queued op eventually acked, and the last acked write is
        # the durable one on the *current* primary.
        assert sorted(acked)[-1] == 5
        assert bed.server.get_object(urn).data["text"] == "v5"
        # Failover promoted exactly one live primary on one epoch.
        live = [a for a in agents(bed) if not a._crashed]
        assert [a.role for a in live].count("primary") == 1
        assert len({a.epoch for a in live}) == 1
        assert bed.group.primary_agent().epoch >= 1

    @pytest.mark.parametrize("kill_after", (1, 2, 3))
    @pytest.mark.parametrize("n_ops", (5, 8, 12))
    @pytest.mark.parametrize("seed", range(6))
    def test_acks_keep_issue_order_across_the_kill(self, seed, n_ops, kill_after):
        """One client's burst is acknowledged in the order it was issued
        whenever the primary dies inside it: what was in flight to the
        corpse and what was still queued reach the next member in
        ``(priority, seq)`` order, as they would have reached the first."""
        bed, urn, acked, _ = self.drive_kill_mid_drain(n_ops, kill_after, seed)
        assert acked == list(range(1, n_ops + 1))
        assert bed.server.get_object(urn).data["text"] == f"v{n_ops}"

    def test_no_double_apply_across_failover(self):
        # Append workload makes duplicates visible in the item list.
        from repro.check.scenarios import make_box

        bed = make_bed(rpc_timeout_s=5.0, max_attempts=3)
        box = make_box(bed.authority)
        bed.put_object(box)
        urn = str(box.urn)
        access = bed.clients[0].access
        session = access.create_session("alice")
        access.import_(urn, session=session).wait(bed.sim)
        controller = ChaosController(bed.sim, obs=bed.obs)

        acked = []
        for index in range(5):
            access.invoke_remote(urn, "add", [f"t{index}"], session=session).then(
                lambda _r, i=index: acked.append(i)
            )
        bed.sim.run_until(lambda: len(acked) >= 2, timeout=120.0)
        controller.crash_server(bed.group.primary_agent().server)
        assert access.drain(timeout=600.0)
        bed.sim.run_until(lambda: converged(bed), timeout=120.0)
        items = bed.server.get_object(urn).data["items"]
        assert sorted(items) == [f"t{i}" for i in range(5)]
        assert len(items) == len(set(items))

    def test_a_request_resubmitted_by_the_failover_wave_keeps_its_session(self):
        """Read-your-writes is for exactly the requests that crossed a
        failover: the request names its session, so the reply to the
        attempt that found the new primary records the write like the
        calm run does."""
        bed = make_bed(rpc_timeout_s=5.0, max_attempts=3)
        urn = seeded_note(bed)
        access = bed.clients[0].access
        session = access.create_session("alice")
        ChaosController(bed.sim, obs=bed.obs).schedule(
            FaultPlan(seed=CHAOS_SEED, primary_kills=(PrimaryKill(at=10.0, down_for=1e6),)),
            bed,
        )
        bed.sim.run_until(lambda: bed.sim.now >= 11.0, timeout=60.0)
        promise = access.invoke_remote(urn, "set_text", ["after the kill"], session=session)
        assert access.drain(timeout=600.0)
        assert promise.result() == "after the kill"
        # It did cross the failover: the corpse was asked first, and the
        # same message went on to the member that answered.
        assert bed.clients[0].scheduler.retransmissions >= 1
        assert access.servers[bed.authority].rotations >= 1
        assert session.writes() == {urn: bed.server.store.version(urn)}
        # ...and the guarantee it buys: a stale copy is not acceptable.
        assert not session.acceptable(urn, bed.server.store.version(urn) - 1)

    def test_client_rotates_to_promoted_backup(self):
        bed, _urn, _acked, _ = self.drive_kill_mid_drain()
        replica_set = bed.clients[0].access.servers[bed.authority]
        assert replica_set.current_host.name == bed.group.primary_agent().host.name
        assert replica_set.epoch_seen >= 1
        failovers = bed.obs.registry.counter(
            "qrpc_failovers_total", "", labelnames=("host",)
        ).labels(host=bed.clients[0].host.name)
        assert failovers.value >= 1


class TestUnavailabilityBound:
    """The benchmark's ``ha_failover`` shape as a gate: service is back
    within one lease and one heartbeat of the primary's death."""

    N_CLIENTS, PERIOD_S, KILL_AT, HORIZON_S = 8, 0.5, 40.0, 70.0

    def test_longest_ack_gap_across_the_kill_is_within_lease_plus_heartbeat(self):
        from repro.sim import make_rng

        bed = make_bed(n_clients=self.N_CLIENTS)
        urn = seeded_note(bed)
        lease_s, heartbeat_s = agents(bed)[0].lease_s, agents(bed)[0].heartbeat_s
        ChaosController(bed.sim, obs=bed.obs, seed=CHAOS_SEED).schedule(
            FaultPlan(seed=CHAOS_SEED, primary_kills=(PrimaryKill(at=self.KILL_AT, down_for=1e6),)),
            bed,
        )
        rng = make_rng(CHAOS_SEED, "unavailability-bound")
        acks, submitted = [], 0
        for stack in bed.clients:  # 2 ops/s each on a fixed schedule, through the outage
            due = rng.random() * self.PERIOD_S
            while due < self.HORIZON_S:
                bed.sim.schedule_at(
                    due,
                    lambda access=stack.access, text=f"{stack.host.name}@{due:.3f}": (
                        access.invoke_remote(urn, "set_text", [text]).then(
                            lambda _result: acks.append(bed.sim.now)
                        )
                    ),
                )
                submitted += 1
                due += self.PERIOD_S
        assert bed.sim.run_until(
            lambda: bed.group.primary_agent().epoch > 0, timeout=self.HORIZON_S
        )
        promoted_at = bed.sim.now
        bed.sim.run(until=self.HORIZON_S)
        assert all(stack.access.drain(timeout=600.0) for stack in bed.clients)
        assert len(acks) == submitted

        acks.sort()
        gap, resumed_at = max(
            (after - before, after)
            for before, after in zip(acks, acks[1:])
            if before <= promoted_at and after >= self.KILL_AT
        )
        lease_out = self.KILL_AT + lease_s
        print(
            f"\nseed {CHAOS_SEED}: kill {self.KILL_AT:.2f} -> lease out {lease_out:.2f} "
            f"(+{lease_s:.2f}) -> promotion {promoted_at:.2f} (+{promoted_at - lease_out:.2f}) "
            f"-> first ack {resumed_at:.2f} (+{resumed_at - promoted_at:.2f}): "
            f"longest ack gap {gap:.2f} s, bound {lease_s + heartbeat_s + 0.1:.1f}"
        )
        assert gap <= lease_s + heartbeat_s + 0.1


class TestEpochFencing:
    def test_partitioned_primary_deposed_on_heal(self):
        # Members 0<->1 and 0<->2 go down at t=30 and heal at t=90;
        # clients still reach member 0 the whole time (split brain).
        mesh = {
            (0, 1): IntervalTrace([(0.0, 30.0), (90.0, 1e9)]),
            (0, 2): IntervalTrace([(0.0, 30.0), (90.0, 1e9)]),
        }
        bed = make_bed(mesh_policies=mesh, rpc_timeout_s=5.0, max_attempts=3)
        urn = seeded_note(bed)
        access = bed.clients[0].access
        session = access.create_session("alice")
        access.import_(urn, session=session).wait(bed.sim)
        access.invoke(urn, "set_text", "v1", session=session)
        assert access.drain(timeout=25.0)

        bed.sim.run_until(lambda: bed.sim.now >= 31.0, timeout=60.0)
        old_primary = agents(bed)[0]
        assert old_primary.role == "primary"
        # This write first lands on the partitioned primary, which can
        # never reach quorum; the client must fail over to the newly
        # elected member to get it committed.
        access.invoke(urn, "set_text", "v2", session=session)
        assert access.drain(timeout=300.0)
        assert bed.group.primary_agent() is not old_primary
        assert bed.group.primary_agent().epoch > 0

        # Heal: the deposed primary's first ship-back or heartbeat is
        # rejected by epoch, it demotes, and anti-entropy reconciles.
        bed.sim.run_until(lambda: bed.sim.now >= 91.0, timeout=120.0)
        assert bed.sim.run_until(
            lambda: old_primary.role == "backup" and converged(bed),
            timeout=200.0,
        )
        vectors = [server.state_vector() for server, _ in bed.members]
        assert vectors[0] == vectors[1] == vectors[2]
        stale = bed.obs.registry.counter(
            "ha_stale_epoch_rejected_total",
            "",
            labelnames=("authority", "host"),
        )
        total_stale = sum(
            stale.labels(authority=bed.authority, host=a.host.name).value
            for a in agents(bed)
        )
        assert total_stale >= 1

    def test_stale_replicate_frame_rejected(self):
        bed = make_bed()
        first, second = agents(bed)[0], agents(bed)[1]
        # Simulate a frame from a deposed epoch arriving at a member
        # that has moved on.
        second.epoch = 3
        second.primary_name = second.host.name
        reply = second._on_replicate(
            {
                "epoch": 0,
                "primary": first.host.name,
                "records": [],
                "commit_seq": 0,
            },
            (first.host.name, 530),
        )
        assert reply["status"] == "stale-epoch"
        assert reply["epoch"] == 3


class TestAntiEntropy:
    def test_crashed_ex_primary_rejoins_and_converges(self):
        bed = make_bed(rpc_timeout_s=5.0, max_attempts=3)
        urn = seeded_note(bed)
        access = bed.clients[0].access
        session = access.create_session("alice")
        access.import_(urn, session=session).wait(bed.sim)
        access.invoke(urn, "set_text", "v1", session=session)
        assert access.drain(timeout=120.0)

        controller = ChaosController(bed.sim, obs=bed.obs)
        old_primary_server = bed.members[0][0]
        controller.crash_server(old_primary_server)
        access.invoke(urn, "set_text", "v2", session=session)
        assert access.drain(timeout=600.0)
        access.invoke(urn, "set_text", "v3", session=session)
        assert access.drain(timeout=300.0)

        controller.restart_server(old_primary_server)
        assert bed.sim.run_until(
            lambda: converged(bed, include_crashed=True), timeout=200.0
        )
        vectors = [server.state_vector() for server, _ in bed.members]
        assert vectors[0] == vectors[1] == vectors[2]
        assert old_primary_server.get_object(urn).data["text"] == "v3"
        rejoined = old_primary_server.ha_agent
        assert rejoined.role == "backup"
        assert rejoined.epoch == bed.group.primary_agent().epoch
        failovers = bed.obs.registry.counter(
            "ha_failovers_total", "", labelnames=("authority",)
        ).labels(authority=bed.authority)
        assert failovers.value == 1

    def test_writes_after_rejoin_replicate_to_all_three(self):
        bed = make_bed(rpc_timeout_s=5.0, max_attempts=3)
        urn = seeded_note(bed)
        access = bed.clients[0].access
        session = access.create_session("alice")
        access.import_(urn, session=session).wait(bed.sim)
        controller = ChaosController(bed.sim, obs=bed.obs)
        controller.crash_server(bed.members[0][0])
        access.invoke(urn, "set_text", "after-kill", session=session)
        assert access.drain(timeout=600.0)
        controller.restart_server(bed.members[0][0])
        bed.sim.run_until(
            lambda: converged(bed, include_crashed=True), timeout=200.0
        )
        access.invoke(urn, "set_text", "after-rejoin", session=session)
        assert access.drain(timeout=300.0)
        assert bed.sim.run_until(
            lambda: converged(bed, include_crashed=True), timeout=120.0
        )
        for server, _transport in bed.members:
            assert server.get_object(urn).data["text"] == "after-rejoin"

    def test_a_sync_call_lost_in_flight_is_retried_on_a_later_tick(self):
        """The rejoining member's anti-entropy request dies on the mesh
        (the link was up when it left): the failed call must let go of
        ``_syncing``, or no later tick would ever ask again."""
        from repro.chaos.faults import FaultyLink, LinkFaultSpec
        from repro.sim import make_rng

        bed = make_bed(rpc_timeout_s=5.0, max_attempts=3)
        urn = seeded_note(bed)
        access = bed.clients[0].access
        access.import_(urn).wait(bed.sim)
        controller = ChaosController(bed.sim, obs=bed.obs)
        old_primary = bed.members[0][0]
        controller.crash_server(old_primary)
        access.invoke(urn, "set_text", "after-kill")
        assert access.drain(timeout=600.0)
        promoted = bed.group.primary_agent()
        rejoining = old_primary.ha_agent
        mesh = rejoining.host.best_link_to(promoted.host)

        controller.restart_server(old_primary)
        # A heartbeat tells it whom to sync from; its next tick asks.
        assert bed.sim.run_until(
            lambda: rejoining.primary_name == promoted.host.name, timeout=30.0
        )
        assert rejoining._needs_sync and not rejoining._syncing
        injector = FaultyLink(mesh, LinkFaultSpec(drop=1.0), make_rng(CHAOS_SEED, "mesh")).install()
        assert bed.sim.run_until(lambda: rejoining._syncing, timeout=30.0)
        assert bed.sim.run_until(lambda: not rejoining._syncing, timeout=30.0)
        assert injector.injected["drop"] >= 1
        assert rejoining._needs_sync and rejoining.seq < promoted.seq  # nothing was adopted

        injector.uninstall()
        assert bed.sim.run_until(
            lambda: converged(bed, include_crashed=True), timeout=200.0
        )
        assert old_primary.get_object(urn).data["text"] == "after-kill"
        assert rejoining.role == "backup" and rejoining.epoch == promoted.epoch


class TestFaultPlanIntegration:
    def test_primary_kill_resolves_victim_at_fire_time(self):
        bed = make_bed(rpc_timeout_s=5.0, max_attempts=3)
        urn = seeded_note(bed)
        access = bed.clients[0].access
        session = access.create_session("alice")
        access.import_(urn, session=session).wait(bed.sim)
        assert access.drain(timeout=60.0)
        first_primary = bed.group.primary_agent().host.name

        controller = ChaosController(bed.sim, obs=bed.obs)
        plan = FaultPlan(
            seed=CHAOS_SEED,
            primary_kills=(
                PrimaryKill(at=10.0, down_for=100.0),
                PrimaryKill(at=60.0, down_for=100.0),
            ),
        )
        controller.schedule(plan, bed)
        access.invoke(urn, "set_text", "w1", session=session)
        bed.sim.run_until(lambda: bed.sim.now >= 61.0, timeout=300.0)
        access.invoke(urn, "set_text", "w2", session=session)
        assert access.drain(timeout=600.0)
        crashed = [
            detail for _t, kind, detail in controller.timeline
            if kind == "server_crash"
        ]
        # Second kill took the *promoted* member, not the original.
        assert len(crashed) == 2
        assert crashed[0] == first_primary
        assert crashed[1] != first_primary
        assert bed.server.get_object(urn).data["text"] == "w2"

    def test_primary_kill_without_group_rejected(self):
        from repro.testbed import build_testbed

        bed = build_testbed()
        controller = ChaosController(bed.sim)
        plan = FaultPlan(primary_kills=(PrimaryKill(at=1.0),))
        with pytest.raises(ChaosError):
            controller.schedule(plan, bed)

    def test_primary_kill_validation(self):
        with pytest.raises(ChaosError):
            PrimaryKill(at=-1.0)
        with pytest.raises(ChaosError):
            PrimaryKill(at=0.0, down_for=0.0)


class TestCheckerRegressions:
    def test_seeded_members_do_not_share_state(self):
        # Found by the ha-failover checker suite: put_object used to
        # install the same RDO wire dict on every member, so one
        # member's apply mutated all three stores and every replicated
        # append counted twice.
        from repro.check.scenarios import make_box

        bed = make_bed()
        box = make_box(bed.authority)
        bed.put_object(box)
        urn = str(box.urn)
        first, second = bed.members[0][0], bed.members[1][0]
        first.get_object(urn)  # materialization must not be required
        value, _version = first.store.get(urn)
        value["data"]["items"].append("locally-mutated")
        assert second.store.get(urn)[0]["data"]["items"] == []

    def test_checker_default_trace_is_clean(self):
        from repro.check.scenarios import get_scenario

        result = get_scenario("ha-failover").run()
        assert result.violations == []

    def test_features_suite_is_clean_at_every_kill_time(self):
        """``ha-failover-features`` without frame faults: the folded,
        delta-carrying export survives the primary dying before,
        during and after the reconnect drain (`make ha` explores the
        faults on top)."""
        from repro.check.scenarios import Chooser, get_scenario

        scenario = get_scenario("ha-failover-features")
        default = scenario.run()
        assert default.violations == []
        (kill_point,) = [
            index for index, decision in enumerate(default.trace)
            if decision.meta.get("point") == "primary-kill-at"
        ]
        for kill in range(1, len(scenario.kill_offsets)):
            for stays_down in (0, 1):
                result = scenario.run(Chooser({kill_point: kill, kill_point + 1: stays_down}))
                assert result.violations == [], (kill, stays_down)


SHIPPED_COUNT = (
    "def main():\n"
    "    return len(objects('urn:rover:server/notes/'))\n"
)


class TestEveryClientServiceThroughThePrimary:
    """Lock, unlock, list, ship and subscribe reach a replicated
    authority through the same fence / execute / replicate funnel as
    import, export and invoke — on the first primary and on the one a
    failover promotes."""

    def drill(self, bed, tag):
        alice, bob = (stack.access for stack in bed.clients)
        urn = f"urn:rover:{bed.authority}/notes/n1"
        session = alice.create_session(f"alice/{tag}")
        rival = bob.create_session(f"bob/{tag}")

        def settle():
            assert alice.drain(timeout=600.0) and bob.drain(timeout=600.0)

        watching = bob.subscribe_invalidations(bed.authority, f"urn:rover:{bed.authority}/")
        bob.import_(urn, max_age_s=0.0)
        settle()
        assert watching.result() is True
        assert bob.cache.peek(urn) is not None

        checkout = alice.acquire_lock(urn, session, lease_s=120.0)
        settle()
        assert checkout.result()["status"] == "ok"
        denied = bob.acquire_lock(urn, rival)
        settle()
        assert denied.failed and denied.error == "locked"

        alice.import_(urn, session=session, max_age_s=0.0)
        settle()
        alice.invoke(urn, "set_text", f"edited {tag}", session=session)  # exports under the lock
        settle()
        assert bed.server.get_object(urn).data == {"text": f"edited {tag}"}
        # The primary pushed the invalidation: bob's stale copy is gone.
        assert bob.cache.peek(urn) is None

        checkin = alice.release_lock(urn, session)
        listing = alice.list_objects(bed.authority, f"urn:rover:{bed.authority}/notes/")
        counted = alice.ship(bed.authority, SHIPPED_COUNT)
        settle()
        assert checkin.result()["status"] == "ok"
        assert listing.result() == [urn]
        assert counted.result() == 1
        retaken = bob.acquire_lock(urn, rival, lease_s=1.0)  # free again (and soon expired)
        settle()
        assert retaken.result()["status"] == "ok"

    def test_before_and_after_a_primary_kill(self):
        bed = make_bed(n_clients=2, rpc_timeout_s=5.0, max_attempts=3)
        seeded_note(bed)
        first_primary = bed.group.primary_agent()
        self.drill(bed, "before")
        bed.sim.run_until(lambda: converged(bed), timeout=60.0)

        ChaosController(bed.sim, obs=bed.obs).crash_server(first_primary.server)
        bed.sim.run_until(
            lambda: bed.group.primary_agent() is not first_primary, timeout=120.0
        )
        promoted = bed.group.primary_agent()
        assert promoted is not first_primary and promoted.role == "primary"
        self.drill(bed, "after")
        # Locks and the edit are replicated state: the surviving backup
        # re-executed every record the promoted primary acknowledged.
        bed.sim.run_until(lambda: converged(bed), timeout=120.0)
        backup = next(a for a in agents(bed) if not a._crashed and a is not promoted)
        assert backup.server.get_object("urn:rover:server/notes/n1").data == {"text": "edited after"}


class TestReplicateFrameLostInFlight:
    def test_client_ack_stays_gated_until_the_reship_reaches_quorum(self):
        """A replicate frame that dies on the member mesh (not a link
        that was down at send time) fails the ship *later*; the gated
        client reply must wait for the re-ship, not leak out early."""
        from repro.chaos.faults import FaultyLink, LinkFaultSpec
        from repro.sim import make_rng

        bed = make_bed(n_backups=1)  # two members: the one backup *is* the quorum
        urn = seeded_note(bed)
        primary = bed.group.primary_agent()
        (backup,) = [a for a in agents(bed) if a is not primary]
        (peer,) = primary.peers
        mesh = primary.host.best_link_to(backup.host)
        injector = FaultyLink(mesh, LinkFaultSpec(drop=1.0), make_rng(CHAOS_SEED, "mesh")).install()

        access = bed.clients[0].access
        promise = access.invoke_remote(urn, "set_text", ["gated"])
        bed.sim.run_until(lambda: peer["attempts"] >= 1, timeout=30.0)
        assert injector.injected["drop"] >= 1
        # Executed at the primary, held by nobody else, told to nobody.
        assert primary.seq == 1 and backup.seq == 0
        assert primary.server.get_object(urn).data == {"text": "gated"}
        assert not promise.is_done and len(primary._waiters) == 1

        injector.uninstall()
        assert access.drain(timeout=120.0)
        assert promise.result() == "gated"
        assert backup.seq == 1 and peer["acked_seq"] == 1 and primary._waiters == []
        assert backup.server.get_object(urn).data == {"text": "gated"}
        assert primary.server.invokes_served == 1  # the re-ship re-sent the record, not the request


class TestFeaturesAcrossAFailover:
    def test_compacted_delta_group_committed_queue_is_applied_once_at_the_new_primary(self):
        """ROADMAP seam (b): overwriting exports queued offline are
        folded by compaction under a group-commit window, the primary
        dies before the client reconnects, and the one surviving export
        — a delta against a base the new primary also holds — is retried
        in place at the promoted member and commits exactly once."""
        from repro.storage.stable_log import GroupCommitPolicy

        bed = make_bed(
            rpc_timeout_s=5.0,
            max_attempts=3,
            policies=[IntervalTrace([(0.0, 10.0), (60.0, 1e9)])],
            compaction=True,
            delta_shipping=True,
            group_commit=GroupCommitPolicy(),
        )
        from repro.check.scenarios import make_note as padded_note

        note = padded_note(bed.authority, "notes/n1", "hello", pad=512)  # a delta pays
        bed.put_object(note)
        urn = str(note.urn)
        access = bed.clients[0].access
        access.import_(urn).wait(bed.sim)
        first_primary = bed.group.primary_agent()

        bed.sim.run(until=20.0)  # offline now
        for text in ("one", "two", "three"):
            access.invoke(urn, "set_text", text)
        bed.sim.run(until=30.0)
        assert access.log.ops_compacted == 2 and access.pending_count() == 1
        ChaosController(bed.sim, obs=bed.obs).crash_server(first_primary.server)

        assert access.drain(timeout=600.0)
        bed.sim.run_until(lambda: converged(bed), timeout=120.0)
        promoted = bed.group.primary_agent()
        assert promoted is not first_primary
        assert sum(a.server.exports_committed for a in agents(bed) if not a._crashed) == 2
        assert promoted.server.exports_committed == 1
        for agent in agents(bed):
            if not agent._crashed:
                copy = agent.server.get_object(urn)
                assert copy.version == 2 and copy.data["text"] == "three"
        assert access.cache.tentative_urns() == []
        saved = bed.obs.registry.counter(
            "ship_delta_bytes_saved_total", "", labelnames=("authority", "direction")
        ).labels(authority=bed.authority, direction="up")
        assert saved.value > 400  # the pad never crossed the wire again
        assert bed.clients[0].scheduler.retransmissions >= 1  # the corpse was tried first
