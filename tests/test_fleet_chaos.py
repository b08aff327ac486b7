"""Fleet telemetry under faults: drops, reorders, and a client crash.

The satellite acceptance scenario: a small mixed-link fleet runs
through a lossy window (drops + reorders + duplicates) while one slow
client crashes mid-disconnection with reports still queued.  Recovery
replays the stable log — so the aggregator sees the same reports again
— and the reporter re-attaches to the rebuilt access manager.  The
aggregator must never double-count a replayed report, must heal every
sequence gap, and the final per-client totals must equal each client's
ground truth exactly.
"""

from repro.chaos.controller import ChaosController
from repro.chaos.faults import LinkFaultSpec
from repro.chaos.plan import FaultPlan, LinkFaultWindow, ServerOutage
from repro.obs.fleet.sim import FleetScenario, build_fleet

#: The 2.4K CSLIP client whose link cycles through disconnection
#: (index 3 of the LINK_MIX rotation) — crashed mid-down-period.
CRASH_INDEX = 3
CRASH_AT = 150.0


def run_chaotic_fleet(crash=True, drop=0.10, reorder=0.10, duplicate=0.05):
    scenario = FleetScenario(
        n_clients=8,
        seed=3,
        horizon_s=360.0,
        report_interval_s=30.0,
        invokes_per_client=6,
        payload_bytes=2048,
        silent_after_s=240.0,
        drain_s=1500.0,
    )
    result = build_fleet(scenario)
    bed, reporters = result.bed, result.reporters

    controller = ChaosController(bed.sim, obs=bed.obs, seed=scenario.seed)
    controller.schedule(
        FaultPlan(
            seed=scenario.seed,
            server_outages=(ServerOutage(at=200.0, down_for=30.0),),
            link_windows=(
                LinkFaultWindow(
                    spec=LinkFaultSpec(
                        drop=drop, reorder=reorder, duplicate=duplicate
                    ),
                    start=60.0,
                    end=300.0,
                ),
            ),
        ),
        bed,
    )

    if crash:
        def crash_and_reattach():
            stack = bed.clients[CRASH_INDEX]
            stack.crash_and_recover()
            # The reporter adopts the rebuilt access manager; queued
            # reports are replayed from the stable log by recovery.
            reporters[CRASH_INDEX].attach(stack.access)

        bed.sim.schedule_at(CRASH_AT, crash_and_reattach)

    def finale():
        # Ground truth and final flush in one simulated instant.
        for index, reporter in enumerate(reporters):
            reporter.stop()
            result.ground_truth[bed.clients[index].host.name] = (
                reporter.ground_truth()
            )
            reporter.flush()

    bed.sim.schedule_at(scenario.horizon_s, finale)
    deadline = scenario.horizon_s + scenario.drain_s
    bed.sim.run(until=scenario.horizon_s + 1e-6)
    while bed.sim.now < deadline:
        if all(not r._unacked for r in reporters):
            break
        bed.sim.run(until=min(deadline, bed.sim.now + 30.0))
    bed.sim.run(until=bed.sim.now + 5.0)
    return scenario, result


class TestFleetChaos:
    def test_crash_replay_never_double_counts(self):
        scenario, result = run_chaotic_fleet()
        bed, aggregator = result.bed, result.aggregator

        # Every report eventually landed.
        for reporter in result.reporters:
            assert not reporter._unacked

        mismatched = []
        for stack in bed.clients:
            client = stack.host.name
            if aggregator.client_totals(client) != result.ground_truth[client]:
                mismatched.append(client)
        assert mismatched == [], (
            f"totals diverged from ground truth for {mismatched}"
        )

        summary = aggregator.summary()
        # Gapped windows recovered: nothing left missing anywhere.
        assert summary["open_gaps"] == 0
        assert summary["deferred_waiting"] == 0
        assert summary["clients"] == scenario.n_clients

        # The fault window + crash replay really exercised the
        # idempotency path: duplicates arrived and were suppressed
        # without touching the totals (checked exact above).
        assert summary["duplicates"] > 0

        # The slow clients' backlogs left as coalesced frames, so the
        # drops, replays and the crash hit whole frames of reports.
        assert sum(stack.scheduler.batches_sent for stack in bed.clients) > 0

        # The crashed client reported across the crash.
        crashed = bed.clients[CRASH_INDEX].host.name
        assert aggregator.clients[crashed].reports_applied > 0
        assert aggregator.clients[crashed].missing() == 0

    def test_gap_events_open_and_heal(self):
        __, result = run_chaotic_fleet()
        aggregator = result.aggregator
        registry = aggregator.obs.registry
        opened = registry.get("fleet_gap_opened_total").value
        healed = registry.get("fleet_gap_healed_total").value
        # Reordering/loss opened at least one gap; all of them healed.
        assert opened > 0
        assert healed > 0
        kinds = {e.kind for e in aggregator.events}
        assert "gap" in kinds and "gap_healed" in kinds

    def test_health_survives_the_storm(self):
        scenario, result = run_chaotic_fleet()
        aggregator = result.aggregator
        health = aggregator.evaluate_health(now=scenario.horizon_s)
        assert set(health) == {
            stack.host.name for stack in result.bed.clients
        }
        # Nobody is silent at the horizon: every client reported within
        # the silence threshold even with the faults.
        assert not any(h.silent for h in health.values())
