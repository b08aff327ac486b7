"""ha_failover: a replicated home server loses its primary mid-run.

Open loop in virtual time: every client submits on a fixed schedule
(2 ops/s each) that keeps sending through the outage, and latency is
counted from each op's due time, so requests due while there is no
primary are counted rather than skipped.  One ``PrimaryKill`` through
the ``ChaosController``; after the horizon the group quiesces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos import ChaosController, FaultPlan, PrimaryKill
from repro.ha import build_ha_testbed
from repro.ha.testbed import HATestbed

from perfbench.inputs import HAInputs
from perfbench.workloads import Outcome, Parts, counter_object, counter_urn, registry_total

#: Virtual seconds after the horizon for retries, rejoin and anti-entropy.
_QUIESCE_S = 120.0


@dataclass
class State:
    inputs: HAInputs
    bed: HATestbed
    submitted: int
    #: Per client: ``bump`` results acknowledged, in ack order.
    bump_results: list
    bumps_scripted: list
    ack_times: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    lag_max: float = 0.0
    events: int = 0


def _link_bytes(bed: HATestbed) -> int:
    return sum(link.bytes_carried for link in bed.network.links)


def setup(inputs: HAInputs, obs_trace: bool = False) -> State:
    n_clients = len(inputs.schedules)
    bed = build_ha_testbed(
        n_backups=2, n_clients=n_clients, seed=inputs.net_seed, trace=obs_trace
    )
    for client in range(n_clients):
        bed.put_object(counter_object(bed.authority, client), verify=(client == 0))
    ChaosController(bed.sim, obs=bed.obs, seed=inputs.net_seed).schedule(
        FaultPlan(
            seed=inputs.net_seed,
            primary_kills=(PrimaryKill(at=inputs.kill_at, down_for=inputs.down_for),),
        ),
        bed,
    )
    state = State(
        inputs=inputs,
        bed=bed,
        submitted=0,
        bump_results=[[] for _ in range(n_clients)],
        bumps_scripted=[0] * n_clients,
    )
    sim = bed.sim
    for client, schedule in enumerate(inputs.schedules):
        access = bed.clients[client].access
        urn = counter_urn(bed.authority, client)
        bumps = state.bump_results[client]
        for due, payload in schedule:

            def acked(result, due=due, bumps=bumps if payload is None else None):
                now = sim.now
                state.ack_times.append(now)
                state.latencies_s.append(now - due)
                if bumps is not None:
                    bumps.append(result)

            if payload is None:
                method, args = "bump", []
                state.bumps_scripted[client] += 1
            else:
                method, args = "echo", [payload]
            sim.schedule_at(
                due,
                lambda a=access, u=urn, m=method, g=args, cb=acked: (
                    a.invoke_remote(u, m, g).then(cb)
                ),
            )
            state.submitted += 1
    return state


def run(state: State) -> None:
    sim = state.bed.sim
    registries = [state.bed.obs.registry]
    end = state.inputs.horizon_s + _QUIESCE_S
    # One-second chunks: heartbeats never let the queue drain, and the
    # lag gauge is a point-in-time view that has to be sampled.
    while sim.now < end:
        state.events += sim.run(until=sim.now + 1.0)
        lag = registry_total(registries, "ha_replication_lag")
        if lag > state.lag_max:
            state.lag_max = lag


def outcome(state: State) -> Outcome:
    inputs = state.inputs
    kill_at = inputs.kill_at
    acks = sorted(state.ack_times)
    # Longest gap between consecutive acks that spans the kill.
    unavailable = 0.0
    for before, after in zip(acks, acks[1:]):
        if before <= kill_at + inputs.down_for and after >= kill_at:
            unavailable = max(unavailable, after - before)
    wire = _link_bytes(state.bed)
    return Outcome(
        attempted=state.submitted,
        acked=len(acks),
        latencies_ms=[s * 1000.0 for s in state.latencies_s],
        timed_wire_bytes=wire,
        events=state.events,
        clock_elapsed_s=state.bed.sim.now,
        extra={"unavailable_sim_s": unavailable, "replication_lag_max": state.lag_max},
    )


def parts(state: State) -> Parts:
    bed = state.bed
    return Parts(
        sims=[bed.sim],
        accesses=[c.access for c in bed.clients],
        schedulers=[c.scheduler for c in bed.clients],
        transports=[t for _, t in bed.members] + [c.transport for c in bed.clients],
        links=list(bed.network.links),
        servers=[s for s, _ in bed.members],
        groups=[bed.group],
        registries=[bed.obs.registry],
    )


def close(state: State) -> None:
    pass
