"""fleet_drain: a mixed-link fleet reconnects in waves and drains.

Open loop in virtual time: every op is scheduled at a fixed virtual
instant while its client is disconnected; links come up in golden-ratio
waves and every queued QRPC drains to the home server.  The shape is
``repro.speed.scenario``'s (E16), rebuilt here from public constructors
so each op's latency can be taken from its own link-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.link import IntervalTrace
from repro.storage.stable_log import GroupCommitPolicy
from repro.testbed import MultiClientTestbed, build_multi_client_testbed

from perfbench.inputs import FleetInputs
from perfbench.workloads import LINKS_BY_NAME, Outcome, Parts, counter_object, counter_urn

#: Virtual-time budget for the drain after the last wave.
_DRAIN_BUDGET_S = 14_400.0


@dataclass
class State:
    inputs: FleetInputs
    bed: MultiClientTestbed
    submitted: int
    #: Mutating ops each client's script holds (what its counter must read).
    bumps: list
    setup_wire_bytes: int
    latencies_s: list = field(default_factory=list)
    results: list = field(default_factory=list)
    last_ack_at: float = 0.0
    events: int = 0


def _link_bytes(bed: MultiClientTestbed) -> int:
    return sum(link.bytes_carried for link in bed.network.links)


def setup(inputs: FleetInputs, obs_trace: bool = False) -> State:
    profiles = inputs.profiles
    bed = build_multi_client_testbed(
        len(profiles),
        link_specs=[LINKS_BY_NAME[name] for name in inputs.links],
        policies=[
            IntervalTrace([(inputs.reconnect_at + p.start_offset_s, 1e12)])
            for p in profiles
        ],
        seed=inputs.net_seed,
        # Private registries: thousands of clients sharing one would
        # trip the label-cardinality cap.
        per_client_obs=True,
        group_commit=GroupCommitPolicy(),
        trace=obs_trace,
    )
    for profile in profiles:
        bed.server.put_object(
            counter_object(bed.authority, profile.client_id),
            # Verify the shared source once.
            verify=(profile.client_id == 0),
        )
    state = State(
        inputs=inputs, bed=bed, submitted=0, bumps=[0] * len(profiles), setup_wire_bytes=0
    )
    sim = bed.sim
    latencies = state.latencies_s
    results = state.results

    for profile in profiles:
        access = bed.clients[profile.client_id].access
        urn = counter_urn(bed.authority, profile.client_id)
        link_up_at = inputs.reconnect_at + profile.start_offset_s

        def acked(result, up=link_up_at):
            # Submitted while down, so max(submit, link-up) is link-up.
            now = sim.now
            latencies.append(now - up)
            results.append(result)
            state.last_ack_at = now

        for step in range(profile.n_ops):
            if step % 3 == 0:
                method, args = "bump", []
                state.bumps[profile.client_id] += 1
            else:
                method, args = "echo", [profile.payload]
            sim.schedule_at(
                profile.start_offset_s + step * inputs.burst_gap_s,
                lambda a=access, u=urn, m=method, g=args: (
                    a.invoke_remote(u, m, g).then(acked)
                ),
            )
            state.submitted += 1
    state.setup_wire_bytes = _link_bytes(bed)
    return state


def run(state: State) -> None:
    sim = state.bed.sim
    offsets = [p.start_offset_s for p in state.inputs.profiles]
    deadline = state.inputs.reconnect_at + max(offsets) + _DRAIN_BUDGET_S
    # Chunked: checking the counter between chunks is O(1), a per-event
    # predicate over the whole fleet would dwarf the system under test.
    while len(state.latencies_s) < state.submitted and sim.now < deadline:
        state.events += sim.run(until=min(deadline, sim.now + 30.0))


def outcome(state: State) -> Outcome:
    inputs = state.inputs
    first_up = inputs.reconnect_at + min(p.start_offset_s for p in inputs.profiles)
    wire = _link_bytes(state.bed)
    transports = parts(state).transports
    return Outcome(
        attempted=state.submitted,
        acked=len(state.latencies_s),
        latencies_ms=[s * 1000.0 for s in state.latencies_s],
        timed_wire_bytes=wire - state.setup_wire_bytes,
        events=state.events,
        clock_elapsed_s=state.bed.sim.now,
        extra={
            "drain_sim_s": state.last_ack_at - first_up,
            # The three totals BENCH_E16.json pins.
            "done_at_s": round(state.bed.sim.now, 6),
            "bytes_sent": sum(t.bytes_sent for t in transports),
            "messages_sent": sum(t.messages_sent for t in transports),
        },
    )


def parts(state: State) -> Parts:
    bed = state.bed
    return Parts(
        sims=[bed.sim],
        accesses=[c.access for c in bed.clients],
        schedulers=[c.scheduler for c in bed.clients],
        transports=[bed.server_transport] + [c.transport for c in bed.clients],
        links=list(bed.network.links),
        servers=[bed.server],
        registries=[bed.obs.registry] + [c.obs.registry for c in bed.clients],
    )


def close(state: State) -> None:
    pass
