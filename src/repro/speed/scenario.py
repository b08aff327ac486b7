"""The E16 drain scenario: a large mixed-link fleet reconnects at once.

The forcing function for the whole ``repro.speed`` pass: N clients on
the four-class link mix queue operations while disconnected, then the
links come up in staggered waves and every queued QRPC drains to the
home server.  Everything here is simulation — seeded, bit-for-bit
deterministic — so the scenario doubles as a regression pin: the
deterministic metrics in :class:`DrainMetrics` must match the committed
baseline exactly, while the driver (``run_e16_speed``) reports the run's
wall time, measured with :mod:`repro.speed.measure`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.link import IntervalTrace
from repro.storage.stable_log import GroupCommitPolicy
from repro.testbed import Testbed
from repro.workloads.fleet import (
    ECHO_CODE,
    ECHO_INTERFACE,
    LINK_MIX,
    build_mixed_fleet,
    class_payload_bytes,
)
from repro.workloads.population import CohortSpec, generate_population


OPS_PER_CLIENT = 3
#: The fast-link payload; slower classes carry less.
PAYLOAD_BYTES = 2048
#: Clients queue ops from their stagger offset; every link is down
#: until its reconnect wave.
RECONNECT_AT = 300.0
#: Wave width: client links come up spread over this window.
STAGGER_WINDOW_S = 60.0
AUTHORITY = "server"


@dataclass(frozen=True)
class SpeedScenario:
    """One reproducible drain run."""

    n_clients: int = 10_000
    seed: int = 7
    #: Virtual-time budget for the drain after reconnection begins.
    drain_s: float = 14_400.0
    #: Adaptive group commit on every client log (None: the paper's
    #: flush-per-append discipline).
    group_commit: bool = True


@dataclass
class DrainMetrics:
    """What one drain run produced.

    Every field is derived from simulation state only — identical on
    every machine for a given scenario.
    """

    ops_submitted: int = 0
    ops_acked: int = 0
    done_at_s: float = 0.0
    log_appends: int = 0
    log_flushes: int = 0
    group_commits: int = 0
    fsyncs_saved: int = 0
    bytes_sent: int = 0
    messages_sent: int = 0
    kernel_compactions: int = 0
    #: Events the kernel executed: the drain's CPU proxy.
    kernel_events: int = 0


def _sum_counter(bed: Testbed, name: str) -> int:
    """A counter's total over the server's registry and every client's."""
    registries = [bed.obs.registry] + [s.obs.registry for s in bed.clients if s.obs is not None]
    metrics = (registry.get(name) for registry in registries)
    return int(sum(metric.value for metric in metrics if metric is not None))


def build_drain(scenario: SpeedScenario):
    """Wire the testbed and queue the whole workload; returns
    ``(bed, profiles, done_counter)`` ready for :func:`run_drain`."""
    cohorts = [
        CohortSpec(
            name=spec.name,
            link_index=index,
            n_ops=OPS_PER_CLIENT,
            payload_bytes=class_payload_bytes(PAYLOAD_BYTES, index),
        )
        for index, spec in enumerate(LINK_MIX)
    ]
    profiles = generate_population(
        scenario.seed, scenario.n_clients, cohorts, stagger_window_s=STAGGER_WINDOW_S
    )
    policies = [IntervalTrace([(RECONNECT_AT + p.start_offset_s, 1e12)]) for p in profiles]
    bed = build_mixed_fleet(
        scenario.n_clients,
        policies,
        AUTHORITY,
        scenario.seed,
        "speed-echo",
        ECHO_CODE,
        ECHO_INTERFACE,
        group_commit=GroupCommitPolicy() if scenario.group_commit else None,
    )

    done = [0]

    def _acked(_result) -> None:
        done[0] += 1

    # Queue every op while the client is still disconnected: the whole
    # backlog then drains through the reconnection waves.  Each
    # client's ops arrive as a burst (0.5 ms apart — a user firing off
    # a batch), which is what gives the adaptive group commit something
    # to batch: the whole burst lands inside one stretched flush window.
    for profile in profiles:
        stack = bed.clients[profile.client_id]
        urn = f"urn:rover:{AUTHORITY}/obj/{profile.client_id}"
        for step in range(profile.n_ops):
            at = profile.start_offset_s + step * 0.0005
            if step % 3 == 0:
                method, args = "bump", []
            else:
                method, args = "echo", [profile.payload]
            bed.sim.schedule_at(
                at,
                lambda s=stack, u=urn, m=method, a=args: (
                    s.access.invoke_remote(u, m, a).then(_acked)
                ),
            )
    return bed, profiles, done


def run_drain(scenario: SpeedScenario) -> tuple[DrainMetrics, Testbed]:
    """Run a drain to completion (or its virtual-time budget)."""
    bed, profiles, done = build_drain(scenario)
    total = sum(p.n_ops for p in profiles)

    # Chunked run: checking the completion counter between chunks is
    # O(1); a per-event predicate over 10k clients would dwarf the
    # system under test.
    deadline = RECONNECT_AT + STAGGER_WINDOW_S + scenario.drain_s
    events = 0
    while done[0] < total and bed.sim.now < deadline:
        step = min(30.0, deadline - bed.sim.now)
        events += bed.sim.run(until=bed.sim.now + step)

    metrics = DrainMetrics(
        ops_submitted=total,
        ops_acked=done[0],
        done_at_s=round(bed.sim.now, 6),
        kernel_compactions=bed.sim.compactions,
        kernel_events=events,
        bytes_sent=_sum_counter(bed, "transport_bytes_sent_total"),
        messages_sent=_sum_counter(bed, "transport_messages_sent_total"),
    )
    for stack in bed.clients:
        stable = stack.access.log.stable
        metrics.log_appends += stable.appends
        metrics.log_flushes += stable.flushes
        metrics.group_commits += stable.group_commits
        metrics.fsyncs_saved += stable.fsyncs_saved
    return metrics, bed
