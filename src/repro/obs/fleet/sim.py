"""The fleet simulation behind benchmark E15 and the fleet CLI.

One serving host, N mobile clients over a mixed link population
(Ethernet / WaveLAN / 14.4K CSLIP / 2.4K CSLIP, the paper's four
links; the slowest class also cycles through disconnection so queued
reports exercise the fold rule).  Every client runs a small foreground
workload (imports plus remote invokes against its own server object)
and, when telemetry is on, a :class:`TelemetryReporter` shipping its
private registry to the :class:`FleetAggregator`.

Two properties this scenario exists to measure, both E15 acceptance
criteria:

* **overhead** — within the telemetry run, every dispatched request
  body is attributed to its service by the scheduler
  (``sched_service_bytes_total``) and every telemetry ack is measured
  by the aggregator, so the telemetry tax is (telemetry requests +
  replies) over the remaining foreground wire bytes (must stay ≤ 5%).
  A clean control run with the same seed is kept as reference, but the
  raw A/B wire delta is *not* the tax: on links that cycle through
  disconnection, shifting transmission timing by microseconds moves
  foreground messages across up/down boundaries and perturbs re-sends
  by far more than the telemetry bytes themselves;
* **exactness** — at the horizon every client captures its ground
  truth and flushes *in the same simulated instant*; after the drain,
  the aggregator's per-client counter totals must equal the ground
  truth exactly — under duplication, reordering, folding, and (in the
  chaos variant) link faults plus a server outage.

The aggregator object itself survives the simulated server outage:
its rollups model state the serving tier keeps durable, while the
outage still kills in-flight telemetry exchanges (recovered by
retransmission and same-seq re-ship).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.chaos.controller import ChaosController
from repro.chaos.faults import LinkFaultSpec
from repro.chaos.plan import FaultPlan, LinkFaultWindow, ServerOutage
from repro.net.link import CSLIP_2_4, PeriodicSchedule
from repro.obs.fleet.aggregator import FleetAggregator
from repro.obs.fleet.report import TelemetryReporter
from repro.obs.fleet.slo import DEFAULT_SLO_RULES
from repro.sim.rng import make_rng
from repro.testbed import Testbed
from repro.workloads.fleet import (
    LINK_MIX,
    PING_CODE,
    PING_INTERFACE,
    build_mixed_fleet,
    class_payload_bytes,
)


def _payload(seed: int, nbytes: int) -> bytes:
    """Seeded noise: a payload that costs the line what it weighs.

    A run of one letter deflates to nothing on every link whose frames
    the transport compresses, which would leave telemetry as the only
    traffic that costs bytes.  Against incompressible foreground the
    attributed overhead is an upper bound: reports are counted as
    marshalled, before the transport compresses them.
    """
    return make_rng(seed, f"fleet:payload:{nbytes}").randbytes(nbytes)


#: The fleet's home server.  Rollups use the aggregator's own windows.
AUTHORITY = "fleet"


@dataclass(frozen=True)
class FleetScenario:
    """One reproducible fleet run (frozen: a scenario plus nothing)."""

    n_clients: int = 1000
    seed: int = 0
    #: Foreground workload + reporting stop here; the run then drains.
    horizon_s: float = 600.0
    report_interval_s: float = 60.0
    #: Remote invokes each client spreads over the horizon.
    invokes_per_client: int = 16
    #: Echo payload for fast-link clients; slower classes carry less
    #: (:func:`repro.workloads.fleet.class_payload_bytes`).
    payload_bytes: int = 8192
    telemetry: bool = True
    chaos: bool = False
    silent_after_s: float = 300.0
    slo: tuple = DEFAULT_SLO_RULES
    #: Extra simulated time allowed for queued telemetry to drain.
    drain_s: float = 1800.0


@dataclass
class FleetResult:
    """What one run produced."""

    scenario: FleetScenario
    bed: Testbed
    aggregator: Optional[FleetAggregator]
    reporters: list[TelemetryReporter]
    wire_bytes: int = 0
    duration_s: float = 0.0
    reports_sent: int = 0
    reports_acked: int = 0
    reports_reshipped: int = 0
    #: Dispatched request-body bytes attributed by service (from the
    #: per-client ``sched_service_bytes_total`` counters).
    telemetry_request_bytes: int = 0
    foreground_request_bytes: int = 0
    #: Marshalled telemetry ack bytes, measured by the aggregator.
    telemetry_reply_bytes: int = 0
    exact: bool = True
    mismatched_clients: list = field(default_factory=list)
    ground_truth: dict = field(default_factory=dict)

    @property
    def telemetry_bytes(self) -> int:
        """Total wire bytes attributed to telemetry (requests + acks)."""
        return self.telemetry_request_bytes + self.telemetry_reply_bytes

    @property
    def foreground_bytes(self) -> int:
        """Everything the links carried that wasn't telemetry."""
        return max(0, self.wire_bytes - self.telemetry_bytes)

    @property
    def overhead_pct(self) -> float:
        """Telemetry bytes as a percentage of foreground wire bytes."""
        if not self.foreground_bytes:
            return 0.0
        return 100.0 * self.telemetry_bytes / self.foreground_bytes

    def summary(self) -> dict:
        out = {
            "clients": self.scenario.n_clients,
            "wire_bytes": self.wire_bytes,
            "duration_s": self.duration_s,
            "reports_sent": self.reports_sent,
            "reports_acked": self.reports_acked,
            "reports_reshipped": self.reports_reshipped,
            "exact": self.exact,
            "mismatched_clients": len(self.mismatched_clients),
        }
        if self.aggregator is not None:
            out["telemetry_bytes"] = self.telemetry_bytes
            out["overhead_pct"] = round(self.overhead_pct, 3)
            out.update(self.aggregator.summary())
        return out


def chaos_plan(scenario: FleetScenario) -> FaultPlan:
    """The E15 chaos variant: lossy windows plus one server outage.

    No client crashes here — those are covered by the dedicated chaos
    tests (client recovery rebuilds the access manager, which a
    benchmark loop shouldn't pay for a thousand times).
    """
    third = scenario.horizon_s / 3.0
    return FaultPlan(
        seed=scenario.seed,
        server_outages=(
            ServerOutage(at=third * 2.0, down_for=scenario.horizon_s / 10.0),
        ),
        link_windows=(
            LinkFaultWindow(
                spec=LinkFaultSpec(drop=0.05, reorder=0.05, duplicate=0.02),
                start=third * 0.5,
                end=third * 1.5,
            ),
        ),
    )


def build_fleet(scenario: FleetScenario) -> FleetResult:
    """Wire the testbed, aggregator, reporters, and workload events."""
    policies = []
    for index in range(scenario.n_clients):
        spec = LINK_MIX[index % len(LINK_MIX)]
        if spec is CSLIP_2_4:
            # The slowest class also disconnects: down longer than the
            # report interval, so queued reports pile up and fold.
            policies.append(PeriodicSchedule(
                up_duration=scenario.horizon_s / 4.0,
                down_duration=scenario.report_interval_s * 2.5,
                phase=(index % 7) * scenario.report_interval_s / 7.0,
            ))
        else:
            policies.append(None)
    bed = build_mixed_fleet(
        scenario.n_clients,
        policies,
        AUTHORITY,
        scenario.seed,
        "fleet-ping",
        PING_CODE,
        PING_INTERFACE,
    )

    aggregator: Optional[FleetAggregator] = None
    reporters: list[TelemetryReporter] = []
    if scenario.telemetry:
        aggregator = FleetAggregator(
            bed.sim,
            obs=bed.obs,
            server=bed.server,
            slo_rules=list(scenario.slo),
            silent_after_s=scenario.silent_after_s,
        )
        aggregator.register(bed.server_transport)
        for index, stack in enumerate(bed.clients):
            reporter = TelemetryReporter(
                stack.access,
                AUTHORITY,
                obs=stack.obs,
                interval_s=scenario.report_interval_s,
                link_class=LINK_MIX[index % len(LINK_MIX)].name,
            )
            # Golden-ratio stagger: deterministic, and spreads report
            # instants nearly uniformly so the server never sees a
            # thundering herd at interval boundaries.
            stagger = (index * 0.6180339887498949 % 1.0)
            reporter.start(stagger_s=stagger * scenario.report_interval_s)
            reporters.append(reporter)

    for index, stack in enumerate(bed.clients):
        urn = f"urn:rover:{AUTHORITY}/obj/{index}"
        start = (index % 23) * (scenario.horizon_s / (23 * 4.0))
        bed.sim.schedule_at(
            start, lambda s=stack, u=urn: s.access.import_(u)
        )
        gap = scenario.horizon_s / (scenario.invokes_per_client + 1)
        blob = _payload(scenario.seed, class_payload_bytes(scenario.payload_bytes, index))
        for step in range(scenario.invokes_per_client):
            if step % 4 == 0:
                method, args = "bump", []
            else:
                method, args = "echo", [blob]
            bed.sim.schedule_at(
                start + (step + 1) * gap,
                lambda s=stack, u=urn, m=method, a=args: (
                    s.access.invoke_remote(u, m, a)
                ),
            )
    return FleetResult(
        scenario=scenario, bed=bed, aggregator=aggregator,
        reporters=reporters,
    )


def _service_request_bytes(bed: Testbed) -> tuple[int, int]:
    """(telemetry, foreground) request-body bytes across all clients.

    Every client scheduler attributes each dispatched request's
    marshalled body to its service in ``sched_service_bytes_total``
    (retransmissions re-count — they are real wire bytes).
    """
    telemetry = 0
    foreground = 0
    for stack in bed.clients:
        if stack.obs is None:
            continue
        metric = stack.obs.registry.get("sched_service_bytes_total")
        if metric is None:
            continue
        for key, child in metric.children():
            service = key[metric.labelnames.index("service")]
            if service == "rover.telemetry":
                telemetry += int(child.value)
            else:
                foreground += int(child.value)
    return telemetry, foreground


def run_fleet(scenario: FleetScenario) -> FleetResult:
    """Build and run one scenario to its horizon, then drain and check."""
    result = build_fleet(scenario)
    bed, reporters = result.bed, result.reporters

    if scenario.chaos:
        controller = ChaosController(bed.sim, obs=bed.obs, seed=scenario.seed)
        controller.schedule(chaos_plan(scenario), bed)

    def finale() -> None:
        # Ground truth and the final flush happen in this one event,
        # before the flush's own log/scheduler work can bump counters:
        # exactness is defined at this instant.  Periodic ticks stop
        # first — a report built during the drain would ship counter
        # bumps from delivering telemetry itself, past the truth.
        for index, reporter in enumerate(reporters):
            reporter.stop()
            result.ground_truth[bed.clients[index].host.name] = (
                reporter.ground_truth()
            )
            reporter.flush()

    bed.sim.schedule_at(scenario.horizon_s, finale)
    bed.sim.run(until=scenario.horizon_s + 0.000001)

    # Drain: run until every report is acked (or the budget runs out —
    # the 2.4K class spends most of each cycle disconnected).
    deadline = scenario.horizon_s + scenario.drain_s
    while bed.sim.now < deadline:
        if all(not reporter._unacked for reporter in reporters):
            break
        bed.sim.run(until=min(deadline, bed.sim.now + 30.0))
    bed.sim.run(until=bed.sim.now + 5.0)  # let final acks land

    result.duration_s = bed.sim.now
    result.wire_bytes = sum(stack.link.bytes_carried for stack in bed.clients)
    tel_req, fg_req = _service_request_bytes(bed)
    result.telemetry_request_bytes = tel_req
    result.foreground_request_bytes = fg_req
    if result.aggregator is not None:
        result.telemetry_reply_bytes = result.aggregator.reply_bytes
    result.reports_sent = sum(r.reports_sent for r in reporters)
    result.reports_acked = sum(r.reports_acked for r in reporters)
    result.reports_reshipped = sum(r.reports_reshipped for r in reporters)

    if result.aggregator is not None:
        for index, stack in enumerate(bed.clients):
            client = stack.host.name
            expected = result.ground_truth.get(client, {})
            got = result.aggregator.client_totals(client)
            if got != expected:
                result.exact = False
                result.mismatched_clients.append(client)
        # Evaluate health as of the horizon: the drain that follows it
        # is bookkeeping, not fleet time, and would mark every client
        # silent.
        result.aggregator.evaluate_health(now=scenario.horizon_s)
    return result
