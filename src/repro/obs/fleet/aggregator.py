"""Server side of fleet telemetry: idempotent aggregation and health.

The :class:`FleetAggregator` registers the ``rover.telemetry`` service
on a serving host and applies incoming delta reports **idempotently by
``(client, seq)``** — a report may arrive twice (retransmission, log
replay after a client crash, same-seq re-ship after a terminal
scheduler failure) or out of order (reorder faults), and must count
exactly once.  Applied-seq state is a *floor + sparse set*: the floor
is the highest seq below which everything has been applied and the set
holds applied seqs above it, so memory stays O(outstanding gaps)
rather than O(reports).  Folded reports declare the seqs they absorbed
in ``f``, which the aggregator marks applied too — a fold is
coalescing, not loss.

Rollups live at three scopes, all bounded:

* **per client** — all-time counter totals and merged sketches (one
  :class:`ClientState` per client);
* **per window** — a :class:`WindowRing` of fixed-width time windows
  holding fleet-wide counter deltas, per-link-class and per-client
  report breakdowns; reports older than the ring's reach count as
  ``late`` instead of resurrecting evicted windows;
* **fleet-wide** — ``fleet_*`` counters/gauges exported through the
  serving host's own metric registry, so the fleet pipeline is
  observable with the same tools it implements.

The derived health layer (:meth:`FleetAggregator.evaluate_health`)
estimates per-client link quality from the shipped series (delivery
rate, retransmit ratio, RTT percentiles off the merged
``qrpc_latency_seconds`` sketch), evaluates the declarative
:class:`~repro.obs.fleet.slo.SLORule` set per client, flags clients
that have gone silent, and records health *transitions* as
:class:`~repro.obs.fleet.slo.HealthEvent` entries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.net import shape
from repro.net.message import marshalled_size
from repro.obs import Observatory
from repro.obs.fleet.sketch import LogSketch
from repro.obs.fleet.slo import (
    ClientHealth,
    HealthEvent,
    SLORule,
    parse_rules,
)
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import RoverServer
    from repro.net.transport import Transport

#: Reports naming a series id before its definition has arrived (a
#: reorder put the defining report behind) wait here, bounded.
MAX_DEFERRED = 64

#: Pinned per-client/per-link window breakdown families (kept small so
#: a window's footprint is independent of metric cardinality).
_WINDOW_FAMILIES = (
    "sched_delivered_total",
    "sched_retransmissions_total",
    "qrpc_failed_total",
)


def family_of(series: str) -> str:
    """``name{labels}`` -> ``name`` (series key to metric family)."""
    brace = series.find("{")
    return series if brace < 0 else series[:brace]


@dataclass
class Window:
    """One fixed-width time window of fleet activity."""

    index: int
    start: float
    end: float
    reports: int = 0
    clients: set = field(default_factory=set)
    #: Fleet-wide counter deltas landed in this window, by series key.
    counters: dict = field(default_factory=dict)
    #: link class -> {"reports": n, <family>: delta, ...}
    by_link: dict = field(default_factory=dict)
    #: client -> {"reports": n, <family>: delta, ...}
    by_client: dict = field(default_factory=dict)

    def _breakdown(self, table: dict, key: str) -> dict:
        row = table.get(key)
        if row is None:
            row = {"reports": 0}
            table[key] = row
        return row


class WindowRing:
    """A bounded ring of :class:`Window` objects keyed by time.

    Admits any window index within ``capacity`` of the newest seen;
    older indices are refused (the caller counts them as late) and
    windows falling off the back are evicted eagerly.
    """

    def __init__(self, window_s: float, capacity: int) -> None:
        if window_s <= 0 or capacity <= 0:
            raise ValueError("window_s and capacity must be positive")
        self.window_s = float(window_s)
        self.capacity = int(capacity)
        self._windows: dict[int, Window] = {}
        self._hi: Optional[int] = None
        self.evicted = 0

    def slot(self, t: float) -> Optional[Window]:
        """The window containing time ``t``; ``None`` if out of reach (or
        ``t`` is no time a window holds: not finite, or past a float)."""
        try:
            index = int(t // self.window_s)
        except (OverflowError, ValueError):
            return None
        if self._hi is not None and index <= self._hi - self.capacity:
            return None
        if self._hi is None or index > self._hi:
            self._hi = max(self._hi or index, index)
            floor = self._hi - self.capacity
            for old in [i for i in self._windows if i <= floor]:
                del self._windows[old]
                self.evicted += 1
        window = self._windows.get(index)
        if window is None:
            window = Window(
                index=index,
                start=index * self.window_s,
                end=(index + 1) * self.window_s,
            )
            self._windows[index] = window
        return window

    def windows(self) -> list[Window]:
        return [self._windows[i] for i in sorted(self._windows)]

    def __len__(self) -> int:
        return len(self._windows)


@dataclass
class ClientState:
    """Everything the aggregator knows about one reporting client."""

    client: str
    floor: int = 0                      # all seqs <= floor applied
    above: set = field(default_factory=set)   # applied seqs > floor
    max_seen: int = 0
    link_class: str = ""
    last_report_at: float = 0.0
    reports_applied: int = 0
    duplicates: int = 0
    ids: dict = field(default_factory=dict)       # wire id -> series key
    totals: dict = field(default_factory=dict)    # series key -> int
    sketches: dict = field(default_factory=dict)  # series key -> LogSketch

    def is_applied(self, seq: int) -> bool:
        return seq <= self.floor or seq in self.above

    def mark_applied(self, seq: int) -> None:
        if self.is_applied(seq):
            return
        self.above.add(seq)
        while self.floor + 1 in self.above:
            self.floor += 1
            self.above.discard(self.floor)

    def missing(self) -> int:
        """Seqs in ``(floor, max_seen]`` not yet applied (open gap size)."""
        return self.max_seen - self.floor - len(self.above)

    def total_for(self, family: str) -> int:
        return sum(
            v for key, v in self.totals.items() if family_of(key) == family
        )

    def sketch_for(self, family: str) -> LogSketch:
        merged = LogSketch()
        for key, sketch in self.sketches.items():
            if family_of(key) == family:
                merged.merge(sketch)
        return merged


class FleetAggregator:
    """Apply telemetry reports; keep rollups; derive fleet health."""

    METRICS = (
        ("fleet_reports_applied_total", "counter", "Telemetry reports applied", "reports_applied"),
        ("fleet_reports_duplicate_total", "counter",
         "Replayed/retransmitted reports suppressed by (client, seq)", "duplicates"),
        ("fleet_reports_folded_total", "counter",
         "Seqs that arrived folded inside a surviving report", "reports_folded"),
        ("fleet_reports_deferred_total", "counter",
         "Reports parked awaiting a series definition (reorder)", "reports_deferred"),
        ("fleet_reports_late_total", "counter", "Reports older than the window ring's reach", "late"),
        ("fleet_gap_opened_total", "counter", "Sequence gaps observed opening", "gaps_opened"),
        ("fleet_gap_healed_total", "counter", "Sequence gaps fully recovered", "gaps_healed"),
        ("fleet_reply_bytes_total", "counter",
         "Marshalled telemetry ack/reply bytes returned to clients", "reply_bytes"),
        ("fleet_clients", "gauge", "Clients that have reported at least once", "clients.__len__"),
        ("fleet_open_gaps", "gauge", "Unapplied seqs across all clients", "open_gaps"),
        ("fleet_unhealthy_clients", "gauge",
         "Clients violating an SLO rule at the last evaluation", "unhealthy"),
        ("fleet_slo_violations", "gauge",
         "Rule violations across clients at the last evaluation", "violations"),
    )

    def __init__(
        self,
        sim: Simulator,
        obs: Optional[Observatory] = None,
        server: Optional["RoverServer"] = None,
        window_s: float = 60.0,
        window_count: int = 64,
        slo_rules: Optional[list] = None,
        silent_after_s: float = 300.0,
        events_cap: int = 256,
    ) -> None:
        self.sim = sim
        self.server = server
        if obs is None:
            obs = server.obs if server is not None else Observatory()
        self.obs = obs
        self.ring = WindowRing(window_s, window_count)
        self.silent_after_s = float(silent_after_s)
        rules = slo_rules if slo_rules is not None else []
        self.slo_rules: list[SLORule] = [
            rule if isinstance(rule, SLORule) else SLORule.parse(rule)
            for rule in rules
        ]
        self.events: deque[HealthEvent] = deque(maxlen=events_cap)
        self.late = 0
        self.clients: dict[str, ClientState] = {}
        self._deferred: deque = deque()
        self._deferred_dropped = 0
        self._health: dict[str, ClientHealth] = {}
        self._silent: set[str] = set()
        #: Counts of :attr:`METRICS`, bumped where they happen.
        self.reports_folded = 0
        self.reports_deferred = 0
        self.gaps_opened = 0
        self.gaps_healed = 0
        #: Marshalled bytes of every telemetry reply sent back so far.
        self.reply_bytes = 0
        self.obs.registry.expose(self, {})

    # -- wiring -----------------------------------------------------------------

    def register(self, transport: "Transport") -> None:
        """Register the ``rover.telemetry`` service on a serving host."""
        transport.register("rover.telemetry", self._on_telemetry)

    def _on_telemetry(self, body: dict, source) -> dict:
        if self.server is not None and not self.server._authorized(body):
            return {"status": "unauthorized"}
        # The wire body is the report itself plus envelope fields
        # (request_id, ackw, ...) the report keys don't collide with.
        reply = self.apply_report(body)
        if self.server is not None and reply["status"] == "ok":
            self.server._observe_watermark(body)
        self.reply_bytes += marshalled_size(reply)
        return reply

    # -- report application ------------------------------------------------------

    def apply_report(self, report: Any) -> dict:
        """Apply one report; ``malformed``, with nothing changed, when it
        does not fit :data:`~repro.net.shape.REPORT` or names no client
        or no positive seq."""
        if not shape.fits(report, shape.REPORT) or not report["c"] or report["q"] <= 0:
            return {"status": "malformed"}
        client, seq = report["c"], report["q"]
        state = self.clients.setdefault(client, ClientState(client))
        if state.is_applied(seq):
            state.duplicates += 1
            return {"status": "ok", "seq": seq, "dup": True}
        for wire_id, name in report.get("d", []):
            state.ids[wire_id] = name
        if self._unresolved(state, report):
            return self._defer(report)
        reply = self._apply(state, report)
        self._retry_deferred()
        return reply

    def _unresolved(self, state: ClientState, report: dict) -> bool:
        for section in ("k", "h"):
            for wire_id, __ in report.get(section, []):
                if wire_id not in state.ids:
                    return True
        return False

    def _defer(self, report: dict) -> dict:
        if len(self._deferred) >= MAX_DEFERRED:
            self._deferred.popleft()
            self._deferred_dropped += 1
        self._deferred.append(report)
        self.reports_deferred += 1
        return {"status": "ok", "seq": report["q"], "deferred": True}

    def _retry_deferred(self) -> None:
        if not self._deferred:
            return
        pending = list(self._deferred)
        self._deferred.clear()
        for report in pending:
            state = self.clients.setdefault(
                report["c"], ClientState(report["c"])
            )
            if state.is_applied(report["q"]):
                continue
            if self._unresolved(state, report):
                self._deferred.append(report)
            else:
                self._apply(state, report)

    def _apply(self, state: ClientState, report: dict) -> dict:
        seq = report["q"]
        missing_before = state.missing()
        state.max_seen = max(state.max_seen, seq)
        for covered in report.get("f", []):
            if not state.is_applied(covered):
                state.mark_applied(covered)
                self.reports_folded += 1
        state.mark_applied(seq)
        missing_after = state.missing()
        now = self.sim.now
        if missing_after > missing_before:
            self.gaps_opened += 1
            self.events.append(HealthEvent(
                at=now, client=state.client, kind="gap",
                detail=f"seq {seq} arrived with {missing_after} seq(s) missing",
            ))
        elif missing_before > 0 and missing_after == 0:
            self.gaps_healed += 1
            self.events.append(HealthEvent(
                at=now, client=state.client, kind="gap_healed",
                detail=f"seq {seq} closed the gap (floor {state.floor})",
            ))

        state.link_class = report.get("l", state.link_class)
        state.last_report_at = now
        state.reports_applied += 1

        window = self.ring.slot(report.get("t1", now))
        if window is None:
            self.late += 1
        else:
            window.reports += 1
            window.clients.add(state.client)
            link_row = window._breakdown(window.by_link, state.link_class or "?")
            client_row = window._breakdown(window.by_client, state.client)
            link_row["reports"] += 1
            client_row["reports"] += 1

        for wire_id, delta in report.get("k", []):
            key = state.ids[wire_id]
            state.totals[key] = state.totals.get(key, 0) + delta
            if window is not None:
                window.counters[key] = window.counters.get(key, 0) + delta
                family = family_of(key)
                if family in _WINDOW_FAMILIES:
                    link_row[family] = link_row.get(family, 0) + delta
                    client_row[family] = client_row.get(family, 0) + delta

        for wire_id, wire in report.get("h", []):
            key = state.ids[wire_id]
            sketch = state.sketches.get(key)
            if sketch is None:
                state.sketches[key] = LogSketch.from_wire(wire)
            else:
                sketch.merge(LogSketch.from_wire(wire))
        return {"status": "ok", "seq": seq}

    # -- rollup access -----------------------------------------------------------

    def client_totals(self, client: str) -> dict[str, int]:
        state = self.clients.get(client)
        return dict(state.totals) if state is not None else {}

    def reports_applied(self) -> int:
        return sum(st.reports_applied for st in self.clients.values())

    def duplicates(self) -> int:
        return sum(st.duplicates for st in self.clients.values())

    def open_gaps(self) -> int:
        return sum(st.missing() for st in self.clients.values())

    def unhealthy(self) -> int:
        """Clients violating an SLO rule at the last evaluation."""
        return sum(1 for h in self._health.values() if not h.healthy)

    def violations(self) -> int:
        """Rule violations across clients at the last evaluation."""
        return sum(len(h.violations) for h in self._health.values())

    # -- health ------------------------------------------------------------------

    def evaluate_health(self, now: Optional[float] = None) -> dict[str, ClientHealth]:
        """(Re)compute per-client health; records transition events."""
        at = self.sim.now if now is None else now
        health: dict[str, ClientHealth] = {}
        for client in sorted(self.clients):
            state = self.clients[client]
            entry = ClientHealth(client=client)
            delivered = state.total_for("sched_delivered_total")
            failed = state.total_for("qrpc_failed_total")
            retrans = state.total_for("sched_retransmissions_total")
            attempts = delivered + failed
            entry.delivery_rate = delivered / attempts if attempts else 1.0
            entry.retransmit_ratio = retrans / delivered if delivered else 0.0
            rtt = state.sketch_for("qrpc_latency_seconds")
            if rtt.total:
                entry.rtt_p50 = rtt.percentile(50)
                entry.rtt_p95 = rtt.percentile(95)
                entry.rtt_p99 = rtt.percentile(99)
            entry.silent = bool(
                state.last_report_at
                and at - state.last_report_at > self.silent_after_s
            )
            for rule in self.slo_rules:
                observed = self._observe(state, rule)
                if not rule.check(observed):
                    entry.violations.append(
                        f"{rule.text} (observed {observed:.6g})"
                    )
            entry.healthy = not entry.violations and not entry.silent
            health[client] = entry
            self._transition(at, client, entry)
        self._health = health
        return health

    def _observe(self, state: ClientState, rule: SLORule) -> Optional[float]:
        if rule.stat == "total":
            return float(state.total_for(rule.metric))
        if rule.stat == "ratio":
            denominator = state.total_for(rule.denominator)
            if not denominator:
                return None
            return state.total_for(rule.metric) / denominator
        sketch = state.sketch_for(rule.metric)
        if not sketch.total:
            return None
        return sketch.percentile(float(rule.stat[1:]))

    def _transition(self, at: float, client: str, entry: ClientHealth) -> None:
        was_healthy = (
            self._health[client].healthy if client in self._health else True
        )
        if entry.silent and client not in self._silent:
            self._silent.add(client)
            self.events.append(HealthEvent(
                at=at, client=client, kind="silent",
                detail=f"no report for > {self.silent_after_s:g}s",
            ))
        elif not entry.silent:
            self._silent.discard(client)
        if was_healthy and not entry.healthy:
            detail = "; ".join(entry.violations) or "went silent"
            self.events.append(HealthEvent(
                at=at, client=client, kind="degraded", detail=detail
            ))
        elif not was_healthy and entry.healthy:
            self.events.append(HealthEvent(
                at=at, client=client, kind="recovered", detail=""
            ))

    def health(self) -> dict[str, ClientHealth]:
        """The most recent :meth:`evaluate_health` result."""
        return self._health

    def worst_clients(self, k: int = 10) -> list[ClientHealth]:
        """Clients ranked most-broken first (violations, delivery, RTT)."""
        ranked = sorted(
            self._health.values(),
            key=lambda h: (
                -len(h.violations),
                -int(h.silent),
                h.delivery_rate,
                -h.rtt_p99,
                h.client,
            ),
        )
        return ranked[:k]

    def summary(self) -> dict:
        """Fleet-wide counters for tables/JSONL; health from last eval."""
        return {
            "clients": len(self.clients),
            "reports_applied": self.reports_applied(),
            "duplicates": self.duplicates(),
            "deferred_waiting": len(self._deferred),
            "deferred_dropped": self._deferred_dropped,
            "late": self.late,
            "open_gaps": self.open_gaps(),
            "windows": len(self.ring),
            "unhealthy": self.unhealthy(),
            "violations": self.violations(),
            "events": len(self.events),
        }
