"""Client side of fleet telemetry: delta reports and the fold rule.

A :class:`TelemetryReporter` periodically folds its client's local
metric registry into a **delta report** and ships it through the
client's own :class:`~repro.core.access_manager.AccessManager` as an
:attr:`~repro.core.qrpc.Operation.TELEMETRY` QRPC at background
priority.  The report carries:

* integer **counter deltas** since the previous report (counters in
  this codebase only ever step by integers, so delta totals telescope
  exactly at the aggregator — the property benchmark E15 checks);
* mergeable **log-bucketed sketches** (:class:`LogSketch`) over the
  histogram observations recorded since the previous report;
* a **monotonic sequence number** ``q`` so the aggregator can apply
  reports idempotently and out of order.

Series names are dictionary-coded: the first report using a series
ships a ``[id, name]`` definition and later reports carry only the
small integer id.  Labels whose value equals the client's own host
name are stripped (the aggregator re-qualifies every series by the
reporting client), which is what makes series comparable across the
fleet.

Because reports ride the operation log, a disconnected client piles
queued reports up.  :class:`TelemetryFold` is a compaction
:class:`~repro.perf.compact.PairRule` that folds two adjacent
undelivered reports into one — deltas add, sketches merge — and
records the folded-away sequence numbers in ``f`` so
the aggregator does not mistake them for losses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.promise import Promise
from repro.core.qrpc import Operation, QRPCRequest
from repro.net.scheduler import Priority
from repro.obs import Observatory
from repro.obs.fleet.sketch import LogSketch
from repro.obs.metrics import CounterChild, HistogramChild, format_series
from repro.perf.compact import PairRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.access_manager import AccessManager

#: Telemetry report wire-format version.
WIRE_VERSION = 1


class TelemetryFold(PairRule):
    """Fold two adjacent undelivered telemetry reports into one.

    Refuses to touch a re-shipped report (``r`` flag): a retry reuses
    its original sequence number for an operation the server *may*
    have partially seen, so folding it under a new seq could
    double-count if the first copy did land.
    """

    def match(self, earlier: QRPCRequest, later: QRPCRequest):
        if (
            earlier.operation is not Operation.TELEMETRY
            or later.operation is not Operation.TELEMETRY
        ):
            return None
        a, b = earlier.args, later.args
        if "r" in a or "r" in b:
            return None
        if a.get("c") != b.get("c"):
            return None
        return fold_reports(a, b)


def fold_reports(a: dict, b: dict) -> dict:
    """Merge report ``a`` (earlier) into ``b`` (later): the combined args.

    Counter deltas add, sketches merge, definitions union (``b``'s name
    wins on an id collision, which cannot happen for one well-behaved
    reporter), and the survivor's ``f`` list records every sequence
    number the fold covered.
    """
    out = {
        "v": b.get("v", WIRE_VERSION),
        "c": b["c"],
        "q": b["q"],
        "t0": min(a.get("t0", b["t0"]), b["t0"]),
        "t1": b["t1"],
    }
    if b.get("l"):
        out["l"] = b["l"]
    covers = sorted(
        set(a.get("f", [])) | set(b.get("f", [])) | {int(a["q"])}
    )
    out["f"] = covers

    defs = {int(i): name for i, name in a.get("d", [])}
    defs.update({int(i): name for i, name in b.get("d", [])})
    if defs:
        out["d"] = [[i, defs[i]] for i in sorted(defs)]

    counters = {int(i): int(v) for i, v in a.get("k", [])}
    for i, v in b.get("k", []):
        counters[int(i)] = counters.get(int(i), 0) + int(v)
    if counters:
        out["k"] = [[i, counters[i]] for i in sorted(counters)]

    sketches = {int(i): wire for i, wire in a.get("h", [])}
    for i, wire in b.get("h", []):
        prev = sketches.get(int(i))
        sketches[int(i)] = (
            wire if prev is None else LogSketch.merge_wire(prev, wire)
        )
    if sketches:
        out["h"] = [[i, sketches[i]] for i in sorted(sketches)]
    return out


class TelemetryReporter:
    """Periodically ship one client's metric registry as delta reports.

    The reporter's cursors (sequence number, per-series shipped
    offsets, the id dictionary) model state the client would keep on
    stable storage; they survive :meth:`attach` across a simulated
    crash, while delivery of already-logged reports is owned by the
    operation log's replay.
    """

    def __init__(
        self,
        access: "AccessManager",
        authority: str,
        obs: Optional[Observatory] = None,
        interval_s: float = 30.0,
        link_class: str = "",
        priority: Priority = Priority.BACKGROUND,
    ) -> None:
        self.access = access
        self.authority = authority
        self.obs = obs if obs is not None else access.obs
        self.interval_s = float(interval_s)
        self.link_class = link_class
        self.priority = priority
        self.client = access.host.name
        self._seq = 0
        #: Cumulative counter value already shipped, per series key.
        self._counter_last: dict[str, int] = {}
        #: Raw histogram observations already consumed, per series key.
        self._hist_consumed: dict[str, int] = {}
        self._ids: dict[str, int] = {}
        self._next_id = 1
        #: Ids whose definition rode a report that was acked.
        self._defined: set[int] = set()
        #: seq -> shipped payload, for same-seq re-ship after terminal
        #: failure.  Cleared on :meth:`attach` (log replay takes over).
        self._unacked: dict[int, dict] = {}
        #: Guards promise callbacks across crash/attach cycles (an old
        #: incarnation's ack must not mutate the rebuilt state).
        self._epoch = 0
        #: Guards scheduled ticks; also bumped by :meth:`stop`, which
        #: must cancel future ticks *without* invalidating in-flight acks.
        self._tick_epoch = 0
        self._started = False
        self.reports_sent = 0
        self.reports_acked = 0
        self.reports_reshipped = 0
        self._ensure_fold_rule()

    # -- lifecycle --------------------------------------------------------------

    def start(self, stagger_s: float = 0.0) -> None:
        """Begin periodic reporting ``stagger_s`` seconds from now."""
        self._started = True
        self.access.sim.schedule(stagger_s, self._tick, self._tick_epoch)

    def stop(self) -> None:
        """Cancel future periodic ticks; in-flight reports still ack."""
        self._started = False
        self._tick_epoch += 1

    def attach(self, access: "AccessManager") -> None:
        """Adopt the access manager a crash recovery rebuilt.

        Reports still queued at the crash are replayed from the stable
        log by the recovery path itself, so pending re-ship state is
        dropped; cursors (seq, shipped offsets) persist — they model
        checkpointed reporter state.
        """
        self.access = access
        self._unacked.clear()
        self._epoch += 1
        self._tick_epoch += 1
        self._ensure_fold_rule()
        if self._started:
            self.access.sim.schedule(self.interval_s, self._tick, self._tick_epoch)

    def _ensure_fold_rule(self) -> None:
        compactor = self.access.compactor
        if compactor is not None and any(
            isinstance(rule, TelemetryFold) for rule in compactor.pair_rules
        ):
            return
        self.access.add_compaction_rule(TelemetryFold())

    def _tick(self, epoch: int) -> None:
        if epoch != self._tick_epoch:
            return
        self.flush()
        self.access.sim.schedule(self.interval_s, self._tick, epoch)

    # -- report construction ----------------------------------------------------

    def _series_key(self, name: str, labelnames, labelvalues) -> str:
        kept_names = []
        kept_values = []
        for ln, lv in zip(labelnames, labelvalues):
            if lv == self.client:
                continue  # the aggregator re-qualifies by client
            kept_names.append(ln)
            kept_values.append(lv)
        return format_series(name, kept_names, kept_values)

    def _id_for(self, key: str, defs: list) -> int:
        wire_id = self._ids.get(key)
        if wire_id is None:
            wire_id = self._next_id
            self._next_id += 1
            self._ids[key] = wire_id
        if wire_id not in self._defined:
            defs.append([wire_id, key])
        return wire_id

    def build_report(self) -> Optional[dict]:
        """Snapshot the registry into a delta report; ``None`` if empty."""
        registry = self.obs.registry
        t1 = self.access.sim.now
        defs: list = []
        counters: list = []
        sketches: list = []
        for metric in sorted(registry.metrics(), key=lambda m: m.name):
            for labelvalues, child in sorted(metric.children()):
                key = self._series_key(metric.name, metric.labelnames, labelvalues)
                if isinstance(child, CounterChild):
                    current = int(child.value)
                    delta = current - self._counter_last.get(key, 0)
                    if delta:
                        self._counter_last[key] = current
                        counters.append([self._id_for(key, defs), delta])
                elif isinstance(child, HistogramChild):
                    raw = child._values
                    start = self._hist_consumed.get(key, 0)
                    if len(raw) > start:
                        sketch = LogSketch()
                        sketch.observe_many(raw[start:])
                        self._hist_consumed[key] = len(raw)
                        sketches.append(
                            [self._id_for(key, defs), sketch.to_wire()]
                        )
        if not (counters or sketches):
            return None
        self._seq += 1
        t0 = t1 - self.interval_s if self._seq > 1 else 0.0
        report: dict = {
            "v": WIRE_VERSION,
            "c": self.client,
            "q": self._seq,
            "t0": max(0.0, t0),
            "t1": t1,
        }
        if self.link_class:
            report["l"] = self.link_class
        if defs:
            report["d"] = defs
        if counters:
            report["k"] = counters
        if sketches:
            report["h"] = sketches
        return report

    def flush(self) -> Optional[Promise]:
        """Build and queue a report now; ``None`` when nothing changed."""
        report = self.build_report()
        if report is None:
            return None
        return self._ship(report)

    def _ship(self, report: dict) -> Promise:
        seq = int(report["q"])
        self._unacked[seq] = report
        epoch = self._epoch
        promise = self.access.telemetry(
            self.authority, report, priority=self.priority
        )
        self.reports_sent += 1
        promise.then(lambda reply: self._on_ack(epoch, seq, reply))
        promise.on_failure(lambda reason: self._on_failed(epoch, seq))
        return promise

    def _on_ack(self, epoch: int, seq: int, reply: dict) -> None:
        if epoch != self._epoch:
            return
        report = self._unacked.pop(seq, None)
        self.reports_acked += 1
        if report is not None:
            for wire_id, __ in report.get("d", []):
                self._defined.add(int(wire_id))

    def _on_failed(self, epoch: int, seq: int) -> None:
        """Terminal scheduler failure: re-ship the same payload, same seq.

        The retry keeps its original sequence number (idempotent at
        the aggregator if the first copy did land) and is flagged
        ``r`` so the fold rule leaves it alone.
        """
        if epoch != self._epoch:
            return
        report = self._unacked.get(seq)
        if report is None:
            return
        retry = dict(report)
        retry["r"] = 1
        self._unacked[seq] = retry
        self.reports_reshipped += 1
        promise = self.access.telemetry(self.authority, retry, priority=self.priority)
        promise.then(lambda reply: self._on_ack(epoch, seq, reply))
        promise.on_failure(lambda reason: self._on_failed(epoch, seq))

    # -- ground truth for exactness checks --------------------------------------

    def ground_truth(self) -> dict[str, int]:
        """Cumulative integer counters, keyed exactly as shipped.

        Captured in the same simulation instant as a final
        :meth:`flush`, this is what the aggregator's per-client totals
        must equal once every report drains — the E15 exactness check.
        """
        registry = self.obs.registry
        out: dict[str, int] = {}
        for metric in registry.metrics():
            for labelvalues, child in metric.children():
                if not isinstance(child, CounterChild):
                    continue
                current = int(child.value)
                if current:
                    key = self._series_key(
                        metric.name, metric.labelnames, labelvalues
                    )
                    out[key] = out.get(key, 0) + current
        return out
