"""Fleet telemetry: metric shipping, aggregation, and SLO health.

``repro.obs`` (the local Observatory) sees one process; this package
sees the fleet.  It *dogfoods the toolkit*: every client periodically
folds its local metric registry into a compact delta report and ships
it as a background-priority QRPC through its own
:class:`~repro.core.access_manager.AccessManager` — so telemetry rides
the operation log (surviving crashes and disconnection), drains behind
foreground traffic, and successive undelivered reports fold into one
(:func:`fold_reports`, applied by :mod:`repro.perf.compact`).  The serving
tier runs a :class:`FleetAggregator` that applies reports idempotently
by ``(client, seq)``, keeps time-windowed rollups in bounded ring
buffers, and derives per-client link quality, SLO conformance, and
health events.

Pieces:

* :mod:`repro.obs.fleet.sketch` — :class:`LogSketch`, the mergeable
  log-bucketed histogram summary reports carry on the wire;
* :mod:`repro.obs.fleet.report` — :class:`TelemetryReporter` (client
  side) and :func:`fold_reports` (what compaction folds reports with);
* :mod:`repro.obs.fleet.aggregator` — :class:`FleetAggregator`,
  :class:`WindowRing`;
* :mod:`repro.obs.fleet.slo` — declarative :class:`SLORule` parsing
  and evaluation, :class:`HealthEvent`;
* :mod:`repro.obs.fleet.expo` — Prometheus-style text exposition and
  JSONL export;
* :mod:`repro.obs.fleet.sim` — :class:`FleetScenario`, the 1k-client
  simulation behind benchmark E15 and the CLI;
* ``python -m repro.obs.fleet`` — fleet summary table, top-K worst
  clients, per-window timeline.
"""

from __future__ import annotations

from repro.obs.fleet.aggregator import FleetAggregator, WindowRing
from repro.obs.fleet.report import TelemetryReporter, fold_reports
from repro.obs.fleet.sketch import LogSketch
from repro.obs.fleet.slo import DEFAULT_SLO_RULES, HealthEvent, SLORule

__all__ = [
    "DEFAULT_SLO_RULES",
    "FleetAggregator",
    "HealthEvent",
    "LogSketch",
    "SLORule",
    "TelemetryReporter",
    "WindowRing",
    "fold_reports",
]
