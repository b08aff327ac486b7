"""Unified observability for the QRPC pipeline (``repro.obs``).

The toolkit's evaluation hinges on *attributing* time inside the
pipeline, not just summing it: the paper's claims ("log overhead is
dwarfed by communication cost on low-bandwidth networks", local RDO
invocation orders of magnitude faster than RPC) are all statements
about individual stages.  This package provides:

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  with labels, grouped in a :class:`MetricsRegistry`;
* :mod:`repro.obs.trace` — per-request spans (``log.append``,
  ``queue.wait``, ``route.select``, ``link.transmit``, ``retransmit``,
  ``server.execute``, ``reply.deliver``) under a ``qrpc`` root, with
  the trace context propagated on the QRPC envelope;
* :mod:`repro.obs.export` — JSONL dump/reload, p50/p95/p99 stage
  summaries, and timeline lanes.

An :class:`Observatory` bundles one registry and one tracer.  Every
testbed owns a private Observatory (``bed.obs``) so scenarios in one
process stay isolated; components built outside a testbed default to
a private Observatory of their own unless one is passed in.  The
bench CLI installs a *capture* Observatory
(:func:`set_capture`) which ``build_testbed`` picks up so a whole
experiment run lands in one trace dump::

    python -m repro.bench --trace-out /tmp/e2.jsonl --metrics e2
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.trace import TRACE_KEY, Span, Tracer, parse_context
from repro.obs import export


class Observatory:
    """One registry plus one tracer — the unit of isolation."""

    def __init__(self, tracing: bool = False) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(enabled=tracing)

    @property
    def spans(self) -> list[Span]:
        return self.tracer.spans

    def snapshot(self) -> dict[str, float]:
        """Flat series view; histograms include ``_p50/_p95/_p99``."""
        return self.registry.snapshot()

    def summary_table(self, include_metrics: bool = True) -> str:
        """Span-stage summary plus (by default) histogram percentiles.

        The trace table attributes time to pipeline stages; the
        histogram section reports count/sum/p50/p95/p99 per labelled
        series — the local twin of the fleet rollups
        (:mod:`repro.obs.fleet`), so one client's view matches what
        the aggregator reconstructs from its shipped sketches.
        """
        table = export.summary_table(self.tracer.spans)
        if not include_metrics:
            return table
        metrics = export.histogram_table(self.registry)
        if not metrics:
            return table
        if table == "(no spans recorded)":
            return metrics
        return f"{table}\n\n{metrics}"


_capture: Optional[Observatory] = None


def set_capture(obs: Optional[Observatory]) -> None:
    """Install (or clear, with ``None``) the process-wide capture
    Observatory every testbed built meanwhile adopts — how the bench
    CLI traces experiments that build their testbeds internally, and
    the one way to hand a bed an Observatory of one's own."""
    global _capture
    _capture = obs


def active_capture() -> Optional[Observatory]:
    return _capture


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observatory",
    "Span",
    "TRACE_KEY",
    "Tracer",
    "active_capture",
    "export",
    "parse_context",
    "percentile",
    "set_capture",
]
