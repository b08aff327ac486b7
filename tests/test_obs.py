"""The observability layer: metrics math, trace integrity, exporters,
and the zero-cost-when-disabled guarantee."""

import math

import pytest

import dataclasses

from repro.net.link import CSLIP_14_4, ETHERNET_10M, IntervalTrace
from repro.obs import Observatory, active_capture, set_capture
from repro.obs.export import (
    check_trace,
    complete_traces,
    read_jsonl,
    stage_lanes,
    summary,
    summary_table,
    write_jsonl,
)
from repro.obs.metrics import MetricError, MetricsRegistry, percentile
from repro.obs.trace import Tracer, parse_context
from repro.testbed import build_testbed
from tests.conftest import make_note


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestPercentiles:
    def test_linear_interpolation(self):
        assert percentile([10, 20, 30, 40], 50) == 25.0
        assert percentile([10, 20, 30, 40], 0) == 10.0
        assert percentile([10, 20, 30, 40], 100) == 40.0
        assert percentile([5], 95) == 5

    def test_order_independent(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        assert percentile(values, 50) == percentile(sorted(values), 50)

    def test_uniform_hundred(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 95) == pytest.approx(95.05)
        assert percentile(values, 99) == pytest.approx(99.01)

    def test_histogram_child_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", "test").default
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.sum == pytest.approx(5050.0)
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(99) == pytest.approx(99.01)


class TestRegistry:
    def test_reregistration_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("ops_total", "ops")
        b = registry.counter("ops_total", "ops")
        assert a is b

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "ops")
        with pytest.raises(MetricError):
            registry.gauge("ops_total", "ops")

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "ops").default
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_function_gauge_is_live(self):
        registry = MetricsRegistry()
        box = {"n": 1}
        registry.gauge("depth", "d").default.set_function(lambda: box["n"])
        assert registry.snapshot()["depth"] == 1
        box["n"] = 7
        assert registry.snapshot()["depth"] == 7


# ---------------------------------------------------------------------------
# exporter round-trip
# ---------------------------------------------------------------------------


def test_jsonl_roundtrip(tmp_path):
    tracer = Tracer(enabled=True)
    root = tracer.start_trace("qrpc", start=0.0, op="import", host="client")
    tracer.record(
        "log.append", (root.trace_id, root.span_id), start=0.0, end=0.015
    )
    tracer.finish(root, end=0.4)
    path = str(tmp_path / "trace.jsonl")
    assert write_jsonl(tracer.spans, path) == 2
    reloaded = read_jsonl(path)
    assert [s.to_wire() for s in reloaded] == [s.to_wire() for s in tracer.spans]


def test_parse_context_rejects_garbage():
    assert parse_context(None) is None
    assert parse_context("t1") is None
    assert parse_context([1, 2]) is None
    assert parse_context(["t1", "s1", "extra"]) is None
    assert parse_context(["t1", "s1"]) == ("t1", "s1")


# ---------------------------------------------------------------------------
# metrics isolation
# ---------------------------------------------------------------------------


def test_two_testbeds_do_not_share_counters():
    """Two beds in one process keep separate registries: traffic on one
    must not leak into the other's series."""
    bed_a = build_testbed(link_spec=ETHERNET_10M)
    bed_b = build_testbed(link_spec=ETHERNET_10M)
    assert bed_a.obs is not bed_b.obs

    bed_a.server.put_object(make_note())
    bed_a.access.import_("urn:rover:server/notes/n1")
    assert bed_a.access.drain(timeout=60)

    assert bed_a.scheduler.delivered == 1
    assert bed_b.scheduler.delivered == 0
    snap_b = bed_b.obs.snapshot()
    assert all(v == 0 for k, v in snap_b.items() if k.startswith("sched_"))


def test_capture_observatory_is_adopted_by_testbeds():
    obs = Observatory(tracing=True)
    set_capture(obs)
    try:
        assert active_capture() is obs
        bed = build_testbed(link_spec=ETHERNET_10M)
        assert bed.obs is obs
    finally:
        set_capture(None)
    assert active_capture() is None


# ---------------------------------------------------------------------------
# tracing end to end
# ---------------------------------------------------------------------------


def _import_one(bed, urn="urn:rover:server/notes/n1", timeout=60):
    bed.server.put_object(make_note())
    promise = bed.access.import_(urn)
    assert bed.access.drain(timeout=timeout)
    return promise


def test_trace_covers_every_stage():
    bed = build_testbed(link_spec=CSLIP_14_4, trace=True)
    _import_one(bed)
    traces = complete_traces(bed.obs.spans)
    assert len(traces) == 1
    (members,) = traces.values()
    report = check_trace(members)
    assert report["ok"]
    stages = {span.name for span in members}
    assert stages == {
        "qrpc",
        "log.append",
        "queue.wait",
        "route.select",
        "link.transmit",
        "server.execute",
        "reply.deliver",
    }
    # Both wire directions are covered: request and reply transmits.
    assert sum(1 for s in members if s.name == "link.transmit") == 2
    # Every span carries the network-config grouping attribute.
    assert all(s.attrs.get("link") == CSLIP_14_4.name for s in members)


def test_log_append_is_small_fraction_of_transmit_on_cslip():
    """The paper's E2 claim, read off the trace itself: on CSLIP 14.4
    the stable-log flush is well under 10% of the wire time."""
    bed = build_testbed(link_spec=CSLIP_14_4, trace=True)
    _import_one(bed)
    log_s = sum(s.duration for s in bed.obs.spans if s.name == "log.append")
    wire_s = sum(s.duration for s in bed.obs.spans if s.name == "link.transmit")
    assert log_s > 0 and wire_s > 0
    assert log_s < 0.10 * wire_s


def test_trace_integrity_across_disconnect_reconnect():
    """A QRPC queued while the link is down keeps one coherent trace:
    it waits out the outage, and the spans still fit inside the root."""
    bed = build_testbed(
        link_spec=CSLIP_14_4,
        policy=IntervalTrace([(0.0, 1.0), (120.0, 1e9)]),
        trace=True,
    )
    bed.server.put_object(make_note())
    bed.sim.run(until=10)  # link now down
    assert not bed.link.is_up
    bed.access.import_("urn:rover:server/notes/n1")
    assert bed.access.drain(timeout=600)

    traces = complete_traces(bed.obs.spans)
    assert len(traces) == 1
    (members,) = traces.values()
    report = check_trace(members)
    assert report["ok"]
    by_name = {}
    for span in members:
        by_name.setdefault(span.name, []).append(span)
    # The queue.wait span absorbed the outage: it spans the downtime
    # and ends after the reconnection at t=120.
    assert max(s.duration for s in by_name["queue.wait"]) > 100.0
    assert by_name["qrpc"][0].end > 120.0


def test_trace_integrity_across_retransmissions():
    """Packet loss exercises the retry path: retransmit spans record
    each backoff, repeated dispatch attempts each get a queue.wait
    span, and the trace still checks out."""
    lossy = dataclasses.replace(CSLIP_14_4, name="cslip-lossy", loss_rate=0.6)
    bed = build_testbed(link_spec=lossy, trace=True, seed=3)
    bed.server.put_object(make_note())
    bed.access.import_("urn:rover:server/notes/n1")
    assert bed.access.drain(timeout=3_600)

    traces = complete_traces(bed.obs.spans)
    assert len(traces) == 1
    (members,) = traces.values()
    assert check_trace(members)["ok"]
    by_name = {}
    for span in members:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["retransmit"]) >= 1
    assert len(by_name["queue.wait"]) == len(by_name["retransmit"]) + 1
    assert bed.scheduler.retransmissions >= 1


def test_no_spans_when_tracing_disabled():
    bed = build_testbed(link_spec=ETHERNET_10M)  # tracing off by default
    _import_one(bed)
    assert bed.obs.spans == []
    assert not bed.obs.tracer.enabled


def test_disabled_tracing_costs_zero_virtual_time():
    """With tracing off, observability must not perturb the simulation
    at all: metrics-only beds on a fresh and on a captured observatory
    finish at the bit-identical virtual instant.  With tracing ON, the trace context
    rides the wire (bigger envelopes), so latency may shift — but it
    must stay within the 5% budget."""
    ends = []
    for capture in (None, Observatory()):
        set_capture(capture)
        try:
            bed = build_testbed(link_spec=CSLIP_14_4)
        finally:
            set_capture(None)
        _import_one(bed)
        ends.append(bed.sim.now)
    assert ends[0] == ends[1]

    traced = build_testbed(link_spec=CSLIP_14_4, trace=True)
    _import_one(traced)
    assert traced.sim.now == pytest.approx(ends[0], rel=0.05)


# ---------------------------------------------------------------------------
# summary + lanes
# ---------------------------------------------------------------------------


def test_summary_groups_by_link_attr():
    spans = []
    for spec in (ETHERNET_10M, CSLIP_14_4):
        bed = build_testbed(link_spec=spec, trace=True)
        _import_one(bed)
        spans.extend(bed.obs.spans)
    rows = summary(spans)
    groups = {row["group"] for row in rows}
    assert groups == {ETHERNET_10M.name, CSLIP_14_4.name}
    qrpc_rows = {r["group"]: r for r in rows if r["stage"] == "qrpc"}
    assert qrpc_rows[CSLIP_14_4.name]["p50_s"] > qrpc_rows[ETHERNET_10M.name]["p50_s"]
    assert CSLIP_14_4.name in summary_table(spans)


def test_stage_lanes_mark_activity():
    bed = build_testbed(link_spec=CSLIP_14_4, trace=True)
    _import_one(bed)
    lanes = stage_lanes(bed.obs.spans, 0.0, bed.sim.now, width=40)
    assert set(lanes) >= {"qrpc", "link.transmit", "log.append"}
    assert all(len(lane) == 40 for lane in lanes.values())
    assert "#" in lanes["qrpc"]
    # The root span covers the whole QRPC, so its lane has at least as
    # many active columns as any stage's.
    assert lanes["qrpc"].count("#") >= lanes["link.transmit"].count("#")


# ---------------------------------------------------------------------------
# scheduler + server stats surfaces
# ---------------------------------------------------------------------------


def test_scheduler_stats_shape_and_values():
    bed = build_testbed(link_spec=ETHERNET_10M)
    stats = bed.scheduler.stats()
    assert set(stats) == {
        "queued", "inflight", "delivered", "failed",
        "retransmissions", "batches_sent",
    }
    assert set(stats["queued"]) == {"foreground", "default", "background"}
    _import_one(bed)
    stats = bed.scheduler.stats()
    assert stats["delivered"] == 1
    assert stats["inflight"] == 0
    assert all(depth == 0 for depth in stats["queued"].values())


def test_qrpc_latency_histogram_feeds_registry():
    bed = build_testbed(link_spec=ETHERNET_10M)
    _import_one(bed)
    snap = bed.obs.snapshot()
    key = "qrpc_latency_seconds{host=client,op=import}"
    assert snap[f"{key}_count"] == 1
    assert snap[f"{key}_sum"] > 0
    assert not math.isnan(snap[f"{key}_p50"])


# ---------------------------------------------------------------------------
# label-cardinality cap + percentile tables (fleet-telemetry satellites)
# ---------------------------------------------------------------------------


def test_label_cardinality_cap_enforced():
    registry = MetricsRegistry()
    counter = registry.counter("tiny_total", "capped", labelnames=("k",),
                               max_children=3)
    for i in range(3):
        counter.labels(k=f"v{i}").inc()
    with pytest.raises(MetricError):
        counter.labels(k="v3").inc()
    # Existing children keep working; the cap only blocks new series.
    counter.labels(k="v0").inc()
    assert counter.labels(k="v0").value == 2


def test_default_cardinality_cap_is_bounded():
    from repro.obs.metrics import DEFAULT_MAX_CHILDREN

    registry = MetricsRegistry()
    gauge = registry.gauge("g", "default cap", labelnames=("k",))
    assert gauge.max_children == DEFAULT_MAX_CHILDREN


def test_histogram_table_reports_percentiles():
    from repro.obs.export import histogram_rows, histogram_table

    obs = Observatory()
    hist = obs.registry.histogram("lat_seconds", "latency",
                                  labelnames=("op",))
    for v in (0.1, 0.2, 0.3, 0.4, 10.0):
        hist.labels(op="load").observe(v)
    rows = histogram_rows(obs.registry)
    assert len(rows) == 1
    row = rows[0]
    assert row["series"] == "lat_seconds{op=load}"
    assert row["count"] == 5
    assert row["p50_s"] == pytest.approx(0.3)
    # The exact-percentile estimator interpolates toward the max.
    assert 0.4 < row["p99_s"] <= 10.0
    table = histogram_table(obs.registry)
    assert "lat_seconds{op=load}" in table and "p95" in table
    # The Observatory summary embeds the same percentile section.
    assert "p95" in obs.summary_table()
    assert "lat_seconds" not in obs.summary_table(include_metrics=False)
