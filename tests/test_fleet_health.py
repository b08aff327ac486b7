"""SLO rules, the health layer and exposition."""

import io
import json

import pytest

from repro.obs import Observatory
from repro.obs.fleet.aggregator import FleetAggregator
from repro.obs.fleet.expo import (
    fleet_rows,
    render_prometheus,
    write_fleet_jsonl,
)
from repro.obs.fleet.sketch import LogSketch
from repro.obs.fleet.slo import (
    DEFAULT_SLO_RULES,
    SLOError,
    SLORule,
    parse_rules,
)
from repro.sim import Simulator


class TestSLOParsing:
    def test_percentile_rule(self):
        rule = SLORule.parse("p95 qrpc_latency_seconds <= 30")
        assert rule.stat == "p95"
        assert rule.metric == "qrpc_latency_seconds"
        assert rule.op == "<="
        assert rule.threshold == 30.0

    def test_ratio_rule_takes_two_metrics(self):
        rule = SLORule.parse("ratio a_total b_total < 0.5")
        assert rule.metric == "a_total"
        assert rule.denominator == "b_total"

    @pytest.mark.parametrize("line", [
        "p95 x",                      # too short
        "p42 x <= 1",                 # unknown stat
        "total x != 1",               # unknown comparator
        "total x <= lots",            # bad threshold
        "ratio a <= 0.5",             # ratio needs two metrics
        "p95 x <= 1 extra",           # trailing garbage
    ])
    def test_malformed_rules_rejected(self, line):
        with pytest.raises(SLOError):
            SLORule.parse(line)

    def test_parse_rules_skips_blanks_and_comments(self):
        rules = parse_rules(["", "# comment", "total x_total <= 0"])
        assert len(rules) == 1
        assert rules[0].stat == "total"

    def test_check_none_conforms_vacuously(self):
        rule = SLORule.parse("p99 x <= 1")
        assert rule.check(None) is True
        assert rule.check(0.5) is True
        assert rule.check(2.0) is False

    def test_default_rules_parse(self):
        assert len(parse_rules(list(DEFAULT_SLO_RULES))) == 4


def apply_synthetic(agg, client, seq, delivered, failed, retrans, rtts,
                    t1=10.0):
    sketch = LogSketch()
    sketch.observe_many(rtts)
    agg.apply_report({
        "v": 1, "c": client, "q": seq, "t0": 0.0, "t1": t1, "l": "wavelan-2m",
        "d": [
            [1, "sched_delivered_total"],
            [2, "qrpc_failed_total"],
            [3, "sched_retransmissions_total"],
            [4, "qrpc_latency_seconds{op=invoke}"],
        ],
        "k": [[1, delivered], [2, failed], [3, retrans]],
        "h": [[4, sketch.to_wire()]],
    })


class TestHealth:
    def _agg(self, rules=("ratio qrpc_failed_total sched_delivered_total <= 0.1",
                          "p95 qrpc_latency_seconds <= 5")):
        return FleetAggregator(
            Simulator(), slo_rules=list(rules), silent_after_s=100.0
        )

    def test_link_quality_estimates(self):
        agg = self._agg()
        apply_synthetic(agg, "c0", 1, delivered=8, failed=2, retrans=4,
                        rtts=[0.1] * 19 + [20.0])
        health = agg.evaluate_health(now=10.0)
        entry = health["c0"]
        assert entry.delivery_rate == pytest.approx(0.8)
        assert entry.retransmit_ratio == pytest.approx(0.5)
        assert entry.rtt_p50 < 1.0 < entry.rtt_p99
        # failed/delivered = 0.25 > 0.1 and p95 fine: one violation.
        assert not entry.healthy
        assert len(entry.violations) == 1
        assert "qrpc_failed_total" in entry.violations[0]

    def test_degrade_then_recover_events(self):
        agg = self._agg()
        apply_synthetic(agg, "c0", 1, delivered=5, failed=5, retrans=0,
                        rtts=[0.1])
        agg.evaluate_health(now=10.0)
        # More traffic dilutes the failure ratio below threshold.
        apply_synthetic(agg, "c0", 2, delivered=200, failed=0, retrans=0,
                        rtts=[0.1])
        agg.evaluate_health(now=20.0)
        kinds = [e.kind for e in agg.events]
        assert kinds == ["degraded", "recovered"]

    def test_silent_client_flagged(self):
        agg = self._agg(rules=())
        # Apply at simulated t=10 so last_report_at is meaningful.
        agg.sim.schedule_at(
            10.0,
            lambda: apply_synthetic(agg, "c0", 1, delivered=5, failed=0,
                                    retrans=0, rtts=[0.1], t1=10.0),
        )
        agg.sim.run()
        assert agg.evaluate_health(now=50.0)["c0"].healthy
        late = agg.evaluate_health(now=500.0)["c0"]
        assert late.silent and not late.healthy
        assert [e.kind for e in agg.events] == ["silent", "degraded"]
        # Reporting again clears the silence.
        agg.sim.schedule_at(
            505.0,
            lambda: apply_synthetic(agg, "c0", 2, delivered=1, failed=0,
                                    retrans=0, rtts=[0.1], t1=500.0),
        )
        agg.sim.run()
        again = agg.evaluate_health(now=510.0)["c0"]
        assert not again.silent and again.healthy

    def test_worst_clients_ranking(self):
        agg = self._agg()
        apply_synthetic(agg, "good", 1, delivered=100, failed=0, retrans=0,
                        rtts=[0.1])
        apply_synthetic(agg, "bad", 1, delivered=2, failed=8, retrans=2,
                        rtts=[30.0])
        agg.evaluate_health(now=10.0)
        worst = agg.worst_clients(2)
        assert worst[0].client == "bad"
        assert worst[1].client == "good"
        assert agg.summary()["unhealthy"] == 1


class TestExposition:
    def test_render_prometheus(self):
        obs = Observatory()
        counter = obs.registry.counter("x_total", "help text",
                                       labelnames=("kind",))
        counter.labels(kind="a").inc(3)
        hist = obs.registry.histogram("lat_seconds", "latency")
        hist.labels().observe(0.05)
        hist.labels().observe(5.0)
        text = render_prometheus(obs.registry)
        assert "# HELP x_total help text" in text
        assert "# TYPE x_total counter" in text
        assert 'x_total{kind=a} 3' in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text

    def test_fleet_gauges_exported(self):
        agg = FleetAggregator(Simulator())
        apply_synthetic(agg, "c0", 1, delivered=1, failed=0, retrans=0,
                        rtts=[0.1])
        text = render_prometheus(agg.obs.registry)
        assert "fleet_clients 1" in text
        assert "fleet_reports_applied_total 1" in text
        assert "fleet_open_gaps 0" in text

    def test_jsonl_round_trips(self):
        agg = FleetAggregator(Simulator())
        apply_synthetic(agg, "c0", 1, delivered=4, failed=1, retrans=0,
                        rtts=[0.1, 0.2])
        agg.evaluate_health(now=10.0)
        out = io.StringIO()
        count = write_fleet_jsonl(agg, out)
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(lines) == count
        kinds = {row["kind"] for row in lines}
        assert {"summary", "client", "window"} <= kinds
        client_row = next(r for r in lines if r["kind"] == "client")
        assert client_row["client"] == "c0"
        assert client_row["totals"]["sched_delivered_total"] == 4
        assert client_row["healthy"] is True
