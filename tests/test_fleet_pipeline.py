"""Fleet telemetry pipeline: reporter, fold rule, idempotent aggregation.

End-to-end over a small testbed plus unit coverage of the pieces the
thousand-client benchmark leans on: dictionary-coded delta reports,
queue-time folding, (client, seq) idempotency with out-of-order and
deferred application, and hash-seed-independent marshal bytes.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.net.link import ETHERNET_10M, IntervalTrace
from repro.obs.fleet.aggregator import FleetAggregator, WindowRing
from repro.obs.fleet.report import TelemetryReporter, fold_reports
from repro.obs.fleet.sketch import LogSketch
from repro.sim import Simulator
from repro.testbed import build_multi_client_testbed

PING_CODE = '''
def bump(state):
    state["n"] = state["n"] + 1
    return state["n"]
'''

PING_INTERFACE = RDOInterface([MethodSpec("bump", mutates=True)])


def build_fleet_bed(n=2, policies=None, **bed_kwargs):
    bed = build_multi_client_testbed(
        n,
        link_spec=ETHERNET_10M,
        policies=policies,
        per_client_obs=True,
        **bed_kwargs,
    )
    for index in range(n):
        urn = URN(bed.server.authority, f"obj/{index}")
        bed.server.put_object(
            RDO(urn, "ping", {"n": 0}, code=PING_CODE,
                interface=PING_INTERFACE)
        )
    aggregator = FleetAggregator(bed.sim, obs=bed.obs, server=bed.server)
    aggregator.register(bed.server_transport)
    reporters = [
        TelemetryReporter(
            stack.access, bed.server.authority, obs=stack.obs, interval_s=30.0
        )
        for stack in bed.clients
    ]
    return bed, aggregator, reporters


def run_workload(bed, invokes=3):
    for index, stack in enumerate(bed.clients):
        urn = f"urn:rover:{bed.server.authority}/obj/{index}"
        stack.access.import_(urn)
        for __ in range(invokes):
            stack.access.invoke_remote(urn, "bump", [])
    bed.sim.run(until=bed.sim.now + 60.0)


class TestEndToEnd:
    def test_totals_match_ground_truth(self):
        bed, aggregator, reporters = build_fleet_bed()
        run_workload(bed)
        truths = {}
        for stack, reporter in zip(bed.clients, reporters):
            truths[stack.host.name] = reporter.ground_truth()
            reporter.flush()
        bed.sim.run(until=bed.sim.now + 60.0)
        for stack in bed.clients:
            client = stack.host.name
            assert aggregator.client_totals(client) == truths[client]
        assert aggregator.reports_applied() == len(bed.clients)
        assert aggregator.summary()["open_gaps"] == 0

    def test_transport_counters_ship_what_the_transport_counts(self):
        """``transport_bytes_sent_total`` and ``_messages_sent_total`` are
        live views of the transport's two plain counts: each report
        ships their growth since the last, and the ground truth is the
        transport's own figure."""
        bed, aggregator, reporters = build_fleet_bed(n=1)
        (stack,), reporter = bed.clients, reporters[0]
        transport = stack.transport
        shipped = {"transport_bytes_sent_total": 0, "transport_messages_sent_total": 0}
        for _ in range(2):
            run_workload(bed)
            report = reporter.build_report()
            counted = {
                "transport_bytes_sent_total": transport.bytes_sent,
                "transport_messages_sent_total": transport.messages_sent,
            }
            key_of = {wire_id: key for key, wire_id in reporter._ids.items()}
            deltas = {key_of[wire_id]: delta for wire_id, delta in report["k"]}
            for name, total in counted.items():
                assert deltas[name] == total - shipped[name] > 0
                shipped[name] = total
            reporter._ship(report)
            bed.sim.run(until=bed.sim.now + 30.0)
        truth = reporter.ground_truth()
        assert truth["transport_bytes_sent_total"] == transport.bytes_sent
        assert truth["transport_messages_sent_total"] == transport.messages_sent
        assert not reporter._unacked

    def test_dictionary_coding_defines_once(self):
        bed, aggregator, reporters = build_fleet_bed(n=1)
        reporter = reporters[0]
        run_workload(bed)
        first = reporter.build_report()
        assert first["d"], "first report must carry definitions"
        reporter._ship(first)
        bed.sim.run(until=bed.sim.now + 30.0)
        assert not reporter._unacked
        run_workload(bed)
        second = reporter.build_report()
        defined = {wire_id for wire_id, __ in first["d"]}
        # Ids acked in the first report are never redefined.
        for wire_id, __ in second.get("d", []):
            assert wire_id not in defined

    def test_empty_registry_ships_nothing(self):
        from repro.obs import Observatory

        bed, aggregator, reporters = build_fleet_bed(n=1)
        # A reporter over a registry with no activity has no delta to
        # ship (shipping telemetry itself bumps the client's transport
        # counters, so the live registry always has a next delta).
        idle = TelemetryReporter(
            bed.clients[0].access, bed.server.authority, obs=Observatory()
        )
        assert idle.build_report() is None
        assert idle.flush() is None


class TestFold:
    def _report(self, seq, counters, c="client-0", folded=(), reshipped=False):
        report = {
            "v": 1, "c": c, "q": seq, "t0": 0.0, "t1": float(seq),
            "k": [[i, v] for i, v in counters],
        }
        if folded:
            report["f"] = list(folded)
        if reshipped:
            report["r"] = 1
        return report

    def test_fold_adds_deltas_and_records_coverage(self):
        a = self._report(1, [(1, 5), (2, 1)])
        a["d"] = [[1, "x_total"], [2, "y_total"]]
        a["h"] = [[3, LogSketch().to_wire()]]
        b = self._report(2, [(1, 3)], folded=())
        out = fold_reports(a, b)
        assert out["q"] == 2
        assert out["f"] == [1]
        assert dict((i, v) for i, v in out["k"]) == {1: 8, 2: 1}
        assert out["d"] == [[1, "x_total"], [2, "y_total"]]
        assert [i for i, __ in out["h"]] == [3]

    def test_fold_chain_covers_every_seq(self):
        a = self._report(1, [(1, 1)])
        b = self._report(2, [(1, 1)])
        c = self._report(3, [(1, 1)])
        out = fold_reports(fold_reports(a, b), c)
        assert out["f"] == [1, 2]
        assert out["k"] == [[1, 3]]

    def _queued_offline(self, n=1):
        """``n`` clients whose link is down from 1 s on, and their reports'
        authority."""
        offline = IntervalTrace([(0.0, 1.0), (1e8, 1e9)])
        bed, __, __ = build_fleet_bed(n=n, policies=[offline] * n)
        bed.sim.run(until=2.0)
        return bed.clients, bed.server.authority

    def test_rule_matches_only_same_client_telemetry(self):
        """Each client's reports fold in its own queue: a survivor names
        its own client and covers that client's sequence numbers only."""
        clients, authority = self._queued_offline(n=2)
        for stack in clients:
            for seq in (1, 2, 3):
                report = self._report(seq, [(1, 1)], c=stack.host.name)
                stack.access.telemetry(authority, report)
        for stack in clients:
            (survivor,) = stack.access.log.pending()
            assert survivor.args["c"] == stack.host.name
            assert (survivor.args["q"], survivor.args["f"]) == (3, [1, 2])

    def test_rule_refuses_reshipped_reports(self):
        """A re-ship keeps its first copy's seq, which the aggregator may
        hold: it is never folded, and nothing folds across it."""
        (stack,), authority = self._queued_offline()
        for seq, reshipped in ((1, False), (2, True), (3, False), (4, False)):
            report = self._report(seq, [(1, 1)], c=stack.host.name, reshipped=reshipped)
            stack.access.telemetry(authority, report)
        assert [(r.args["q"], r.args.get("f")) for r in stack.access.log.pending()] == [
            (1, None), (2, None), (4, [3]),
        ]


class TestAggregator:
    def _agg(self, **kwargs):
        return FleetAggregator(Simulator(), **kwargs)

    def _report(self, seq, value=1, c="client-0", t1=None, folded=()):
        report = {
            "v": 1, "c": c, "q": seq, "t0": 0.0,
            "t1": float(seq * 10 if t1 is None else t1), "l": "ethernet-10m",
            "d": [[1, "x_total"]], "k": [[1, value]],
        }
        if folded:
            report["f"] = list(folded)
        return report

    def test_duplicate_suppressed(self):
        agg = self._agg()
        first = agg.apply_report(self._report(1, value=5))
        again = agg.apply_report(self._report(1, value=5))
        assert first == {"status": "ok", "seq": 1}
        assert again["dup"] is True
        assert agg.client_totals("client-0") == {"x_total": 5}
        assert agg.duplicates() == 1

    def test_out_of_order_applies_and_heals_gap(self):
        agg = self._agg()
        agg.apply_report(self._report(1))
        agg.apply_report(self._report(3))
        assert agg.clients["client-0"].missing() == 1
        assert [e.kind for e in agg.events] == ["gap"]
        agg.apply_report(self._report(2))
        assert agg.clients["client-0"].missing() == 0
        assert agg.clients["client-0"].floor == 3
        assert [e.kind for e in agg.events] == ["gap", "gap_healed"]
        assert agg.client_totals("client-0") == {"x_total": 3}

    def test_folded_seqs_count_applied_not_missing(self):
        agg = self._agg()
        agg.apply_report(self._report(3, value=3, folded=[1, 2]))
        state = agg.clients["client-0"]
        assert state.missing() == 0
        assert state.floor == 3
        # One report applied; two seqs arrived folded inside it.
        assert state.reports_applied == 1
        assert agg.client_totals("client-0") == {"x_total": 3}

    def test_unknown_id_defers_until_definition_arrives(self):
        agg = self._agg()
        # Seq 2 references id 1, but the defining seq 1 is reordered
        # behind it.
        late_def = self._report(1)
        no_def = self._report(2)
        del no_def["d"]
        reply = agg.apply_report(no_def)
        assert reply["deferred"] is True
        assert agg.client_totals("client-0") == {}
        agg.apply_report(late_def)
        assert agg.client_totals("client-0") == {"x_total": 2}
        assert agg.summary()["deferred_waiting"] == 0

    def test_malformed_rejected(self):
        agg = self._agg()
        assert agg.apply_report({})["status"] == "malformed"
        assert agg.apply_report({"c": "x", "q": 0})["status"] == "malformed"

    @pytest.mark.parametrize(
        "report",
        [
            pytest.param({"c": "x", "q": "7"}, id="seq-as-text"),
            pytest.param({"c": "x", "q": True}, id="seq-as-bool"),
            pytest.param({"c": "x", "q": 1, "d": [[1, "a"], ["x", "b"]]}, id="definition-id-as-text"),
            pytest.param({"c": "x", "q": 1, "k": [[1, 2.5]]}, id="counter-delta-as-float"),
            pytest.param({"c": "x", "q": 1, "f": "2"}, id="folded-not-a-list"),
        ],
    )
    def test_a_report_of_another_shape_is_refused_and_applies_nothing(self, report):
        """Read with ``int()``, the first two were applied as seqs 7 and 1,
        and the third left the definition of id 1 behind, then raised."""
        agg = self._agg()
        assert agg.apply_report(report) == {"status": "malformed"}
        assert agg.clients == {} and agg.summary()["deferred_waiting"] == 0

    @pytest.mark.parametrize("t1", [float("inf"), float("nan"), 10**400],
                             ids=["inf", "nan", "huge-int"])
    def test_a_report_whose_time_no_window_holds_counts_as_late(self, t1):
        """``int(t // window_s)`` raised ``ValueError`` or ``OverflowError``
        out of the aggregator after the report's seq was marked applied."""
        agg = self._agg()
        report = {**self._report(1), "t1": t1}
        assert agg.apply_report(report) == {"status": "ok", "seq": 1}
        assert agg.late == 1 and agg.client_totals("client-0") == {"x_total": 1}

    def test_window_rollups_and_late(self):
        agg = self._agg(window_s=10.0, window_count=3)
        agg.apply_report(self._report(1, t1=5.0))
        agg.apply_report(self._report(2, t1=25.0))
        windows = agg.ring.windows()
        assert [w.index for w in windows] == [0, 2]
        assert windows[0].counters == {"x_total": 1}
        assert windows[0].by_link["ethernet-10m"]["reports"] == 1
        # A third client era far in the future evicts window 0; a
        # report landing back there counts as late, not resurrected.
        agg.apply_report(self._report(3, t1=95.0))
        assert agg.apply_report(self._report(4, t1=5.0))["status"] == "ok"
        assert agg.late == 1

    def test_window_ring_bounds(self):
        ring = WindowRing(window_s=10.0, capacity=3)
        for t in (5.0, 15.0, 25.0, 35.0, 45.0):
            assert ring.slot(t) is not None
        assert len(ring) <= 3
        assert ring.slot(5.0) is None
        assert ring.evicted >= 2
        with pytest.raises(ValueError):
            WindowRing(0, 3)


class TestQueueFolding:
    def test_disconnected_reports_fold_and_stay_exact(self):
        # Client 0 disconnects after the workload; three report
        # intervals pass offline, so queued reports fold pairwise.
        policies = [IntervalTrace([(0.0, 50.0), (200.0, 1e9)]), None]
        bed, aggregator, reporters = build_fleet_bed(policies=policies)
        run_workload(bed)
        offline = reporters[0]
        for __ in range(3):
            offline.flush()
            # New foreground work between reports keeps deltas non-empty.
            bed.clients[0].access.invoke_remote(
                f"urn:rover:{bed.server.authority}/obj/0", "bump", []
            )
            bed.sim.run(until=bed.sim.now + 10.0)
        truth = offline.ground_truth()
        offline.flush()
        bed.sim.run(until=400.0)
        client = bed.clients[0].host.name
        assert not offline._unacked
        assert aggregator.client_totals(client) == truth
        state = aggregator.clients[client]
        # Folding happened: fewer reports were applied than shipped
        # seqs, and every folded seq is accounted for (no open gap).
        assert state.reports_applied < offline._seq
        assert state.missing() == 0

    def test_report_whose_reply_was_lost_is_never_folded(self):
        """A report backing off between attempts sits in the queue like
        a fresh one, but the aggregator may hold its first copy (only
        the reply was lost).  Folding it under a later report applied
        its deltas twice: totals ended *above* ground truth."""
        from repro.net.transport import AsyncReply

        bed, aggregator, reporters = build_fleet_bed(n=1, rpc_timeout_s=5.0)
        run_workload(bed)
        (reporter,) = reporters
        access = bed.clients[0].access
        client = bed.clients[0].host.name

        handlers = bed.server_transport._request_handlers
        apply = handlers["rover.telemetry"]
        lost = []

        def lose_first_reply(body, source):
            reply = apply(body, source)
            if not lost:
                lost.append(body)
                return AsyncReply()  # never completed: a reply never sent
            return reply

        handlers["rover.telemetry"] = lose_first_reply
        reporter.flush()
        bed.sim.run(until=bed.sim.now + 5.5)  # applied; reply timed out
        assert lost and reporter._unacked
        applied_once = aggregator.clients[client].reports_applied

        # New work and a second report while the first backs off: the
        # queue-time compaction pass sees both side by side.
        urn = f"urn:rover:{bed.server.authority}/obj/0"
        access.invoke_remote(urn, "bump", [])
        bed.sim.run(until=bed.sim.now + 0.2)
        truth = reporter.ground_truth()
        reporter.flush()
        bed.sim.run(until=bed.sim.now + 120.0)

        assert not reporter._unacked
        assert aggregator.client_totals(client) == truth
        state = aggregator.clients[client]
        assert state.duplicates == 1  # the retry, recognized as such
        assert state.reports_applied == applied_once + 1


    def test_terminally_failed_report_is_reshipped_under_its_own_seq(self):
        """Once the scheduler gives a report up unanswered, the reporter
        ships the same payload again under the same sequence number,
        flagged as a retry; it is applied once and the totals stay exact."""
        from repro.net.transport import AsyncReply

        bed, aggregator, reporters = build_fleet_bed(n=1, rpc_timeout_s=5.0)
        run_workload(bed)
        (reporter,) = reporters
        stack = bed.clients[0]
        client = stack.host.name
        stack.scheduler.max_attempts = 2
        handlers = bed.server_transport._request_handlers
        apply = handlers["rover.telemetry"]
        seen = []

        def silent_twice(body, source):
            seen.append(body)
            if len(seen) <= 2:
                return AsyncReply()  # never completed: no answer at all
            return apply(body, source)

        handlers["rover.telemetry"] = silent_twice
        truth = reporter.ground_truth()
        reporter.flush()
        bed.sim.run(until=bed.sim.now + 60.0)

        assert stack.scheduler.failed == 1 and reporter.reports_reshipped == 1
        assert [body.get("r") for body in seen] == [None, None, 1]
        assert len({body["q"] for body in seen}) == 1
        assert not reporter._unacked and reporter.reports_acked == 1
        assert aggregator.client_totals(client) == truth
        state = aggregator.clients[client]
        assert state.reports_applied == 1 and state.duplicates == 0 and state.missing() == 0

    @pytest.mark.parametrize("answer", ["unauthorized", "raises"])
    def test_a_report_refused_by_an_answer_is_dropped_not_reshipped(self, answer):
        """Only silence loses a report.  An aggregator that answers no
        (a status, or an error its handler raised) would answer no
        again: the report is dropped and counted, and the next interval
        ships the next one.  Every refusal was reshipped at link speed,
        for ever -- 34,566 reships in 600 s with ``unauthorized``."""
        bed, aggregator, reporters = build_fleet_bed(n=1)
        run_workload(bed)
        (reporter,) = reporters
        served = []

        def refuse(body, source):
            served.append(body)
            if answer == "raises":
                raise RuntimeError("aggregator misconfigured")
            return {"status": "unauthorized"}

        bed.server_transport._request_handlers["rover.telemetry"] = refuse
        reporter.start()
        bed.sim.run(until=bed.sim.now + 600.0)
        reporter.stop()
        bed.sim.run(until=bed.sim.now + 5.0)  # the last report's answer

        assert reporter.reports_reshipped == 0
        assert len(served) == reporter.reports_sent == reporter.reports_refused > 0
        assert reporter.reports_acked == 0 and not reporter._unacked
        assert bed.clients[0].scheduler.retransmissions == 0
        snapshot = bed.clients[0].obs.registry.snapshot()
        assert snapshot["telemetry_reports_refused_total{host=client0}"] == len(served)


DETERMINISM_SCRIPT = """
import hashlib
import sys

from repro.net.message import marshal
from tests.test_fleet_pipeline import build_fleet_bed, run_workload

bed, aggregator, reporters = build_fleet_bed()
run_workload(bed)
digest = hashlib.sha256()
for reporter in reporters:
    digest.update(marshal(reporter.build_report()))
print(digest.hexdigest())
"""


class TestMarshalDeterminism:
    def test_report_bytes_identical_across_hash_seeds(self):
        """Satellite: report marshal bytes must not depend on dict order."""
        repo_root = Path(__file__).resolve().parent.parent
        digests = set()
        for seed in ("0", "1", "4242"):
            proc = subprocess.run(
                [sys.executable, "-c", DETERMINISM_SCRIPT],
                capture_output=True,
                text=True,
                cwd=repo_root,
                env={
                    "PYTHONPATH": f"{repo_root}/src:{repo_root}",
                    "PYTHONHASHSEED": seed,
                },
                check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1, digests
