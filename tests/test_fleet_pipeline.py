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
from types import SimpleNamespace

import pytest

from repro.core.naming import URN
from repro.core.qrpc import Operation
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.net.link import ETHERNET_10M, IntervalTrace
from repro.obs.fleet.aggregator import FleetAggregator, WindowRing
from repro.obs.fleet.report import (
    TelemetryFold,
    TelemetryReporter,
    fold_reports,
)
from repro.obs.fleet.sketch import LogSketch
from repro.perf.compact import Merge
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

    def _request(self, report, operation=Operation.TELEMETRY):
        return SimpleNamespace(operation=operation, args=report)

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

    def test_rule_matches_only_same_client_telemetry(self):
        rule = TelemetryFold()
        a = self._report(1, [(1, 1)])
        b = self._report(2, [(1, 1)])
        assert isinstance(
            rule.match(self._request(a), self._request(b)), Merge
        )
        other = self._report(2, [(1, 1)], c="client-9")
        assert rule.match(self._request(a), self._request(other)) is None
        ship = self._request(a, operation=Operation.SHIP)
        assert rule.match(ship, self._request(b)) is None

    def test_rule_refuses_reshipped_reports(self):
        rule = TelemetryFold()
        a = self._report(1, [(1, 1)], reshipped=True)
        b = self._report(2, [(1, 1)])
        assert rule.match(self._request(a), self._request(b)) is None
        assert rule.match(self._request(b), self._request(a)) is None


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
        """Once the scheduler gives a report up, the reporter ships the
        same payload again under the same sequence number, flagged as a
        retry; it is applied once and the totals stay exact."""
        bed, aggregator, reporters = build_fleet_bed(n=1)
        run_workload(bed)
        (reporter,) = reporters
        stack = bed.clients[0]
        client = stack.host.name
        stack.scheduler.max_attempts = 2
        handlers = bed.server_transport._request_handlers
        apply = handlers["rover.telemetry"]
        seen = []

        def refuse_twice(body, source):
            seen.append(body)
            if len(seen) <= 2:
                raise RuntimeError("aggregator restarting")
            return apply(body, source)

        handlers["rover.telemetry"] = refuse_twice
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
