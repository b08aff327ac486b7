"""Satellite optimizations: route memoization, the bounded applied-reply
cache (watermark + LRU backstop), and the marshal fast path."""

from __future__ import annotations

from repro.net.link import ETHERNET_10M, IntervalTrace
from repro.net.message import Premarshalled, marshal, marshalled_size, unmarshal
from repro.obs.fleet import FleetAggregator
from repro.testbed import build_testbed
from tests.conftest import make_note, make_report


def _counter_total(bed, name: str) -> int:
    metric = bed.obs.registry.get(name)
    if metric is None:
        return 0
    return int(sum(child.value for __, child in metric.children()))


# -- route memoization -------------------------------------------------------


def test_best_route_is_memoized_per_destination():
    bed = build_testbed(link_spec=ETHERNET_10M)
    scheduler = bed.scheduler
    first = scheduler._best_route(bed.server_host)
    assert first is not None
    assert bed.server_host.name in scheduler._route_cache
    # The memo answers the repeat lookup (same object, no re-scan).
    assert scheduler._best_route(bed.server_host) is first


def test_route_cache_invalidated_on_link_transition():
    bed = build_testbed(
        link_spec=ETHERNET_10M,
        policy=IntervalTrace([(0.0, 10.0), (20.0, 1e9)]),
    )
    scheduler = bed.scheduler
    assert scheduler._best_route(bed.server_host) is not None
    bed.sim.run(until=15.0)  # the down transition cleared the cache
    assert scheduler._route_cache == {}
    assert scheduler._best_route(bed.server_host) is None  # miss cached too
    assert scheduler._route_cache[bed.server_host.name] is None
    bed.sim.run(until=25.0)  # the up transition cleared it again
    assert bed.server_host.name not in scheduler._route_cache
    assert scheduler._best_route(bed.server_host) is not None


def test_add_route_invalidates_the_cache():
    bed = build_testbed(link_spec=ETHERNET_10M)
    scheduler = bed.scheduler
    scheduler._best_route(bed.server_host)
    assert scheduler._route_cache

    class _NullRoute:
        kind = None
        quality = -1.0

        def available(self, dst):
            return False

    scheduler.add_route(_NullRoute())
    assert scheduler._route_cache == {}


# -- bounded applied-reply cache ---------------------------------------------


def _run_sequential_invokes(bed, note, n: int) -> None:
    session = bed.access.create_session("s")
    bed.access.import_(note.urn, session)
    bed.sim.run()
    for i in range(n):
        bed.access.invoke_remote(note.urn, "set_text", [f"v{i}"], session=session)
        bed.sim.run()


def test_watermark_prunes_settled_applied_replies():
    bed = build_testbed(link_spec=ETHERNET_10M)
    note = make_note()
    bed.server.put_object(note)
    _run_sequential_invokes(bed, note, 10)
    # Every mutating invoke left an at-most-once entry; the ackw
    # watermark on later envelopes pruned the settled ones.
    assert bed.server.applied_pruned > 0
    assert len(bed.server._applied) < 10


def test_lru_cap_backstops_the_applied_cache():
    bed = build_testbed(link_spec=ETHERNET_10M)
    note = make_note()
    bed.server.put_object(note)
    bed.server.APPLIED_CACHE_CAP = 3
    _run_sequential_invokes(bed, note, 10)
    assert len(bed.server._applied) <= 3


def test_watermark_ignores_other_clients_ids():
    bed = build_testbed(link_spec=ETHERNET_10M)
    bed.server._record_reply("other-host+1/5", ("other-host+1", 5), {"status": "ok"})
    bed.server._observe_watermark({"ackw": ["client+1", 100]})
    assert "other-host+1/5" in bed.server._applied


def test_stale_watermark_does_not_regress():
    bed = build_testbed(link_spec=ETHERNET_10M)
    server = bed.server
    server._observe_watermark({"ackw": ["client+1", 50]})
    server._record_reply("client+1/10", ("client+1", 10), {"status": "ok"})
    # A reordered older envelope must not resurrect pruning state.
    server._observe_watermark({"ackw": ["client+1", 5]})
    assert "client+1/10" in server._applied
    server._observe_watermark({"ackw": ["client+1", 51]})
    assert "client+1/10" not in server._applied


def _walked_watermark(access) -> list:
    """The definition: the lowest counter among this incarnation's
    pending ids (every id looked at), else the next counter to mint."""
    floor = access._request_counter
    for request in access.log.pending():
        head, sep, tail = request.request_id.rpartition("/")
        if sep and head == access._id_prefix:
            floor = min(floor, int(tail))
    return [access._id_prefix, floor]


def test_watermark_is_the_walked_floor_without_the_walk():
    """``_ack_watermark`` asks the log for the oldest pending id of its
    incarnation instead of reading every pending id per wire body."""
    bed = build_testbed(
        link_spec=ETHERNET_10M,
        policy=IntervalTrace([(0.0, 1.0), (500.0, 1e9)]),
        compaction=True,
    )
    FleetAggregator(bed.sim, server=bed.server).register(bed.server_transport)
    bed.sim.run(until=2.0)  # disconnected
    outbox = "urn:rover:server/mail/outbox"
    seen = []

    def check():
        access = bed.access
        assert access._ack_watermark() == _walked_watermark(access)
        seen.append(tuple(access._ack_watermark()))

    check()  # nothing pending: the next counter
    for i in range(6):
        # Reports fold (a drop and a rewrite that keeps its place) ...
        bed.access.telemetry("server", make_report(i + 1, client="client"))
        bed.access.invoke_remote(f"urn:rover:server/mail/m{i}", "mark_read", [])
        check()
    assert bed.access.log.ops_compacted == 5
    # ... the oldest leaves by terminal failure ...
    oldest = bed.access.log.pending()[0]
    bed.access._on_failed(oldest, "gone")
    check()
    # ... and a reborn incarnation inherits ids that are not its own.
    bed.clients[0].crash_and_recover()
    check()
    assert bed.access._ack_watermark() == ["client+1", 0]
    for i in range(3):
        bed.access.invoke_remote(outbox, "append_entry", [{"id": f"b{i}"}])
        check()
    assert any(r.request_id.startswith("client/") for r in bed.access.log.pending())
    bed.sim.run(until=499.0)
    while bed.access.pending_count():  # the drain, reply by reply
        bed.sim.run(until=bed.sim.now + 0.01)
        check()
    assert bed.sim.now > 500.0 and len(set(seen)) > 4


# -- marshal fast path -------------------------------------------------------


def test_premarshalled_encodes_identically():
    body = {"urn": "urn:server:notes/n1", "args": {"x": [1, True, "s"]},
            "nested": {"k": b"\x00\x01"}}
    pre = Premarshalled(body)
    assert marshal(pre) == marshal(body)
    assert marshalled_size(pre) == marshalled_size(body)
    assert unmarshal(marshal(pre)) == body


def test_premarshalled_splices_inside_containers():
    body = {"inner": 1}
    wrapped = {"head": 0, "body": Premarshalled(body), "tail": 2}
    plain = {"head": 0, "body": body, "tail": 2}
    assert marshal(wrapped) == marshal(plain)


def test_premarshalled_still_reads_like_a_dict():
    pre = Premarshalled({"a": 1, "b": 2})
    assert pre["a"] == 1
    assert pre.get("b") == 2
    assert pre.get("missing") is None
    assert list(pre) == ["a", "b"]


def test_marshal_cache_hits_counted_on_the_wire_path():
    bed = build_testbed(link_spec=ETHERNET_10M)
    note = make_note()
    bed.server.put_object(note)
    session = bed.access.create_session("s")
    bed.access.import_(note.urn, session)
    bed.sim.run()
    # Every QRPC envelope is premarshalled once and reused by the
    # transport: submit/size/transmit share the cached bytes.
    assert _counter_total(bed, "marshal_cache_hits_total") > 0
