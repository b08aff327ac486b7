"""Checker-derived regressions: one replayed counterexample per bugfix.

Each trace below was found by ``python -m repro.check`` against the
pre-fix code, minimized with ``repro.check.minimize``, and frozen here.
The sparse ``{position: choice}`` traces replay deterministically —
every one of these failed before its fix landed:

* warm-import ``{38: 2}`` — a duplicate frame of a *settled* append
  whose cached reply the acknowledged-id watermark had (correctly)
  evicted was applied a second time at the server.
* delta-ship ``{9: 2}`` — a late replay of a committed export whose
  reply had been evicted from the bounded at-most-once cache was
  re-negotiated against version history and manufactured a conflict
  for a strictly sequential writer.
* crash-during-drain ``{10: 4}`` — a link flap mid-transfer failed the
  in-flight frame before the scheduler's transition listeners ran, so
  the retry pump dispatched parked messages through the stale memoized
  route into the dead link.
* ha-failover-features ``{6: 1, 14: 1}`` — a candidate's lost grant,
  then its death in a later election, left the two backups ticking at
  the same instants: each proposed the epoch the other had promised
  itself, each refused, and both tried again one tick later, for good.
* ha-failover-features ``{2: 3, 11: 1}`` (found as ``{2: 3, 10: 1}``;
  with frames deflated against the protocol dictionary, the client's
  retry of its export to the killed primary reaches its frame decision,
  position 10, before the election does) — a
  candidate killed in its election restarted saying ``heard`` to the
  other backup's poll (a restart reset ``last_heard``), which stood
  down for a lease more while the client's rounds ran out.
* ha-read ``{4: 10}`` — the writer's backlog, parked while its link to
  a partitioned primary was down, reached that primary as the partition
  healed: it ran the appends alone, was deposed, and took the new
  primary's copy by anti-entropy, but kept its own committer index, so
  the new primary's records of the same requests were answered from
  it and never applied there.
* ha-read ``{}`` — the suite's first run: a primary cut off from both
  backups still answered imports and shipped RDOs at once, so the
  reader's import and ship from that zombie missed an acknowledged
  append (reads 4 and 5).
* ha-failover-features ``{8: 1}`` — not a bug of this tree but of a
  design tried on the way to it: one lost reply of the live primary
  makes it the client's suspect, and every other member's hint names
  it; the suspicion has to end or the client never asks it again.
"""

import pytest

from repro.check.replay import run_with_choices
from repro.check.scenarios import make_box
from repro.check.seam import CheckHarness, count_dispatch_while_down
from repro.core.conflict import FieldwiseMerge, ResolverRegistry
from repro.core.naming import URN
from repro.core.rdo import RDO
from repro.core.server import RoverServer
from repro.net.link import AlwaysDown
from repro.net.simnet import Network
from repro.net.transport import RpcError, Transport
from repro.sim import Simulator
from repro.testbed import build_testbed
from tests.conftest import into, make_note

SRC = ("client", 0)


def build_server(resolvers=None, **constants):
    """A bare server; ``constants`` (``HISTORY_LIMIT=1``, ...) are set on
    the instance."""
    sim = Simulator()
    net = Network(sim)
    transport = Transport(sim, net.host("server"))
    server = RoverServer(sim, transport, "server", resolvers=resolvers)
    for name, value in constants.items():
        setattr(server, name, value)
    return server


# -- replayed minimized counterexamples ---------------------------------------


def chosen(result):
    """What the non-default choices of a replayed trace were made at."""
    return [
        (decision.meta.get("point"), decision.meta.get("service") or decision.meta.get("candidate"))
        for decision in result.trace
        if decision.chosen
    ]


def test_replayed_counterexample_ha_features_crossed_polls_lockstep():
    result = run_with_choices("ha-failover-features", {6: 1, 14: 1})
    assert chosen(result) == [
        ("frame", "rover.ha.poll"),
        ("kill-during-election", "server-b1"),
    ]
    assert result.violations == []


def test_replayed_counterexample_ha_features_restart_is_not_a_primary_heard():
    result = run_with_choices("ha-failover-features", {2: 3, 11: 1})
    assert chosen(result) == [("primary-kill-at", None), ("kill-during-election", "server-b2")]
    assert result.violations == []


def test_replayed_ha_features_lost_reply_of_the_live_primary():
    result = run_with_choices("ha-failover-features", {8: 1})
    (lost,) = [decision for decision in result.trace if decision.chosen]
    assert lost.meta["kind"] == "reply" and lost.meta["link"].startswith("client0--server-b1")
    assert result.violations == []


def test_replayed_counterexample_ha_read_rejoin_keeps_a_stale_committer_index():
    result = run_with_choices("ha-read", {4: 10})
    (fault,) = [decision for decision in result.trace if decision.chosen]
    assert fault.meta == {"point": "fault"}  # zombie-writer-parked, at 0.0008 s
    assert result.violations == []


def test_replayed_counterexample_ha_read_zombie_answers_an_import_and_a_ship():
    result = run_with_choices("ha-read", {})
    assert result.violations == []


def test_replayed_counterexample_warm_import_watermark_dup():
    result = run_with_choices("warm-import", {38: 2})
    assert result.violations == []


def test_replayed_counterexample_delta_ship_evicted_replay():
    result = run_with_choices("delta-ship", {9: 2})
    assert result.violations == []


def test_replayed_counterexample_crash_drain_stale_route():
    result = run_with_choices("crash-during-drain", {10: 4})
    assert result.violations == []
    assert result.stats["dispatch_while_down"] == 0


def test_dispatch_while_down_counts_only_calls_that_name_no_carrier():
    """A call with no carrier named while the direct link is down is a
    stale route; a mailed call, which names its mail link, is the mail
    route's own choice while that link is down."""
    bed = build_testbed(policy=AlwaysDown(), with_relay=True)
    bed.server_transport.register("echo", lambda body, source: body)
    harness = CheckHarness(bed.sim, frozenset(), frozenset())
    count_dispatch_while_down(harness, bed.client_transport)
    replies = []
    bed.scheduler.submit(bed.server_host, "echo", {"n": 1}, on_reply=into(replies))
    bed.sim.run(until=3_600.0)
    assert replies == [{"n": 1}] and harness.dispatch_while_down == 0
    with pytest.raises(RpcError):
        bed.client_transport.call(bed.server_host, "echo", {"n": 2}, replies.append, replies.append)
    assert harness.dispatch_while_down == 1


# -- direct unit regressions (the same bugs, no checker machinery) ------------


def test_watermark_floor_dedupes_evicted_invoke_replay():
    """Satellite 1: the eviction the watermark licenses is only sound if
    the watermark itself keeps deduplicating the evicted ids."""
    # HISTORY_LIMIT=1 also shrinks the committer index to one entry per
    # urn, so the watermark floor is the only guard left standing.
    server = build_server(HISTORY_LIMIT=1)
    box = make_box("server")
    server.put_object(box)
    urn = str(box.urn)

    first = {"urn": urn, "method": "add", "args": ["x"], "request_id": "c/0"}
    server.serve("rover.invoke", first, SRC)
    # The next request piggybacks ackw=["c", 1]: counter 0 is settled
    # client-side.  The server prunes c/0 from its at-most-once cache.
    server.serve(
        "rover.invoke",
        {"urn": urn, "method": "add", "args": ["y"], "request_id": "c/1",
         "ackw": ["c", 1]},
        SRC,
    )
    assert "c/0" not in server._applied

    # A delayed duplicate frame of the settled request arrives.
    server.serve("rover.invoke", dict(first), SRC)
    items = server.get_object(urn).data["items"]
    assert items == ["x", "y"], f"settled append applied twice: {items}"


def test_watermark_floor_rejects_evicted_export_replay():
    server = build_server(HISTORY_LIMIT=1)
    note = make_note()
    server.put_object(note)
    urn = str(note.urn)
    server.serve(
        "rover.export",
        {"urn": urn, "base_version": 1, "data": {"text": "A"}, "request_id": "c/0"},
        SRC,
    )
    server.serve(
        "rover.export",
        {"urn": urn, "base_version": 2, "data": {"text": "B"}, "request_id": "c/1",
         "ackw": ["c", 1]},
        SRC,
    )
    reply = server.serve(
        "rover.export",
        {"urn": urn, "base_version": 1, "data": {"text": "A"}, "request_id": "c/0"},
        SRC,
    )
    assert reply["status"] == "duplicate"
    assert server.exports_conflicted == 0
    assert server.get_object(urn).data == {"text": "B"}


def test_committer_index_answers_evicted_export_replay():
    """Satellite 2: a replayed-but-evicted committed export must get its
    original reply back, not re-negotiate against version history."""
    server = build_server(APPLIED_CACHE_CAP=2)
    note = make_note()
    server.put_object(note)
    urn = str(note.urn)

    body = {"urn": urn, "base_version": 1, "data": {"text": "v1"}, "request_id": "c/0"}
    original = server.serve("rover.export", body, SRC)
    assert original["status"] == "committed"
    # Two younger requests evict c/0's reply from the bounded cache;
    # no watermark was ever observed, so the floor cannot help.
    server.serve(
        "rover.export",
        {"urn": urn, "base_version": 2, "data": {"text": "v2"}, "request_id": "c/1"},
        SRC,
    )
    server.serve(
        "rover.export",
        {"urn": urn, "base_version": 3, "data": {"text": "v3"}, "request_id": "c/2"},
        SRC,
    )
    assert "c/0" not in server._applied

    replay = server.serve("rover.export", dict(body), SRC)
    assert replay == original
    assert server.exports_conflicted == 0
    assert server.get_object(urn).data == {"text": "v3"}


def test_committer_index_replays_resolved_reply_with_merged_value():
    """A replay of a *resolved* export must carry the original merged
    value — a bare "committed" would let the client's next export
    overwrite the merge (acked updates lost at server)."""
    registry = ResolverRegistry()
    registry.register("note", FieldwiseMerge())
    server = build_server(APPLIED_CACHE_CAP=2, resolvers=registry)
    urn = URN("server", "doc")
    server.put_object(RDO(urn, "note", {"a": 1, "b": 2}))

    server.serve(
        "rover.export",
        {"urn": str(urn), "base_version": 1, "data": {"a": 10, "b": 2},
         "request_id": "x/0"},
        SRC,
    )
    resolved_body = {"urn": str(urn), "base_version": 1, "data": {"a": 1, "b": 20},
                     "request_id": "y/0"}
    original = server.serve("rover.export", dict(resolved_body), SRC)
    assert original["status"] == "resolved"
    server.serve(
        "rover.export",
        {"urn": str(urn), "base_version": 3, "data": {"a": 10, "b": 30},
         "request_id": "x/1"},
        SRC,
    )
    server.serve(
        "rover.export",
        {"urn": str(urn), "base_version": 4, "data": {"a": 11, "b": 30},
         "request_id": "x/2"},
        SRC,
    )
    assert "y/0" not in server._applied

    replay = server.serve("rover.export", dict(resolved_body), SRC)
    assert replay["status"] == "resolved"
    assert replay["value"] == original["value"]


def test_committer_index_survives_server_restart():
    server = build_server(APPLIED_CACHE_CAP=2)
    note = make_note()
    server.put_object(note)
    urn = str(note.urn)
    body = {"urn": urn, "base_version": 1, "data": {"text": "v1"}, "request_id": "c/0"}
    original = server.serve("rover.export", body, SRC)
    server.restart()
    assert "c/0" not in server._applied  # the volatile cache died
    replay = server.serve("rover.export", dict(body), SRC)
    assert replay == original
    assert server.exports_conflicted == 0


# -- the applied-reply cache's per-client index -------------------------------


class _ScanningAppliedCache:
    """The at-most-once cache as it worked before the per-client index:
    one OrderedDict, every cached id re-parsed on each new watermark."""

    def __init__(self, cap):
        from collections import OrderedDict

        self.applied = OrderedDict()
        self.watermarks = {}
        self.cap = cap
        self.pruned = 0
        self.suppressed = 0

    def cached_reply(self, request_id):
        if request_id in self.applied:
            self.applied.move_to_end(request_id)
            self.suppressed += 1
            return self.applied[request_id]
        prefix, sep, tail = request_id.rpartition("/")
        if sep and tail.isdigit() and int(tail) < self.watermarks.get(prefix, -1):
            self.suppressed += 1
            return {"status": "duplicate", "request_id": request_id}
        return None

    def record(self, request_id, reply):
        self.applied[request_id] = reply
        self.applied.move_to_end(request_id)
        while len(self.applied) > self.cap:
            self.applied.popitem(last=False)
            self.pruned += 1

    def observe(self, prefix, watermark):
        if self.watermarks.get(prefix, -1) >= watermark:
            return
        self.watermarks[prefix] = watermark
        stale = [
            rid
            for rid in self.applied
            if rid.rpartition("/")[0] == prefix
            and rid.rpartition("/")[2].isdigit()
            and int(rid.rpartition("/")[2]) < watermark
        ]
        for rid in stale:
            del self.applied[rid]
        self.pruned += len(stale)


def test_indexed_applied_cache_matches_the_scanning_one():
    """Same cache contents in the same LRU order, same ``applied_pruned``
    and ``duplicates_suppressed``, same watermark-floor answers — under
    interleaved clients, out-of-order counters, redeliveries, regressing
    watermarks, ids that do not parse, and a cap small enough to evict
    entries the index still names."""
    from repro.sim.rng import make_rng

    rng = make_rng(7, "applied-index")
    cap = 6
    server = build_server(APPLIED_CACHE_CAP=cap)
    model = _ScanningAppliedCache(cap)
    clients = ["a", "b+1", "a/b"]  # the last: a prefix with a slash in it
    for step in range(3000):
        client = rng.choice(clients)
        roll = rng.random()
        if roll < 0.08:
            request_id = rng.choice(["opaque", f"{client}/x{step}", f"{client}/"])
        else:
            # Counters drift upward, so watermarks keep finding work.
            request_id = f"{client}/{max(0, step // 25 + rng.randrange(-6, 8))}"
        if roll < 0.6:
            got, split = server._cached_reply(request_id)
            assert got == model.cached_reply(request_id)
            if got is None:
                reply = {"status": "ok", "step": step}
                server._record_reply(request_id, split, reply)
                model.record(request_id, reply)
        else:
            watermark = max(0, step // 25 + rng.randrange(-12, 4))
            server._observe_watermark({"ackw": [client, watermark]})
            model.observe(client, watermark)
        cached = [(rid, reply) for rid, (reply, __) in server._applied._replies.items()]
        assert cached == list(model.applied.items())
        assert server.applied_pruned == model.pruned
        assert server.duplicates_suppressed == model.suppressed
    assert server.applied_pruned > 100 and server.duplicates_suppressed > 100
    # The index names exactly the cached ids that parse, sorted per client.
    indexed = sorted(
        rid for entries in server._applied._by_client.values() for __, rid in entries
    )
    parsed = sorted(
        rid for rid in server._applied._replies if rid.rpartition("/")[2].isdigit()
    )
    assert indexed == parsed
    for entries in server._applied._by_client.values():
        assert entries == sorted(entries)
    server._applied.clear()
    assert not server._applied and server._applied._by_client == {}
