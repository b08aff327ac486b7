"""Every frame kind's declared shape (``repro.net.shape``), held at its door.

The check itself (``fits``) is pinned on a table of kinds and values.
The property draws, from each declared shape, a frame one field off it
-- a required key gone, a key no shape declares, a value of another
exact type at any depth (``bool``, ``float`` or text for an ``int``, a
scalar for a list or a map), or a negative or huge integer -- and sends
it through the door that takes it: ``RoverServer.serve`` for each client
service, the HA agent's frame handlers and the answers it reads, and the
fleet aggregator's ``rover.telemetry``.  Nothing may escape the door or
the simulator after it, and a frame its shape refuses changes nothing:
the object, at-most-once, watermark, lock and subscription tables, the
agent's ``seq`` / ``epoch`` / primary / role / log / votes, and the
aggregator's client tables are the same bytes before and after.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.server import SERVICES, RoverServer
from repro.ha import build_ha_testbed
from repro.net import shape
from repro.net.message import marshal, unmarshal
from repro.net.shape import ANY, ListOf, MapOf, Seq, Shape, fits
from repro.net.simnet import Network
from repro.net.transport import Transport
from repro.obs.fleet.aggregator import FleetAggregator
from repro.obs.fleet.sketch import LogSketch
from repro.sim import Simulator
from tests.conftest import make_report
from tests.test_core_server import SRC, door_state, put_items
from tests.test_ha_satellites import make_box

# -- the check ------------------------------------------------------------------

PAIR = Seq(str, int)
KINDS = [
    (int, 3, True), (int, True, False), (int, 3.0, False), (float, 3, False),
    ((int, float), 3.5, True), ((int, float), "3", False), (ANY, [b"x", None], True),
    (ListOf(int), [1, 2], True), (ListOf(int), [1, False], False), (ListOf(int), (1,), False),
    (MapOf(int), {"a": 1}, True), (MapOf(int), {1: 1}, False), (MapOf(int), {"a": "1"}, False),
    (PAIR, ["a", 1], True), (PAIR, ("a", 1), True), (PAIR, ["a"], False), (PAIR, [1, "a"], False),
    ((PAIR, type(None)), None, True), ((PAIR, type(None)), ["a", 1.0], False),
    (Shape({"a": int}, {"b": str}), {"a": 1}, True),
    (Shape({"a": int}, {"b": str}), {"a": 1, "b": "x"}, True),
    (Shape({"a": int}, {"b": str}), {"b": "x"}, False),
    (Shape({"a": int}, {"b": str}), {"a": 1, "c": 0}, False),
    (Shape({"a": ListOf(PAIR)}), {"a": [["x", 1], ["y", "2"]]}, False),
    (Shape({"a": ListOf(PAIR)}), [("a", [])], False),
]


@pytest.mark.parametrize("kind, value, verdict", KINDS)
def test_a_value_fits_its_kind_exactly(kind, value, verdict):
    compiled = Shape({"v": kind}).fields["v"]
    assert fits(value, compiled) is verdict
    assert fits({"v": value}, Shape({"v": kind})) is verdict


def test_every_client_service_shape_is_flat():
    """``RoverServer.serve`` runs a service's shape check inline, flat:
    a field its shape looked into would pass unchecked there."""
    assert all(row[3].nested == () for row in SERVICES.values())


def test_a_union_of_two_nested_kinds_is_refused_when_declared():
    with pytest.raises(ValueError):
        Shape({"v": (ListOf(int), MapOf(int))})


# -- one field off --------------------------------------------------------------

#: Values of every codec type; a leaf is replaced by one its kind refuses.
WRONG = [True, 0, 7, 1.5, "x", b"x", None, [], [1], (), {}, {"k": 1}]
#: Integers of the right type that no honest frame carries.
ODD_INTS = [-1, -(2**63), 2**64]


def off(data, kind, value):
    """``value`` (of ``kind``) with one thing in it made wrong: drawn from
    the declared kind, at the top or, through a nested kind, below it."""
    descend = {
        Shape: type(value) is dict and value,
        ListOf: type(value) is list and value,
        MapOf: type(value) is dict and value,
        Seq: type(value) in (list, tuple),
    }.get(type(kind), False)
    if descend and data.draw(st.booleans()):
        if type(kind) is Shape:
            choices = ["extra", *(("drop", key) for key in kind.required if key in value),
                       *(("field", key) for key in value)]
            pick = data.draw(st.sampled_from(choices))
            if pick == "extra":
                return {**value, "undeclared": 1}
            if pick[0] == "drop":
                return {key: item for key, item in value.items() if key != pick[1]}
            return {**value, pick[1]: off(data, kind.fields[pick[1]], value[pick[1]])}
        if type(kind) is MapOf:
            key = data.draw(st.sampled_from(sorted(value)))
            return {**value, key: off(data, kind.item, value[key])}
        items = list(value)
        if type(kind) is Seq and data.draw(st.booleans()):
            return items[:-1] or items + items  # the wrong length
        at = data.draw(st.integers(0, len(items) - 1))
        items[at] = off(data, kind.item if type(kind) is ListOf else kind.items[at], items[at])
        return items
    if hasattr(kind, "types") and kind.nested is not None and type(value) not in kind.types:
        return off(data, kind.nested, value)
    wrong = [item for item in WRONG if not fits(item, kind)] + (ODD_INTS if kind is int else [])
    return data.draw(st.sampled_from(wrong)) if wrong else value  # nothing is wrong for ANY


# -- the server's door ------------------------------------------------------------

ENVELOPE = {"request_id": "h/3", "ackw": ["h", 9], "session": "A"}


def _bodies(urn):
    return {
        "rover.import": {"urn": urn, "have_version": 1},
        "rover.export": {"urn": urn, "base_version": 1, "data": {"items": [2]}},
        "rover.invoke": {"urn": urn, "method": "add", "args": [1]},
        "rover.ship": {"code": "def main():\n    return 1\n", "method": "main", "args": []},
        "rover.list": {"urn": urn, "prefix": "urn"},
        "rover.subscribe": {"urn": urn, "prefix": "urn"},
        "rover.lock": {"urn": urn, "lease_s": 10.0},
        "rover.unlock": {"urn": urn},
    }


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SERVICES)), st.data())
def test_a_request_one_field_off_its_shape_is_refused_with_nothing_changed(service, data):
    sim = Simulator()
    server = RoverServer(sim, Transport(sim, Network(sim).host("server")), "server")
    urn = put_items(server)
    fields = SERVICES[service][3]
    body = off(data, fields, {**_bodies(urn)[service], **ENVELOPE})
    before = door_state(server)
    reply = server.serve(service, body, SRC)
    sim.run()
    if not fits(body, fields):
        assert reply["status"] == "error"
        assert door_state(server) == before


# -- the HA agent's frames and the answers it reads ------------------------------

#: What ``_on_replicate`` looks into: the frame, and each record in it.
REPLICATE_IN_FULL = Shape(
    {"epoch": int, "primary": str},
    {"commit_seq": int, "records": ListOf(shape.RECORD), "gap": bool},
)
#: What ``_adopt_sync`` looks into: the answer, and the parts it merges.
SYNC_ANSWER_IN_FULL = Shape({
    **shape.SYNC_ANSWER.fields,
    "subset": shape.MERGE.items[0], "deletions": shape.MERGE.items[1],
    "locks": shape.MERGE.items[2],
})
GRANT = {"seq": 0, "index": 2, "epoch": 0, "heard": False, "granted": True}


def _ha_state(bed):
    """What a refused frame leaves as it was: everything the members hold
    (stores, records), then the agents' reign, votes and peer cursors."""
    agents = bed.group.agents
    held = marshal([[door_state(agent.server), agent.seq, agent.log] for agent in agents])
    return held, marshal([
        (agent.epoch, agent.primary_name, agent.role, agent.promised, agent._granted,
         [(peer["acked_seq"], peer["confirmed"]) for peer in agent.peers])
        for agent in agents
    ])


def _ha_frames(bed, urn):
    """Each HA door: (kind drawn from, what refuses, a well-formed frame
    that changes the agent's state, send)."""
    primary, backup = bed.group.agents[:2]
    at = backup.server.objects[urn].wire["version"]
    record = {"seq": backup.seq + 1, "epoch": primary.epoch, "write": {
        "urn": urn, "version": at + 1, "data": {"items": ["z"]}, "request_id": "c/9",
        "reply": {"status": "ok", "result": 1}, "ackw": ["c", 9],
    }}
    peer = primary.peers[0]
    source = (primary.host.name, 0)
    return {
        "replicate": (
            REPLICATE_IN_FULL, (shape.REPLICATE,),
            {"epoch": primary.epoch + 1, "primary": bed.group.agents[2].host.name,
             "commit_seq": backup.seq + 1, "records": [record]},
            lambda frame: backup._on_replicate(frame, source),
        ),
        "poll": (
            shape.POLL, (shape.POLL,),
            {"proposed": backup.promised + 1, "seq": backup.seq + 5, "index": 2,
             "candidate": bed.group.agents[2].host.name},
            lambda frame: backup._on_poll(frame, source),
        ),
        "sync": (
            shape.SYNC, (shape.SYNC,),
            {"vector": {}, "seq": 0, "epoch": 0, "member": backup.host.name},
            lambda frame: primary._on_sync(frame, (backup.host.name, 0)),
        ),
        "ack": (
            shape.ACK, (shape.ACK, shape.STALE),
            {"ack_seq": peer["acked_seq"], "epoch": primary.epoch},
            lambda frame: primary._note_peer_reply(peer, frame, primary.epoch, bed.sim.now),
        ),
        "stale-epoch": (
            shape.STALE, (shape.ACK, shape.STALE),
            {"status": "stale-epoch", "epoch": primary.epoch + 1, "primary": backup.host.name},
            lambda frame: primary._note_peer_reply(peer, frame, primary.epoch, bed.sim.now),
        ),
        "sync-answer": (
            SYNC_ANSWER_IN_FULL, (SYNC_ANSWER_IN_FULL,),
            unmarshal(marshal(primary._on_sync({"vector": {}}, (backup.host.name, 0)))),
            backup._adopt_sync,
        ),
    }


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["replicate", "poll", "sync", "ack", "stale-epoch", "sync-answer"]),
       st.data())
def test_an_ha_frame_one_field_off_its_shape_is_refused_with_nothing_changed(door, data):
    bed = build_ha_testbed(n_backups=2)
    box = make_box(bed.authority, "check/box")
    bed.put_object(box)
    bed.sim.run(until=bed.sim.now + 1.0)
    bed.group.agents[1].last_heard = bed.sim.now - 2.0 * bed.group.agents[1].lease_s
    drawn_from, refuses, frame, send = _ha_frames(bed, str(box.urn))[door]
    frame = off(data, drawn_from, frame)
    before = _ha_state(bed)
    answer = send(frame)
    after = _ha_state(bed)
    bed.sim.run(until=bed.sim.now + 30.0)
    if not any(fits(frame, kind) for kind in refuses):
        assert after == before
        if door in ("replicate", "sync"):
            assert answer["status"] == "error"
        if door == "poll":
            assert answer["granted"] is False
    elif not fits(frame, drawn_from):  # a record refused alone: the fence ran
        assert after[0] == before[0] and "ack_seq" in answer


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_poll_answer_one_field_off_its_shape_counts_as_no_answer(data):
    agent = build_ha_testbed(n_backups=2).group.agents[1]
    answer = off(data, shape.POLL_ANSWER, dict(GRANT))
    won = agent._wins(5, [answer]), agent._wins(5, [answer, GRANT])
    if not fits(answer, shape.POLL_ANSWER):
        assert won == (agent._wins(5, []), agent._wins(5, [GRANT]))


# -- the fleet aggregator ---------------------------------------------------------


def _fleet_state(aggregator, server):
    return marshal([
        door_state(server),
        {client: (state.floor, sorted(state.above), state.max_seen, state.link_class,
                  state.ids, state.totals,
                  {key: sketch.to_wire() for key, sketch in state.sketches.items()},
                  state.reports_applied, state.duplicates)
         for client, state in aggregator.clients.items()},
        list(aggregator._deferred),
    ])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_report_one_field_off_its_shape_is_refused_with_nothing_changed(data):
    sim = Simulator()
    server = RoverServer(sim, Transport(sim, Network(sim).host("server")), "server")
    aggregator = FleetAggregator(sim, server=server)
    aggregator.apply_report(make_report(1, client="c"))
    sketch = LogSketch()
    for value in (0.1, 0.2, 0.4):
        sketch.observe(value)
    report = {**make_report(3, value=4, client="d"), "l": "cslip-14.4", "f": [2],
              "h": [[1, sketch.to_wire()]], "request_id": "t/1", "ackw": ["t", 5]}
    report = off(data, shape.REPORT, report)
    before = _fleet_state(aggregator, server)
    reply = aggregator._on_telemetry(report, SRC)
    if not fits(report, shape.REPORT):
        assert reply == {"status": "malformed"}
        assert _fleet_state(aggregator, server) == before
