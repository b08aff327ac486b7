"""Rover server tests: import/export/invoke/ship, conflicts, at-most-once."""

import pytest

from repro.core.conflict import AppendMerge, FieldwiseMerge, Resolution, ResolverRegistry
from repro.core.naming import URN
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.core.server import SERVICES, RoverServer
from repro.net.link import ETHERNET_10M
from repro.net.message import marshal
from repro.net.simnet import Network
from repro.net.transport import Transport
from repro.sim import Simulator
from repro.testbed import build_testbed
from tests.conftest import make_note

SRC = ("client", 0)


@pytest.fixture
def server():
    sim = Simulator()
    net = Network(sim)
    host = net.host("server")
    transport = Transport(sim, host)
    return RoverServer(sim, transport, "server")


def test_put_and_get_object(server):
    note = make_note()
    version = server.put_object(note)
    assert version == 1
    stored = server.get_object(str(note.urn))
    assert stored.data == {"text": "hello"}
    assert stored.version == 1


# -- the object table: one entry per object ----------------------------------


def export(server, urn, base_version, text, request_id):
    return server.serve(
        "rover.export",
        {"urn": urn, "base_version": base_version, "data": {"text": text},
         "request_id": request_id},
        SRC,
    )


def test_the_first_version_of_an_object_is_1_and_reads_back_whole(server):
    note = make_note()
    assert server.put_object(note) == 1
    urn = str(note.urn)
    entry = server.objects[urn]
    assert entry.wire["version"] == 1 and entry.committed is None
    assert [version for version, __ in entry.history] == [1]
    stored = server.get_object(urn)
    assert (stored.data, stored.version) == ({"text": "hello"}, 1)
    assert list(server.state_vector()) == [urn] and server.state_vector()[urn][0] == 1


def test_each_commit_adds_1_to_its_own_object_s_version(server):
    note = make_note()
    assert server.put_object(note) == 1
    urn = str(note.urn)
    entry = server.objects[urn]
    assert export(server, urn, 1, "v2", "c/0")["version"] == 2
    assert export(server, urn, 2, "v3", "c/1")["version"] == 3
    assert server.put_object(note) == 4  # replacing it is a new version too
    assert server.objects[urn] is entry  # the same entry throughout
    assert [version for version, __ in entry.history] == [1, 2, 3, 4]
    assert list(entry.committed) == ["c/0", "c/1"]
    assert server.state_vector()[urn][0] == server.get_object(urn).version == 4
    # Versions count per object: another one starts at 1.
    other = make_note(path="notes/n2")
    assert server.put_object(other) == 1
    assert server.get_object(urn).version == 4


def test_a_record_installs_only_at_the_held_version_plus_1(server):
    note = make_note()
    server.put_object(note)
    urn = str(note.urn)
    before = marshal(server.subset_snapshot([urn]))
    assert not server.install(urn, 3, {"text": "skips one"}, [("c/0", {"status": "ok"})])
    assert not server.install(urn, 1, {"text": "again"})
    assert not server.install("urn:rover:server/none", 1, {"text": "not held"})
    assert marshal(server.subset_snapshot([urn])) == before
    assert "urn:rover:server/none" not in server.objects
    assert server.install(urn, 2, {"text": "next"}, [("c/0", {"status": "ok"})])
    stored = server.get_object(urn)
    assert (stored.version, stored.data) == (2, {"text": "next"})
    assert server.objects[urn].committed == {"c/0": {"status": "ok"}}


def test_an_anti_entropy_deletion_drops_the_object_with_its_history_and_index(server):
    note = make_note()
    server.put_object(note)
    urn = str(note.urn)
    original = export(server, urn, 1, "v2", "c/0")
    server.merge_subset({}, [urn])
    assert urn not in server.objects and server.state_vector() == {}
    assert server.subset_snapshot([urn]) == {"store": {}, "history": {}, "committed_replies": {}}
    # Published again, it starts over: no history, no committer index
    # to answer the replay from, so the request runs again.
    server.put_object(note)
    assert [version for version, __ in server.objects[urn].history] == [1]
    assert export(server, urn, 1, "v2", "c/0") == original
    assert server.exports_committed == 2 and server.duplicates_suppressed == 0


def test_import_returns_current_copy(server):
    note = make_note()
    server.put_object(note)
    reply = server._on_import({"urn": str(note.urn)}, SRC)
    assert reply["status"] == "ok"
    assert reply["version"] == 1
    assert reply["rdo"]["data"] == {"text": "hello"}


def test_import_missing_object(server):
    reply = server._on_import({"urn": "urn:rover:server/none"}, SRC)
    assert reply["status"] == "not-found"


def test_export_commits_on_matching_base(server):
    note = make_note()
    server.put_object(note)
    reply = server._on_export(
        {
            "urn": str(note.urn),
            "base_version": 1,
            "data": {"text": "updated"},
            "request_id": "c/0",
        },
        SRC,
    )
    assert reply["status"] == "committed"
    assert reply["version"] == 2
    assert server.get_object(str(note.urn)).data == {"text": "updated"}
    assert server.exports_committed == 1


def test_export_conflict_without_resolver(server):
    note = make_note()
    server.put_object(note)
    # Another client commits first.
    server._on_export(
        {"urn": str(note.urn), "base_version": 1, "data": {"text": "A"}, "request_id": "a/0"},
        SRC,
    )
    reply = server._on_export(
        {"urn": str(note.urn), "base_version": 1, "data": {"text": "B"}, "request_id": "b/0"},
        SRC,
    )
    assert reply["status"] == "conflict"
    report = reply["conflict"]
    assert report["base_version"] == 1
    assert report["server_version"] == 2
    assert report["server_value"] == {"text": "A"}
    assert server.exports_conflicted == 1
    # The conflicting update did not clobber the committed one.
    assert server.get_object(str(note.urn)).data == {"text": "A"}


def test_export_resolved_with_type_resolver():
    sim = Simulator()
    net = Network(sim)
    transport = Transport(sim, net.host("server"))
    registry = ResolverRegistry()
    registry.register("note", FieldwiseMerge())
    server = RoverServer(sim, transport, "server", resolvers=registry)

    urn = URN("server", "doc")
    server.put_object(RDO(urn, "note", {"a": 1, "b": 2}))
    server._on_export(
        {"urn": str(urn), "base_version": 1, "data": {"a": 10, "b": 2}, "request_id": "x/0"},
        SRC,
    )
    reply = server._on_export(
        {"urn": str(urn), "base_version": 1, "data": {"a": 1, "b": 20}, "request_id": "y/0"},
        SRC,
    )
    assert reply["status"] == "resolved"
    assert reply["value"] == {"a": 10, "b": 20}
    assert server.exports_resolved == 1


def test_export_at_most_once(server):
    note = make_note()
    server.put_object(note)
    body = {
        "urn": str(note.urn),
        "base_version": 1,
        "data": {"text": "once"},
        "request_id": "c/7",
    }
    first = server.serve("rover.export", body, SRC)
    second = server.serve("rover.export", body, SRC)  # retransmission
    assert first == second
    assert server.get_object(str(note.urn)).version == 2  # applied once
    assert server.duplicates_suppressed == 1


def test_invoke_read_method(server):
    note = make_note(text="abc")
    server.put_object(note)
    reply = server._on_invoke(
        {"urn": str(note.urn), "method": "length", "args": [], "request_id": "c/0"},
        SRC,
    )
    # Server charges compute time via DelayedReply.
    assert reply.body["status"] == "ok"
    assert reply.body["result"] == 3
    assert reply.delay_s > 0


def test_invoke_mutating_method_bumps_version(server):
    note = make_note()
    server.put_object(note)
    reply = server._on_invoke(
        {
            "urn": str(note.urn),
            "method": "set_text",
            "args": ["server-side"],
            "request_id": "c/0",
        },
        SRC,
    )
    assert reply.body["version"] == 2
    assert server.get_object(str(note.urn)).data == {"text": "server-side"}


def test_invoke_at_most_once(server):
    note = make_note()
    server.put_object(note)
    body = {
        "urn": str(note.urn),
        "method": "set_text",
        "args": ["v"],
        "request_id": "c/9",
    }
    server.serve("rover.invoke", body, SRC)
    duplicate = server.serve("rover.invoke", body, SRC)
    # Duplicate returns the cached reply (no DelayedReply, no re-execution).
    assert duplicate["version"] == 2
    assert server.get_object(str(note.urn)).version == 2


def test_ship_executes_with_store_access(server):
    for n in range(3):
        server.put_object(
            RDO(URN("server", f"nums/{n}"), "num", {"value": n * 10})
        )
    code = (
        "def main(prefix):\n"
        "    total = 0\n"
        "    for key in objects(prefix):\n"
        "        total = total + lookup(key)['value']\n"
        "    return total\n"
    )
    reply = server._on_ship(
        {"code": code, "method": "main", "args": ["urn:rover:server/nums/"], "request_id": "c/0"},
        SRC,
    )
    assert reply.body["result"] == 30
    assert server.ships_served == 1


def test_ship_rejects_unsafe_code(server):
    reply = None
    with pytest.raises(Exception):
        server._on_ship(
            {"code": "import os\n", "method": "main", "args": [], "request_id": "c/0"},
            SRC,
        )


def test_history_enables_three_way_merge():
    sim = Simulator()
    net = Network(sim)
    transport = Transport(sim, net.host("server"))
    registry = ResolverRegistry()
    registry.register("note", FieldwiseMerge())
    server = RoverServer(sim, transport, "server", resolvers=registry)
    server.HISTORY_LIMIT = 2
    urn = URN("server", "doc")
    server.put_object(RDO(urn, "note", {"a": 1}))
    # Push the base version out of the bounded history.
    for n in range(4):
        server._on_export(
            {
                "urn": str(urn),
                "base_version": n + 1,
                "data": {"a": 1, f"k{n}": n},
                "request_id": f"c/{n}",
            },
            SRC,
        )
    # Base version 1 fell out of history: resolver gets base=None and
    # FieldwiseMerge declines, so this surfaces as a conflict.
    reply = server._on_export(
        {"urn": str(urn), "base_version": 1, "data": {"a": 2}, "request_id": "late/0"},
        SRC,
    )
    assert reply["status"] == "conflict"


# -- a reply the server keeps holds no live data ------------------------------

ITEMS_CODE = (
    "def add(state, x):\n"
    "    state['items'].append(x)\n"
    "    return state['items']\n"
    "\n"
    "def items(state):\n"
    "    return state['items']\n"
)


def put_items(server, path="items/0", doc=""):
    interface = RDOInterface(
        [MethodSpec("add", mutates=True, doc=doc), MethodSpec("items")]
    )
    rdo = RDO(URN("server", path), "items", {"items": []}, code=ITEMS_CODE, interface=interface)
    server.put_object(rdo)
    return str(rdo.urn)


def invoke(server, urn, method, *args, request_id):
    return server.serve(
        "rover.invoke",
        {"urn": urn, "method": method, "args": list(args), "request_id": request_id},
        SRC,
    )


def test_a_retransmitted_invoke_is_answered_with_the_result_it_had(server):
    """A method that returns part of its state returns it by reference:
    the reply kept for a retransmission must not follow the store."""
    urn = put_items(server)
    first = invoke(server, urn, "add", 1, request_id="a/0")
    invoke(server, urn, "add", 2, request_id="b/0")
    assert server.get_object(urn).data == {"items": [1, 2]}
    # The reply still waiting out its compute time, the at-most-once
    # cache, and (once that is lost) the committer index: version 2 held [1].
    assert first.body == {"status": "ok", "result": [1], "version": 2}
    assert invoke(server, urn, "add", 1, request_id="a/0") == first.body
    server._applied.clear()
    assert invoke(server, urn, "add", 1, request_id="a/0") == first.body
    assert server.get_object(urn).data == {"items": [1, 2]}


def test_a_kept_read_reply_does_not_change_with_a_later_write(server):
    urn = put_items(server)
    invoke(server, urn, "add", 1, request_id="a/0")
    read = invoke(server, urn, "items", request_id="r/0")
    code = "def main(urn):\n    return lookup(urn)['items']\n"
    ship_body = {"code": code, "method": "main", "args": [urn], "request_id": "s/0"}
    shipped = server.serve("rover.ship", ship_body, SRC)
    invoke(server, urn, "add", 2, request_id="b/0")
    assert read.body["result"] == [1]
    assert shipped.body["result"] == [1]
    assert invoke(server, urn, "items", request_id="r/0")["result"] == [1]
    assert server.serve("rover.ship", ship_body, SRC)["result"] == [1]


def test_a_resolved_or_conflicting_export_keeps_the_value_it_had():
    """The two export replies that carry stored data, kept like any
    other, while an invoke writes that data in place."""
    class Concatenate:
        def resolve(self, base, server, client):
            return Resolution.merged({"items": server["items"] + client["items"]}, "both")

    sim = Simulator()
    registry = ResolverRegistry()
    registry.register("items", Concatenate())
    server = RoverServer(sim, Transport(sim, Network(sim).host("server")), "server", resolvers=registry)
    urn = put_items(server)
    invoke(server, urn, "add", "a", request_id="w/0")
    resolved = server._on_export(
        {"urn": urn, "base_version": 1, "data": {"items": ["b"]}, "request_id": "x/0"}, SRC
    )
    assert resolved["status"] == "resolved"
    invoke(server, urn, "add", "c", request_id="w/1")
    assert server.get_object(urn).data == {"items": ["a", "b", "c"]}
    assert resolved["value"] == {"items": ["a", "b"]}
    server2 = RoverServer(sim, Transport(sim, Network(sim).host("other")), "server")
    urn = put_items(server2)
    invoke(server2, urn, "add", "a", request_id="w/0")
    conflict = server2._on_export(
        {"urn": urn, "base_version": 0, "data": {"items": []}, "request_id": "x/0"}, SRC
    )
    assert conflict["status"] == "conflict"
    invoke(server2, urn, "add", "b", request_id="w/1")
    assert conflict["conflict"]["server_value"] == {"items": ["a"]}


# -- the interface table -------------------------------------------------------


def test_each_distinct_interface_is_decoded_once(server, monkeypatch):
    decoded = []
    real = RDOInterface.from_wire

    def counting(wire):
        decoded.append(wire)
        return real(wire)

    monkeypatch.setattr(RDOInterface, "from_wire", staticmethod(counting))
    # Two objects of one class: two interface wires, equal content.
    same = [put_items(server, f"items/{n}") for n in range(2)]
    other = put_items(server, "items/other", doc="another class")
    for urn in same + same:
        invoke(server, urn, "items", request_id=None)
    assert len(decoded) == 1
    table = dict(server._interfaces)
    invoke(server, other, "items", request_id=None)
    assert len(decoded) == 2
    (first,) = table.values()
    second = next(i for i in server._interfaces.values() if i is not first)
    assert second["add"].doc == "another class" and first["add"].doc == ""
    invoke(server, same[0], "items", request_id=None)
    assert len(decoded) == 2 and server.interface_evictions == 0


def evicted(server, name):
    return server.obs.registry.get(name).labels(authority="server", host="server").value


def test_each_bounded_table_counts_its_evictions_in_the_registry(server, monkeypatch):
    from repro.core.interpreter import SafeInterpreter

    monkeypatch.setattr(SafeInterpreter, "CODE_CACHE_MAX", 2)
    urns = [put_items(server, f"items/{n}", doc=f"class {n}") for n in range(3)]
    for urn in urns:
        invoke(server, urn, "items", request_id=None)
    assert server.interface_evictions == 1
    assert evicted(server, "rdo_interfaces_evicted_total") == 1.0
    # Two new sources fill both of the interpreter's tables whatever they
    # held; from then on every new source evicts one entry from each.
    sources = [f"def main():\n    return {n}\n" for n in range(5)]
    interpreter = server.interpreter
    for n, source in enumerate(sources):
        if n == 2:
            before = (interpreter.code_cache_evictions, interpreter.verdict_evictions)
        assert interpreter.verify(source) == []
        interpreter.load(source)
    assert evicted(server, "rdo_code_cache_evicted_total") == before[0] + 3
    assert evicted(server, "rdo_verdicts_evicted_total") == before[1] + 3


# -- the door: one credential check, one at-most-once guard --------------------


def lock_requests():
    """A bed holding one note, and a sender of session A's lock and
    unlock requests through the server's transport."""
    bed = build_testbed(link_spec=ETHERNET_10M)
    note = make_note()
    bed.server.put_object(note)
    urn = str(note.urn)

    def send(operation, n):
        body = {"urn": urn, "session": "A", "request_id": f"a/{n}"}
        return bed.server_transport.handle_request(f"rover.{operation}", body, SRC)

    return bed.server, urn, send


def test_a_retransmitted_unlock_does_not_free_a_later_lock():
    server, urn, send = lock_requests()
    send("lock", 0)
    send("unlock", 1)
    send("lock", 2)
    assert send("unlock", 1) == {"status": "ok"}  # the reply it had
    assert server._locks[urn][0] == "A"


def test_a_retransmitted_lock_after_its_unlock_takes_nothing():
    server, urn, send = lock_requests()
    send("lock", 0)
    send("unlock", 1)
    assert send("lock", 0)["status"] == "ok"  # the reply it had
    assert server._locks == {}


def door_state(server):
    """Everything a refused request must leave as it was."""
    return (
        marshal(server.subset_snapshot(server.objects)),
        sorted([urn, *lease] for urn, lease in server._locks.items()),
        [(rid, reply) for rid, (reply, __) in server._applied._replies.items()],
        dict(server._client_watermarks),
        {host: sorted(prefixes) for host, prefixes in server._subscriptions.items()},
    )


@pytest.mark.parametrize("service", list(SERVICES))
def test_a_request_without_a_token_changes_nothing(service):
    sim = Simulator()
    server = RoverServer(sim, Transport(sim, Network(sim).host("server")), "server",
                         auth_tokens={"secret"})
    urn = put_items(server)
    allowed = {"auth": "secret", "session": "A", "urn": urn}
    assert server.serve("rover.lock", {**allowed, "request_id": "a/0"}, SRC)["status"] == "ok"
    assert server.serve("rover.subscribe", {**allowed, "prefix": "urn"}, SRC)["status"] == "ok"
    bodies = {
        "rover.import": {"urn": urn},
        "rover.export": {"urn": urn, "base_version": 1, "data": {"items": [1]}},
        "rover.invoke": {"urn": urn, "method": "add", "args": [1]},
        "rover.ship": {"code": "def main():\n    return 1\n", "method": "main"},
        "rover.list": {"prefix": ""},
        "rover.subscribe": {"prefix": "urn:rover:server/"},
        "rover.lock": {"urn": urn, "session": "A", "lease_s": 10.0},
        "rover.unlock": {"urn": urn, "session": "A"},
    }
    body = {**bodies[service], "request_id": "b/1", "ackw": ["b", 1], "auth": "wrong"}
    before, reads, rejections = door_state(server), server.reads_served, server.auth_rejections
    assert server.transport.handle_request(service, body, ("other", 0)) == {
        "status": "unauthorized"
    }
    assert door_state(server) == before
    assert server.auth_rejections == rejections + 1
    assert server.reads_served == reads + SERVICES[service][1]


def test_a_token_that_is_not_text_is_refused_as_unauthorized():
    """The credential is read before the body's shape is checked: a list
    token raised out of the door (``in`` the set of tokens)."""
    sim = Simulator()
    server = RoverServer(sim, Transport(sim, Network(sim).host("server")), "server",
                         auth_tokens={"secret"})
    urn = put_items(server)
    before = door_state(server)
    body = {"urn": urn, "auth": ["secret"], "request_id": "b/1", "ackw": ["b", 1]}
    assert server.serve("rover.import", body, SRC) == {"status": "unauthorized"}
    assert door_state(server) == before and server.auth_rejections == 1


def test_a_retransmitted_request_whose_handler_raised_gets_its_error_again_and_runs_once():
    """A handler's exception is answered as a status, ``error``, which
    the door keeps like any reply.  It escaped the door, so the
    transport answered ``ok: false``, nothing was kept, and every
    retransmission ran the method again."""
    sim = Simulator()
    server = RoverServer(sim, Transport(sim, Network(sim).host("server")), "server")
    urn = put_items(server)
    runs = []
    run = server.interpreter.invoke

    def counted(functions, method, *args):
        runs.append(method)
        return run(functions, method, *args)

    server.interpreter.invoke = counted
    first = invoke(server, urn, "add", 1, 2, request_id="a/0")  # one argument too many
    assert first["status"] == "error" and first["error"].startswith("ExecutionError: TypeError: ")
    assert invoke(server, urn, "add", 1, 2, request_id="a/0") == first
    assert runs == ["add"] and server.duplicates_suppressed == 1
    assert server.get_object(urn).version == 1


@pytest.mark.parametrize("service", list(SERVICES))
def test_a_body_no_handler_can_serve_is_answered_an_error_and_changes_nothing(service):
    """A body that is not a dict made every handler raise, and the door
    itself too for a service applied at most once (reading its request
    id): the transport answered ``ok: false``, which a client retries as
    silence.  Now it is an ``error`` answer, and nothing is kept."""
    sim = Simulator()
    server = RoverServer(sim, Transport(sim, Network(sim).host("server")), "server")
    put_items(server)
    before = door_state(server)
    reply = server.serve(service, ["not", "a", "body"], SRC)
    assert reply["status"] == "error" and reply["error"]
    assert door_state(server) == before


# -- a field is read with its exact type: a lie is refused, never coerced -------

ITEMS = {"items": [1]}

#: A request that lies about a field's type, the status it must get, and
#: whether it commits: every row committed, granted or was not run at all
#: when the field was coerced (``int()``, ``float()``, ``body.get``).
LIES = {
    "export with neither data nor delta": ("rover.export", {"base_version": 1}, "error"),
    "base_version as text": ("rover.export", {"base_version": "1", "data": ITEMS}, "error"),
    "base_version as a float": ("rover.export", {"base_version": 1.9, "data": ITEMS}, "error"),
    "base_version as a bool": ("rover.export", {"base_version": True, "data": ITEMS}, "error"),
    "lease_s as a bool": ("rover.lock", {"session": "A", "lease_s": True}, "invalid-lease"),
    "have_version as text": ("rover.import", {"have_version": "1"}, "error"),
    "have_version as a float": ("rover.import", {"have_version": 1.9}, "error"),
    "have_version as a bool": ("rover.import", {"have_version": True}, "error"),
    "ackw counter as text": (
        "rover.export", {"base_version": 1, "data": ITEMS, "ackw": ["h", "9"]}, "committed"
    ),
    "ackw counter not a number": (
        "rover.export", {"base_version": 1, "data": ITEMS, "ackw": ["h", "x"]}, "committed"
    ),
    "request_id as a list": (
        "rover.export",
        {"base_version": 1, "data": ITEMS, "request_id": ["x"], "ackw": ["h", 9]},
        "error",
    ),
}


@pytest.mark.parametrize("lie", list(LIES))
def test_a_field_of_the_wrong_type_is_refused_not_coerced(server, lie):
    service, fields, status = LIES[lie]
    urn = put_items(server)
    reply = server.serve(service, {"urn": urn, "request_id": "h/3", **fields}, SRC)
    assert reply["status"] == status
    assert server.get_object(urn).version == (2 if status == "committed" else 1)
    # No lease granted, and a watermark that is not one licenses nothing.
    assert server._locks == {} and server._client_watermarks == {}


def test_a_subscription_to_a_prefix_that_is_not_text_is_refused_and_poisons_nothing(server):
    """It was stored, and from then on every export that committed on
    this server was answered ``error`` (``startswith`` of a number),
    that answer kept for its retransmits."""
    urn = put_items(server)
    assert server.serve("rover.subscribe", {"prefix": 5}, SRC)["status"] == "error"
    assert server._subscriptions == {}
    body = {"urn": urn, "base_version": 1, "data": ITEMS, "request_id": "b/0"}
    reply = server.serve("rover.export", body, ("other", 0))
    assert reply == {"status": "committed", "version": 2}
