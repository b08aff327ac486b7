"""Robustness / adversarial-input properties.

Corrupt bytes off the wire, hostile RDO source, and arbitrary link
flapping must produce clean errors or eventual completion — never
hangs, crashes, or silent misbehaviour.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.interpreter import (
    CodeValidationError,
    ExecutionBudgetExceeded,
    ExecutionError,
    SafeInterpreter,
    validate_source,
)
from repro.core.naming import URN
from repro.core.notification import EventType
from repro.core.rdo import RDO, MethodSpec, RDOInterface
from repro.core.server import INVALIDATION_PORT
from repro.ha import build_ha_testbed
from repro.lint.verifier import check_code
from repro.net.link import AlwaysDown, LinkSpec, IntervalTrace
from repro.net.message import MarshalError, marshal, marshalled_size, unmarshal
from repro.net.scheduler import NetworkScheduler
from repro.net.simnet import Network
from repro.net.transport import BATCH_SERVICE, Transport, batch_request
from repro.sim import Simulator
from repro.testbed import build_testbed
from repro.workloads import generate_connectivity_trace
from tests.conftest import make_note


@settings(max_examples=300)
@given(data=st.binary(max_size=200))
def test_unmarshal_never_crashes_on_garbage(data):
    """Random bytes either decode to a value or raise MarshalError."""
    try:
        value = unmarshal(data)
    except MarshalError:
        return
    except RecursionError:
        pytest.fail("unbounded recursion on crafted input")
    # Anything that decodes must re-encode (possibly differently sized).
    marshal(value)


@settings(max_examples=150)
@given(source=st.text(max_size=120))
def test_validate_source_never_crashes(source):
    """Arbitrary text is either valid restricted Python or a clean error."""
    try:
        validate_source(source)
    except CodeValidationError:
        pass


ESCAPE_ATTEMPTS = [
    # classic dunder ladders
    "def f():\n    return ().__class__.__bases__\n",
    "def f(x):\n    return x.__globals__\n",
    "def f():\n    return [].__class__.__mro__\n",
    # builtins resurrection
    "def f():\n    return __builtins__\n",
    "def f():\n    return __import__('os')\n",
    # format-string pivots
    'def f(x):\n    return "{0.__class__}".format(x)\n',
    "def f(x):\n    return x.format_map({})\n",
    # exec-family
    "def f():\n    return eval('1+1')\n",
    "def f():\n    return exec('pass')\n",
    "def f():\n    return compile('1', 'x', 'eval')\n",
    # attribute smuggling
    "def f(x):\n    return getattr(x, '__class__')\n",
    "def f(x):\n    return vars(x)\n",
    "def f(x):\n    return type(x)\n",
    # module-level state escape hatches
    "import sys\n",
    "from os import path\n",
    "class Meta:\n    pass\n",
    "def f():\n    global leak\n    leak = 1\n",
    "def f():\n    with open('/etc/passwd') as fh:\n        return fh.read()\n",
]


@pytest.mark.parametrize("source", ESCAPE_ATTEMPTS)
def test_sandbox_escape_attempts_fail(source):
    interp = SafeInterpreter()
    try:
        functions = interp.load(source)
    except CodeValidationError:
        return  # rejected statically: good
    # Passed validation (e.g. names like eval resolve at runtime):
    # execution must fail cleanly, not leak capability.
    with pytest.raises((ExecutionError, ExecutionBudgetExceeded)):
        interp.invoke(functions, "f", object())


def test_cpu_bomb_is_bounded():
    interp = SafeInterpreter(step_budget=5_000)
    functions = interp.load(
        "def f():\n"
        "    n = 0\n"
        "    while True:\n"
        "        n = n + 1\n"
        "    return n\n"
    )
    with pytest.raises(ExecutionBudgetExceeded):
        interp.invoke(functions, "f")


# The hostile-RDO corpus: sources that load and try to outlast their
# budget.  Each caught its own exhaustion with a bare ``except:`` and
# returned normally ("escaped", having used 1,001 steps of 1,000).
HOSTILE_SPINS = {
    "bare-except-around-while-true": (
        "def f():\n"
        "    try:\n"
        "        while True:\n"
        "            pass\n"
        "    except:\n"
        "        return 'escaped'\n"
    ),
    # The same spin over a finite iterable: nothing for RDO401 to flag.
    "bare-except-around-for-over-range": (
        "def f():\n"
        "    try:\n"
        "        for i in range(10 ** 9):\n"
        "            pass\n"
        "    except:\n"
        "        return 'escaped'\n"
    ),
}


@pytest.mark.parametrize("source", list(HOSTILE_SPINS.values()), ids=list(HOSTILE_SPINS))
def test_a_caught_exhaustion_is_still_exhaustion(source):
    interp = SafeInterpreter(step_budget=1_000)
    functions = interp.load(source)
    with pytest.raises(ExecutionBudgetExceeded):
        interp.invoke(functions, "f")
    assert interp.steps_used == 0  # recorded for no exhausted invoke


def test_the_for_over_range_spin_passes_the_static_verifier():
    """Only the runtime rule stops it."""
    assert check_code(HOSTILE_SPINS["bare-except-around-for-over-range"]) == []


# Text the codec cannot carry: UTF-8 has no encoding for a lone
# surrogate.  The results below run to completion at the server and
# pass the static verifier; the codec used to raise UnicodeEncodeError
# out of the transport's reply path, and out of the simulation with it.
LONE_SURROGATE = "\ud800"
HOSTILE_RESULTS = {
    "lone-surrogate-literal": "def main():\n    return '\\ud800'\n",
    "lone-surrogate-built": "def main():\n    return {'text': [chr(0xD800)]}\n",
}


@pytest.mark.parametrize(
    "value", [LONE_SURROGATE, ["ok", {"k": LONE_SURROGATE}], {LONE_SURROGATE: 1}]
)
def test_text_the_codec_cannot_carry_is_a_marshal_error(value):
    with pytest.raises(MarshalError, match="cannot marshal str"):
        marshal(value)
    with pytest.raises(MarshalError, match="cannot marshal str"):
        marshalled_size(value)


#: The two ways a reply leaves the server: through the transport's own
#: reply path, or mailed through the SMTP relay while the direct link
#: is down.
CARRIERS = {
    "rpc": build_testbed,
    "smtp": lambda: build_testbed(policy=AlwaysDown(), with_relay=True),
}


@pytest.mark.parametrize("carrier", list(CARRIERS))
@pytest.mark.parametrize("source", list(HOSTILE_RESULTS.values()), ids=list(HOSTILE_RESULTS))
def test_a_result_the_codec_cannot_carry_fails_the_call_and_the_server_serves_on(
    source, carrier
):
    bed = CARRIERS[carrier]()
    assert check_code(source) == []
    outcomes = []
    shipped = bed.access.ship(bed.authority, source)
    shipped.on_failure(lambda reason: outcomes.append(("failed", reason)))
    shipped.then(lambda result: outcomes.append(("ok", result)))
    bed.sim.run(until=3_600.0)
    assert len(outcomes) == 1 and outcomes[0][0] == "failed"
    assert outcomes[0][1].startswith("MarshalError: cannot marshal str")
    # The result failed the ship at the server, inside the handler: not
    # served, and its error is the answer, which is never retransmitted.
    assert bed.server.ships_served == 0 and bed.scheduler.retransmissions == 0
    after = bed.access.ship(bed.authority, "def main():\n    return 'next'\n")
    assert after.wait(bed.sim) == "next"


#: Interface wires a store can receive whole (an HA sync's subset, a
#: restore), and what invoking ``length``, ``set_text("x")`` and
#: ``length`` again (the interface table's answer) on a note carrying
#: one answers: the server decodes them, or refuses them with the error
#: the interface's own decoder raises, on every invoke.
_NOT_HASHABLE = ("failed", "TypeError: unhashable type: 'list'")
_SHORT_ENTRY = ("failed", "ValueError: not enough values to unpack (expected 3, got 2)")
_DECODED = [("ok", 5), ("ok", "x"), ("ok", 1)]
HOSTILE_INTERFACES = {
    "unhashable-name": ([[["set_text"], True, ""], ["length", False, ""]], [_NOT_HASHABLE] * 3),
    "int-name": (
        [[5, True, ""], ["length", False, ""]],
        [
            ("ok", 5),
            ("failed", "RDOError: urn:rover:server/notes/n1: method 'set_text' not in interface"),
            ("ok", 5),
        ],
    ),
    "unhashable-doc": ([["set_text", True, ["d"]], ["length", False, {"k": 1}]], _DECODED),
    "non-string-doc": ([["set_text", True, 7], ["length", False, None]], _DECODED),
    "short-entry": ([["set_text", True], ["length", False, ""]], [_SHORT_ENTRY] * 3),
    "not-a-list": (5, [("failed", "TypeError: 'int' object is not iterable")] * 3),
}


@pytest.mark.parametrize("name", list(HOSTILE_INTERFACES))
def test_an_interface_wire_decodes_or_is_refused_at_each_invoke(name):
    interface, expected = HOSTILE_INTERFACES[name]
    bed = build_testbed()
    note = make_note()
    bed.server.put_object(note)
    urn = str(note.urn)
    wire = bed.server.objects[urn].wire
    bed.server.merge_subset({"store": {urn: [dict(wire, interface=interface), wire["version"]]}}, [])
    outcomes = []
    for method, args in (("length", []), ("set_text", ["x"]), ("length", [])):
        promise = bed.access.invoke_remote(urn, method, args)
        promise.on_failure(lambda reason: outcomes.append(("failed", reason)))
        promise.then(lambda result: outcomes.append(("ok", result)))
        done = len(outcomes) + 1
        bed.sim.run_until(lambda: len(outcomes) == done, timeout=3_600.0)
    assert outcomes == expected
    # An import ships the wire as it is stored.
    reply = bed.server._on_import({"urn": urn}, ("client", 0))
    assert reply["rdo"]["interface"] == interface


@pytest.mark.parametrize(
    "name", [name for name, (_, answers) in HOSTILE_INTERFACES.items() if answers[0][0] == "failed"]
)
def test_an_object_whose_interface_does_not_decode_is_refused_at_import(name):
    """An import reply whose interface wire the client's decoder refuses
    (installed by anti-entropy, as by a restore) is a malformed reply:
    refused by the one path every unusable reply takes, which rejects
    every waiter on the import with the decoder's error and counts it;
    nothing is cached, and the client carries on.  It raised out of the
    simulator, leaving the waiters unresolved."""
    interface, _ = HOSTILE_INTERFACES[name]
    bed = build_testbed()
    note = make_note()
    bed.server.put_object(note)
    urn = str(note.urn)
    wire = bed.server.objects[urn].wire
    bed.server.merge_subset({"store": {urn: [dict(wire, interface=interface), wire["version"]]}}, [])
    waiters = [bed.access.import_(urn), bed.access.import_(urn)]  # one request, two waiters
    assert bed.access.drain(timeout=600.0)
    assert all(waiter.failed for waiter in waiters)
    assert all(waiter.error.startswith("malformed-reply: ") for waiter in waiters)
    refused = bed.obs.registry.get("qrpc_replies_refused_total")
    assert refused.labels(host=bed.access.host.name, op="import").value == 1
    assert bed.access.cache.peek(urn) is None
    other = make_note(path="notes/n2")
    bed.server.put_object(other)
    assert bed.access.import_(str(other.urn)).wait(bed.sim).data == other.data


#: Replies a server could seal intact that have the right status and
#: the wrong shape: (service answered, its reply, what queues the request).
MALFORMED_REPLIES = {
    "committed-without-version": ("rover.export", {"status": "committed"}, "invoke"),
    "committed-version-not-int": ("rover.export", {"status": "committed", "version": "x"}, "invoke"),
    "invoke-version-not-int": ("rover.invoke", {"status": "ok", "version": "zz"}, "invoke_remote"),
    "urns-not-a-list": ("rover.list", {"status": "ok", "urns": 7}, "list_objects"),
    "status-not-text": ("rover.invoke", {"status": ["ok"], "result": 1}, "invoke_remote"),
    "delta-base-not-int": (
        "rover.import",
        {"status": "ok-delta", "base_version": "x", "version": 2, "delta": {"=": 1}},
        "import_",
    ),
    # The decoders are the check: these passed a one-level shape check
    # and raised out of the simulator (``KeyError: 'urn'``).
    "conflict-without-urn": (
        "rover.export", {"status": "conflict", "conflict": {"detail": "x"}}, "invoke"
    ),
    "conflict-base-not-int": (
        "rover.export",
        {"status": "conflict", "conflict": {"urn": "u", "base_version": "x"}},
        "invoke",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_REPLIES))
def test_a_reply_of_the_wrong_shape_is_refused_once_and_applies_nothing(name):
    """A reply whose fields are not what its operation's row of
    ``OPERATIONS`` says rejects its request once, with the field named,
    is counted, and changes neither the cache nor the session.  It
    raised out of the simulator (a committed export with no integer
    version, an invoke's non-integer version, a delta's base), or
    resolved the promise with it (a listing's ``urns``)."""
    service, reply, queue = MALFORMED_REPLIES[name]
    bed = build_testbed()
    access = bed.access
    note = make_note()
    bed.server.put_object(note)
    urn = str(note.urn)
    session = access.create_session()
    access.import_(urn, session=session).wait(bed.sim)
    bed.server_transport.register(service, lambda body, source: dict(reply))
    entry = access.cache.peek(urn)
    if queue == "invoke":
        access.invoke(urn, "set_text", "mine", session=session)
        promise = None
    elif queue == "invoke_remote":
        promise = access.invoke_remote(urn, "set_text", ["theirs"], session=session)
    elif queue == "list_objects":
        promise = access.list_objects(bed.authority)
    else:
        promise = access.import_(urn, session=session, refresh=True)
    before = (entry.status, entry.rdo.version, dict(entry.rdo.data), entry.base_version)
    reads, writes = session.reads(), session.writes()
    assert access.drain(timeout=600.0)
    failed = [n for n in access.notifications.history if n.event is EventType.REQUEST_FAILED]
    assert len(failed) == 1
    reason = failed[0].details["reason"]
    assert reason.startswith("malformed-reply: "), reason
    if promise is not None:
        assert promise.failed and promise.error == reason
    assert access.cache.peek(urn) is entry
    assert (entry.status, entry.rdo.version, dict(entry.rdo.data), entry.base_version) == before
    assert (session.reads(), session.writes()) == (reads, writes)
    refused = bed.obs.registry.get("qrpc_replies_refused_total")
    op = {"rover.export": "export", "rover.invoke": "invoke", "rover.list": "list"}.get(service, "import")
    assert refused.labels(host=access.host.name, op=op).value == 1
    # The client carries on.
    bed.server_transport.register(service, lambda body, source: bed.server.serve(service, body, source))
    assert access.invoke_remote(urn, "read", []).wait(bed.sim) == bed.server.get_object(urn).data["text"]


@pytest.mark.parametrize("delta", [{"d": 5}, {"l": 5}, {"d": [[["k"]], {}]}, {"?": 1}])
def test_an_ok_delta_that_is_not_a_delta_reimports_in_full(delta):
    """An ``ok-delta`` reply whose delta cannot be applied, whatever its
    shape, is one more delta that does not fit the cached base: the
    import goes out again in full and its waiter gets the object.  A
    delta well-typed at the top but not a delta raised ``TypeError``
    out of the simulator."""
    bed = build_testbed()
    note = make_note()
    bed.server.put_object(note)
    urn = str(note.urn)
    held = bed.access.import_(urn).wait(bed.sim).version
    serve = bed.server.serve
    answers = []

    def first_a_bad_delta(body, source):
        answers.append(body)
        if len(answers) == 1:
            return {"status": "ok-delta", "base_version": held, "version": held + 1, "delta": delta}
        return serve("rover.import", body, source)

    bed.server_transport.register("rover.import", first_a_bad_delta)
    promise = bed.access.import_(urn, refresh=True)
    assert bed.access.drain(timeout=600.0)
    assert promise.wait(bed.sim).data == note.data
    assert len(answers) == 2
    assert bed.obs.registry.get("qrpc_replies_refused_total") is None


RUNAWAY_AGENT = (
    "def main():\n"
    "    total = 0\n"
    "    for i in range(10 ** 9):\n"
    "        total = total + i\n"
    "    return total\n"
)


def test_a_runaway_agent_is_run_once_and_its_error_is_the_answer():
    """A shipped agent that exhausts the server's step budget is
    answered with an ``error`` status, which the door keeps like any
    reply: it runs once, and its promise fails with the server's text.
    The handler's exception was transport silence, so the scheduler
    sent it again until its attempts ran out: it ran eight times."""
    bed = build_testbed()
    runs = []
    invoke = bed.server.interpreter.invoke

    def counted(functions, method, *args):
        runs.append(method)
        return invoke(functions, method, *args)

    bed.server.interpreter.invoke = counted
    agent = bed.access.ship(bed.authority, RUNAWAY_AGENT)
    assert bed.access.drain(timeout=3_600.0)
    assert agent.failed and agent.error.startswith("ExecutionBudgetExceeded: ")
    assert runs == ["main"]
    assert bed.scheduler.retransmissions == 0


def test_a_coalesced_member_the_codec_cannot_carry_fails_alone():
    """The member whose reply the codec refuses is answered with the
    error in its own slot; the member beside it is served as usual."""
    sim = Simulator()
    net = Network(sim)
    a, b = net.host("a"), net.host("b")
    net.connect(a, b, LinkSpec("lan", 10e6, 0.001))
    ta, tb = Transport(sim, a), Transport(sim, b)
    tb.register("echo", lambda body, source: body)
    tb.register("garble", lambda body, source: body + LONE_SURROGATE)
    reply = ta.call_blocking(b, BATCH_SERVICE, batch_request(
        [("garble", "x"), ("echo", "fine")]
    ))
    assert reply["replies"][1] == {"ok": True, "body": "fine"}
    refused = reply["replies"][0]
    assert refused["ok"] is True and refused["body"]["status"] == "error"
    assert refused["body"]["error"].startswith("MarshalError: cannot marshal str")


def test_an_argument_the_codec_cannot_carry_is_refused_at_the_call_site():
    bed = build_testbed()
    note = make_note()
    bed.server.put_object(note)
    with pytest.raises(MarshalError, match="cannot marshal str"):
        bed.access.invoke_remote(note.urn, "set_text", [LONE_SURROGATE])
    assert bed.access.log.pending_count() == 0 and bed.scheduler.idle()


# A mutating method that fails after writing.  The server runs it on
# the stored data itself, so each of these used to leave its write in
# the store with no new version; the lone surrogate was even stored
# under a new version before the version history failed to encode it,
# once per attempt, and every later import of the object failed.
FAILING_WRITES = {
    "raises": "def bump(state):\n    state['t'] = 'x'\n    return 1 // 0\n",
    "exhausts-its-budget": (
        "def bump(state):\n"
        "    state['t'] = 'x'\n"
        "    for i in range(10 ** 9):\n"
        "        pass\n"
    ),
    "stores-text-the-codec-refuses": (
        "def bump(state):\n    state['t'] = chr(0xD800)\n    return 1\n"
    ),
}


def _counter(source):
    interface = RDOInterface([MethodSpec("bump", mutates=True)])
    return RDO(URN("server", "counters/c1"), "counter", {"n": 0}, source, interface)


def _failed_bump(bed, access):
    bump = access.invoke_remote("urn:rover:server/counters/c1", "bump", [])
    bed.sim.run(until=bed.sim.now + 3_600.0)
    assert bump.failed


@pytest.mark.parametrize("source", list(FAILING_WRITES.values()), ids=list(FAILING_WRITES))
def test_a_failed_mutating_invoke_leaves_the_object_as_it_was(source):
    bed = build_testbed()
    assert bed.server.put_object(_counter(source)) == 1
    _failed_bump(bed, bed.access)
    urn = "urn:rover:server/counters/c1"
    stored = bed.server.get_object(urn)
    assert (stored.data, stored.version) == ({"n": 0}, 1)
    assert bed.server.invokes_served == 0
    assert bed.access.import_(urn).wait(bed.sim).data == {"n": 0}


def test_a_failed_mutating_invoke_leaves_every_replica_alike():
    bed = build_ha_testbed(n_backups=2)
    bed.put_object(_counter(FAILING_WRITES["raises"]))
    _failed_bump(bed, bed.clients[0].access)
    vectors = [server.state_vector() for server, __ in bed.members]
    assert vectors[0] == vectors[1] == vectors[2]
    for server, __ in bed.members:
        stored = server.get_object("urn:rover:server/counters/c1")
        assert (stored.data, stored.version) == ({"n": 0}, 1)


# A result the codec refuses, from a method that ran to completion: it
# fails the invoke at the server, inside the handler, so no reply the
# server keeps (the at-most-once entry, the committer index, an HA
# record) holds it.  It used to fail only where the reply was sent.
REFUSED_RESULTS = (
    "def bump(state):\n    state['n'] = state['n'] + 1\n    return chr(0xD800)\n\n"
    "def peek(state):\n    return chr(0xD800)\n"
)


def _refused_result_counter():
    interface = RDOInterface([MethodSpec("bump", mutates=True), MethodSpec("peek")])
    return RDO(URN("server", "counters/c1"), "counter", {"n": 0}, REFUSED_RESULTS, interface)


def _call_with_a_refused_result(bed, method):
    """Invoke ``method`` from client 0; its outcomes, with their times."""
    outcomes = []
    call = bed.clients[0].access.invoke_remote("urn:rover:server/counters/c1", method, [])
    call.on_failure(lambda reason: outcomes.append((bed.sim.now, reason)))
    call.then(lambda result: outcomes.append((bed.sim.now, result)))
    bed.sim.run(until=bed.sim.now + 3_600.0)
    return outcomes


@pytest.mark.parametrize("group", [False, True], ids=["one-server", "three-members"])
def test_a_write_whose_result_the_codec_refuses_fails_once_and_stores_nothing(group):
    """One server: the write committed (``{"n": 1}``) while the client
    was told it failed, after 7 retransmissions.  Three members: the
    primary's record carried the kept reply, and ``MarshalError``
    escaped the simulator from the record's shipping at 2.0 s."""
    bed = build_ha_testbed(n_backups=2) if group else build_testbed()
    bed.put_object(_refused_result_counter())
    outcomes = _call_with_a_refused_result(bed, "bump")
    assert len(outcomes) == 1
    assert outcomes[0][1].startswith("MarshalError: cannot marshal str")
    for server, __ in bed.members:
        stored = server.get_object("urn:rover:server/counters/c1")
        assert (stored.data, stored.version) == ({"n": 0}, 1)
        assert server.invokes_served == 0
    assert bed.clients[0].scheduler.retransmissions == 0


def test_a_read_whose_result_the_codec_refuses_is_answered_at_once_in_a_group():
    """It was the transport's ``ok: false``, which the scheduler takes
    for silence: the live primary was suspected, the client moved to a
    backup, and the call failed after 238 s with "replica group has no
    reachable primary" and 5 retransmissions."""
    bed = build_ha_testbed(n_backups=2)
    bed.put_object(_refused_result_counter())
    started = bed.sim.now
    ((at, reason),) = _call_with_a_refused_result(bed, "peek")
    assert reason.startswith("MarshalError: cannot marshal str")
    assert at - started < 0.1  # the first answer
    replica_set = bed.clients[0].access.servers["server"]
    assert replica_set.suspect == "" and replica_set.current_host.name == "server"
    assert bed.clients[0].scheduler.retransmissions == 0


# The same refused text written by a local invoke on a cached copy: the
# invoke raises, and the copy keeps the size it had, which every later
# reader of the cache needs (the next import's eviction check reads it
# inside the reply handler).
def test_a_local_write_the_codec_refuses_fails_the_invoke_and_the_cache_serves_on():
    bed = build_testbed()
    bed.server.put_object(_counter(FAILING_WRITES["stores-text-the-codec-refuses"]))
    bed.server.put_object(make_note())
    urn = "urn:rover:server/counters/c1"
    bed.access.import_(urn).wait(bed.sim)
    entry = bed.access.cache.peek(urn)
    size, published = entry.size, len(bed.access.notifications.history)
    with pytest.raises(MarshalError, match="cannot marshal str"):
        bed.access.invoke(urn, "bump")
    assert entry.size == size
    assert len(bed.access.notifications.history) == published
    assert bed.access.log.pending_count() == 0
    assert sum(entry.size for entry in bed.access.cache) == bed.access.cache.used_bytes
    assert bed.access.import_(make_note().urn).wait(bed.sim).data == {"text": "hello"}
    assert len(bed.access.cache) == 2


def _counter_with_a_refused_write():
    source = (
        "def add(state):\n    state['n'] = state['n'] + 1\n    return state['n']\n\n"
        "def bad(state):\n    state['t'] = chr(0xD800)\n    return 1\n"
    )
    interface = RDOInterface([MethodSpec("add", mutates=True), MethodSpec("bad", mutates=True)])
    return RDO(URN("server", "counters/c1"), "counter", {"n": 0}, source, interface)


# A refused write is rolled back: the copy holds its last encodable
# state, keeps its status, and takes the next write as if the refused
# one never ran (it stayed tentative with the bad text and no export
# queued, and every later write raised too).
def test_a_local_write_the_codec_refuses_leaves_the_cached_copy_as_it_was():
    bed = build_testbed()
    bed.server.put_object(_counter_with_a_refused_write())
    urn = "urn:rover:server/counters/c1"
    bed.access.import_(urn).wait(bed.sim)
    entry = bed.access.cache.peek(urn)
    with pytest.raises(MarshalError):
        bed.access.invoke(urn, "bad")
    assert entry.rdo.data == {"n": 0} and not entry.tentative
    assert bed.access.invoke(urn, "add")[0] == 1
    assert bed.access.drain(timeout=3_600.0)
    assert not entry.tentative and entry.rdo.data == {"n": 1}
    assert bed.server.get_object(urn).data == {"n": 1}


# The same refused write while an export of the copy is in flight: its
# commit encodes the live data, which raised out of the simulator.
def test_a_local_write_the_codec_refuses_during_an_export_does_not_break_its_commit():
    bed = build_testbed()
    bed.server.put_object(_counter_with_a_refused_write())
    urn = "urn:rover:server/counters/c1"
    bed.access.import_(urn).wait(bed.sim)
    assert bed.access.invoke(urn, "add")[0] == 1
    with pytest.raises(MarshalError):
        bed.access.invoke(urn, "bad")
    assert bed.access.drain(timeout=3_600.0)
    entry = bed.access.cache.peek(urn)
    assert not entry.tentative and entry.rdo.data == {"n": 1}
    assert bed.server.get_object(urn).data == {"n": 1}


# A method declared read-only that writes the stored data anyway.  The
# server ran it on the stored data itself and kept the write under the
# version every cached copy already holds.  The verifier refuses the
# first at publish; the second hides its write behind an alias a helper
# returns, which it does not follow.
HIDDEN_WRITES = {
    "through-a-helper": (
        "def _touch(s):\n    s['n'] = s['n'] + 1\n\n"
        "def peek(state):\n    return _touch(state)\n"
    ),
    "through-a-returned-alias": (
        "def _view(s):\n    return s\n\n"
        "def peek(state):\n    v = _view(state)\n    v['n'] = v['n'] + 1\n    return v['n']\n"
    ),
}


def _peek_counter(source):
    interface = RDOInterface([MethodSpec("peek")])
    return RDO(URN("server", "counters/c1"), "counter", {"n": 0}, source, interface)


def _refused_peek(bed, access):
    peek = access.invoke_remote("urn:rover:server/counters/c1", "peek", [])
    bed.sim.run(until=bed.sim.now + 3_600.0)
    assert peek.failed and peek.error == "hidden-mutation"


@pytest.mark.parametrize("source", list(HIDDEN_WRITES.values()), ids=list(HIDDEN_WRITES))
def test_a_read_only_invoke_that_writes_is_refused_and_undone(source):
    bed = build_testbed()
    assert bed.server.put_object(_peek_counter(source), verify=False) == 1
    _refused_peek(bed, bed.access)
    urn = "urn:rover:server/counters/c1"
    stored = bed.server.get_object(urn)
    assert (stored.data, stored.version) == ({"n": 0}, 1)
    assert bed.server.invokes_served == bed.server.reads_served == 0
    assert bed.access.import_(urn).wait(bed.sim).data == {"n": 0}


def test_the_verifier_misses_a_write_through_a_returned_alias():
    bed = build_testbed()
    assert bed.server.put_object(_peek_counter(HIDDEN_WRITES["through-a-returned-alias"])) == 1


def test_a_read_only_invoke_that_writes_leaves_every_replica_alike():
    bed = build_ha_testbed(n_backups=2)
    bed.put_object(_peek_counter(HIDDEN_WRITES["through-a-returned-alias"]))
    _refused_peek(bed, bed.clients[0].access)
    vectors = [server.state_vector() for server, __ in bed.members]
    assert vectors[0] == vectors[1] == vectors[2]
    for server, __ in bed.members:
        stored = server.get_object("urn:rover:server/counters/c1")
        assert (stored.data, stored.version) == ({"n": 0}, 1)


# Invalidation callbacks that pass the seal but that no server sends.
MALFORMED_INVALIDATIONS = {
    "version-not-a-number": {
        "kind": "invalidate", "urn": "urn:rover:x/y", "version": "seven",
    },
    "urn-not-hashable": {
        "kind": "invalidate", "urn": ["not", "hashable"], "version": 7,
    },
}


@pytest.mark.parametrize(
    "body", list(MALFORMED_INVALIDATIONS.values()), ids=list(MALFORMED_INVALIDATIONS)
)
def test_a_malformed_invalidation_is_dropped_and_counted(body):
    bed = build_testbed()
    note = make_note()
    bed.server.put_object(note)
    bed.access.import_(note.urn).wait(bed.sim)
    bed.access.subscribe_invalidations(bed.authority, "").wait(bed.sim)

    def cached():
        return [(str(e.rdo.urn), e.rdo.version, e.status) for e in bed.access.cache]

    before = (cached(), len(bed.access.notifications.history))
    corrupt = bed.client_transport.corrupt_frames_detected
    bed.server_transport.send(bed.client_host, INVALIDATION_PORT, body)
    bed.sim.run(until=bed.sim.now + 5)
    assert (cached(), len(bed.access.notifications.history)) == before
    assert bed.client_transport.corrupt_frames_detected == corrupt + 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500))
def test_scheduler_liveness_under_random_flapping(seed):
    """Every submitted message reaches a terminal state (delivered or
    failed) once connectivity stabilizes — no message is stranded."""
    sim = Simulator()
    net = Network(sim, seed=seed)
    a, b = net.host("a"), net.host("b")
    trace = generate_connectivity_trace(
        seed=seed, horizon_s=600.0, mean_up_s=20.0, mean_down_s=40.0
    )
    trace.append((700.0, 1e9))
    spec = LinkSpec("flappy", 64_000.0, 0.05, header_bytes=8)
    net.connect(a, b, spec, IntervalTrace(trace))
    ta, tb = Transport(sim, a), Transport(sim, b)
    tb.register("echo", lambda body, src: body)
    scheduler = NetworkScheduler(sim, ta, max_attempts=50, base_backoff=0.5)
    outcomes = []
    for n in range(10):
        scheduler.submit(
            b,
            "echo",
            {"n": n, "pad": "x" * 200},
            on_reply=lambda r: outcomes.append(("ok", r)),
            on_failed=lambda reason: outcomes.append(("failed", reason)),
        )
    sim.run(until=2_000.0)
    assert len(outcomes) == 10
    assert scheduler.idle()
